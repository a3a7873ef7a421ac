#!/usr/bin/env python3
"""The repo benchmark: host and modeled end-to-end metrics per workload.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
re-runs the workload's fixed units with every layer wrapped and reports
the per-layer split instead.  ``--workload all`` runs every workload
both ways, each in a fresh process, and prints every metric with its
unit plus the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: BLAS threads, fixed before NumPy loads (the host has few cores and
#: is shared; one thread keeps host timings steady).
BLAS_THREADS = 1
#: Second seed every claim made with this benchmark must also hold on.
HELD_OUT_SEED = 1009
#: Environment switches that silently change the program measured.
FORBIDDEN_ENV = ("REPRO_SIM_ENGINE", "REPRO_EXECUTOR", "REPRO_SANITIZE")
#: ``workloads.WORKLOADS`` keys, spelled here so that argument parsing
#: imports no NumPy before the BLAS thread count is fixed.
WORKLOAD_NAMES = ("search_cold", "serve_repeat", "service_churn")

#: End-to-end metric -> unit.
END_TO_END = {
    "host_qps": "1/s",
    "host_batch_ms_p50": "ms",
    "host_batch_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_qps": "1/s",
    "goodput_qps": "1/s",
    "modeled_p99_ms": "ms",
    "served_share": "share",
    "recall_at_k": "share",
}

#: Layers each workload must exercise (a present layer that never
#: fires on one of these is flagged).
EXPECTED = {
    "search_cold": (
        "cluster_filter", "schedule", "lut_build", "flat_table", "lut_cache",
        "adc", "dpu_topk", "charge_replay", "host_topk", "dag_execute",
        "telemetry", "sanitize", "placement", "train", "cae_mining",
    ),
    "serve_repeat": (
        "cluster_filter", "schedule", "lut_cache", "adc", "dpu_topk",
        "charge_replay", "host_topk", "dag_execute", "stream_execute",
        "tracing", "telemetry", "latency_recorder", "sanitize", "admission",
        "coalescer",
    ),
    "service_churn": (
        "cluster_filter", "schedule", "lut_build", "flat_table", "lut_cache",
        "adc", "dpu_topk", "charge_replay", "host_topk", "dag_execute",
        "tracing", "telemetry", "latency_recorder", "sanitize", "placement",
        "refresh", "faults",
    ),
}

#: Workload-property report entries also published as per-layer metrics.
PROPS = (
    "query_repeat_share",
    "lut_cache_hit_ratio",
    "batch_size_mean",
    "refreshes",
    "recoveries",
    "sheds",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    from layers import LAYERS, PATHS

    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "share"
    units.update(
        {
            "schedule.pairs": "count",
            "lut_cache.hits": "count",
            "lut_cache.misses": "count",
            "lut_cache.hit_ratio": "share",
            "lut_cache.bytes": "bytes",
            "stream_execute.spans": "count",
            "faults.retries": "count",
            "coalescer.batch_size_mean": "count",
        }
    )
    for path in PATHS:
        units[f"{path}.wall_s"] = "s"
        units[f"{path}.unattributed_s"] = "s"
    for lane in ("host_cpu", "pim_bus", "dpu"):
        units[f"modeled.{lane}.busy_s"] = "s"
        units[f"modeled.{lane}.wait_s"] = "s"
    units["modeled.dpu_load_ratio"] = "ratio"
    units["modeled.topk_pruned_share"] = "share"
    for prop in PROPS:
        units[f"workload.{prop}"] = "share" if prop.endswith(("share", "ratio")) else "count"
    units["trace.overhead_est_share"] = "share"
    return units


# --- statistics -------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, dict]:
    """The highest percentile, at most the 95th, with at least ten samples
    beyond it.

    The cap keeps the rank where a run's sample count does not decide
    what is measured: ``serve_repeat`` makes some 1,700 calls a run, and
    past the 99th percentile its tail is set by about one garbage
    collection pause per unit.  With fewer than eleven samples no
    percentile qualifies; the maximum is reported and the rank says so.
    """
    s = sorted(samples)
    n = len(s)
    beyond = max(10, math.ceil(0.05 * n))
    if n > beyond:
        i = n - 1 - beyond
        rank = {"percentile": 100.0 * (i + 1) / n, "beyond": beyond, "samples": n}
    else:
        i = n - 1
        rank = {"percentile": 100.0, "beyond": 0, "samples": n, "note": "max: fewer than 11 samples"}
    return s[i], rank


# --- provenance ---------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if not queryable."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, params: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "git_rev": rev,
        "git_dirty": bool(status) if rev else None,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_configured": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "params": params,
    }


# --- one workload in this process ----------------------------------------------


def run_one(args) -> int:
    import workloads

    fn, main_path, params = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from layers import Tracer, wrapper_cost_s

        tracer = Tracer().install()
        try:
            out = fn(args.seed, args.seconds, fixed_units=workloads.MIN_UNITS)
        finally:
            tracer.uninstall()
    else:
        out = fn(args.seed, args.seconds)

    checks = dict(out.checks)
    report: dict = {"provenance": provenance(args, params)}
    if tracer is None:
        # Host times are scaled to the reference host speed, unit by unit;
        # the raw figures stay in the report.
        factor = out.unit_factor
        ends = out.unit_first_call[1:] + [len(out.call_s)]
        calls_ms = [
            c * 1e3 / factor[u]
            for u, (a, b) in enumerate(zip(out.unit_first_call, ends))
            for c in out.call_s[a:b]
        ]
        tail_ms, rank = tail(calls_ms)
        metrics = {
            "host_qps": statistics.median(q * f for q, f in zip(out.unit_qps, factor)),
            "host_batch_ms_p50": statistics.median(calls_ms),
            "host_batch_ms_tail": tail_ms,
            "setup_s": statistics.median(
                s / factor[u] for s, u in zip(out.setup_s, out.setup_unit)
            ),
            "peak_rss_mb": out.peak_rss_mb,
            **out.modeled,
        }
        units = END_TO_END
        report["host_speed_factors"] = factor
        report["raw_host"] = {
            "host_qps": statistics.median(out.unit_qps),
            "host_batch_ms_p50": statistics.median(out.call_s) * 1e3,
            "host_batch_ms_tail": tail([c * 1e3 for c in out.call_s])[0],
            "setup_s": statistics.median(out.setup_s),
        }
        report["host_batch_ms_tail_rank"] = rank
        report["host_batch_ms"] = [round(c, 3) for c in calls_ms]
    else:
        metrics = tracer.per_layer(main_path)
        metrics.update(out.lanes)
        metrics["faults.retries"] = float(out.props.get("retries", 0))
        for prop in PROPS:
            metrics[f"workload.{prop}"] = float(out.props.get(prop, 0))
        total_calls = sum(tracer.calls.values())
        main_wall = tracer.root_wall.get(main_path, 0.0)
        metrics["trace.overhead_est_share"] = (
            wrapper_cost_s() * total_calls / main_wall if main_wall else 0.0
        )
        units = per_layer_units()
        err = tracer.attribution_error(main_path)
        checks["self_times_sum_to_wall"] = (
            None if err <= 0.01 else f"layer self times miss the {main_path} wall by {err:.2%}"
        )
        present = tracer.present_layers()
        report["absent_targets"] = tracer.absent
        report["layers_absent"] = sorted(set(EXPECTED[args.workload]) - present)
        report["never_fired"] = [
            layer for layer in EXPECTED[args.workload]
            if layer in present and tracer.calls.get(layer, 0) == 0
        ]
        report["attribution_error"] = err
        for layer in report["never_fired"]:
            print(f"warning: layer {layer} never fired on {args.workload}", file=sys.stderr)
    missing = [name for name in units if name not in metrics]
    if missing:
        checks["all_metrics_reported"] = f"missing metrics: {missing}"

    report.update(
        {
            "units": out.units,
            "timed_s": out.timed_s,
            "setup_samples_s": out.setup_s,
            "modeled": out.modeled,
            "lanes": out.lanes,
            "workload_properties": out.props,
            "checks": {k: ("ok" if v is None else v) for k, v in checks.items()},
        }
    )
    correct = all(v is None for v in checks.values())
    print("REPORT " + json.dumps(report, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": int(out.terminal),
        # An operation that raises aborts the run before this line.
        "failed": 0,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


# --- every workload, each in a fresh process ----------------------------------------


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        parsed = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                status = 1
                continue
            report = json.loads(lines[-2].removeprefix("REPORT "))
            parsed[trace] = (report, json.loads(lines[-1]))
        if len(parsed) < 2:
            continue
        print(f"\n== {name} ==")
        for trace in (0, 1):
            report, result = parsed[trace]
            print(f"-- {'end to end' if trace == 0 else 'per layer (traced)'}: correct={result['correct']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
            for check, verdict in report["checks"].items():
                print(f"  check {check}: {verdict}")
        untraced, traced = parsed[0][0], parsed[1][0]
        per_unit = untraced["timed_s"] / untraced["units"]
        traced_per_unit = traced["timed_s"] / traced["units"]
        print(f"  tracing overhead: {traced_per_unit / per_unit - 1.0:+.1%} host time per unit "
              f"({traced_per_unit:.3f} s traced vs {per_unit:.3f} s untraced)")
        print(f"  workload properties: {json.dumps(untraced['workload_properties'], sort_keys=True)}")
        for key in ("absent_targets", "never_fired"):
            if traced[key]:
                print(f"  {key.replace('_', ' ')}: {', '.join(traced[key])}")
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    forbidden = [var for var in FORBIDDEN_ENV if os.environ.get(var)]
    if forbidden:
        print(f"refusing to run: {', '.join(forbidden)} set; each changes the program measured",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"elapsed {time.perf_counter() - start:.1f} s", file=sys.stderr)
    sys.exit(code)
