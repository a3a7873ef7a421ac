"""Per-layer tracing for the traced benchmark run.

Wraps the public functions of each layer from outside the program: a
wrapper times the call, subtracts the time of wrapped calls nested in it
(its children) to get the layer's self time, and counts work at the same
boundary (pairs scheduled, LUT-cache hits, spans executed, ...).

A target is resolved at run time by module and attribute.  A module
function is replaced under every name a ``repro`` module holds it by
(``repro.core.engine`` imports ``schedule_batch`` by name, so patching
only ``repro.core.scheduling`` would miss the engine's calls).  A target
that no longer exists is reported as absent rather than failing the run.

Only calls made inside a *path* (a top-level entry point such as
``UpANNSEngine.search_batch``) are attributed; the benchmark's own
output checks call some of the same functions and are not counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: Entry points whose wall time the layers split.  The outermost path
#: active when a layer fires is the root it is attributed to.
PATHS: dict[str, tuple[str, ...]] = {
    "build": ("repro.core.engine:UpANNSEngine.build",),
    "search_batch": ("repro.core.engine:UpANNSEngine.search_batch",),
    "submit": ("repro.core.service:OnlineService.submit",),
    "frontend_run": ("repro.serving.frontend:ServingFrontend.run",),
}

#: Layer name -> wrapped targets.  ``module:*prefix`` wraps every public
#: function of the module whose name starts with ``prefix``.
LAYERS: dict[str, tuple[str, ...]] = {
    "cluster_filter": ("repro.ivfpq.ivf:InvertedFile.search_clusters",),
    "schedule": ("repro.core.scheduling:schedule_batch",),
    "lut_build": ("repro.ivfpq.lut:build_luts_for_probes",),
    "flat_table": ("repro.core.encoding:build_flat_table",),
    "lut_cache": (
        "repro.core.lut_cache:LutCache.get_many",
        "repro.core.lut_cache:LutCache.put",
    ),
    "adc": ("repro.core.kernel:compute_pair_distances",),
    "dpu_topk": ("repro.core.topk:scan_topk_fast_batch_flat",),
    "charge_replay": ("repro.core.kernel:replay_batch_charges",),
    "host_topk": ("repro.ivfpq.adc:topk_from_distances",),
    "dag_execute": ("repro.sim.events:BatchWork.execute",),
    "stream_execute": ("repro.sim.events:execute_stream",),
    "tracing": ("repro.tracing.record:query_latencies",),
    "telemetry": ("repro.telemetry.pipeline:*observe_",),
    "latency_recorder": (
        "repro.metrics.latency:LatencyRecorder.percentile_ms",
        "repro.metrics.latency:LatencyRecorder.record_batch_result",
    ),
    "sanitize": ("repro.sanitize.hook:debug_sanitize_schedule",),
    "placement": ("repro.core.placement:place_clusters",),
    "refresh": ("repro.core.engine:UpANNSEngine.refresh_placement",),
    "faults": ("repro.faults:restrict_placement",),
    "admission": ("repro.serving.admission:AdmissionPolicy.decide",),
    "coalescer": (
        "repro.serving.coalescer:BatchCoalescer.enqueue",
        "repro.serving.coalescer:BatchCoalescer.drain",
        "repro.serving.coalescer:BatchCoalescer.expire",
    ),
    "train": ("repro.ivfpq.index:IVFPQIndex.train",),
    "cae_mining": (
        "repro.core.cooccurrence:mine_combinations",
        "repro.core.encoding:encode_cluster",
    ),
}

def _count_schedule(tr: "Tracer", args, out) -> None:
    tr.counts["schedule.pairs"] += out.total_pairs()


def _count_lut_cache(tr: "Tracer", args, out) -> None:
    if isinstance(out, list):  # get_many
        hits = sum(1 for t in out if t is not None)
        tr.counts["lut_cache.hits"] += hits
        tr.counts["lut_cache.misses"] += len(out) - hits
    else:  # put
        nbytes = args[0].nbytes
        if nbytes > tr.counts["lut_cache.bytes"]:
            tr.counts["lut_cache.bytes"] = nbytes


def _count_stream(tr: "Tracer", args, out) -> None:
    tr.counts["stream_execute.spans"] += sum(
        len(tl.spans) for tl in out.timelines.values()
    )


_COUNTERS = {
    "schedule": _count_schedule,
    "lut_cache": _count_lut_cache,
    "stream_execute": _count_stream,
}


class Tracer:
    """Installs the layer wrappers and accumulates calls and self times."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: (root path, node) -> self seconds; node is a layer or a path.
        self.self_by_root: dict[tuple[str, str], float] = defaultdict(float)
        #: Inclusive wall seconds of each path when it was the root.
        self.root_wall: dict[str, float] = defaultdict(float)
        self.wall: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- installation --------------------------------------------------

    def install(self) -> "Tracer":
        for name, targets in PATHS.items():
            for target in targets:
                self._install_target(name, target, is_path=True)
        for name, targets in LAYERS.items():
            for target in targets:
                self._install_target(name, target, is_path=False)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _install_target(self, node: str, target: str, *, is_path: bool) -> None:
        module_name, _, attr_path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return
        if attr_path.startswith("*"):
            prefix = attr_path[1:]
            names = [
                n
                for n, obj in vars(module).items()
                if n.startswith(prefix)
                and inspect.isfunction(obj)
                and obj.__module__ == module_name
            ]
            if not names:
                self.absent.append(target)
            for n in names:
                self._patch_function(node, module, n, is_path)
            return
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = (
                vars(owner).get(attr) if isinstance(owner, type) else None
            )
            if not inspect.isfunction(original):
                self.absent.append(target)
                return
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(node, original, is_path))
        elif inspect.isfunction(getattr(module, attr, None)):
            self._patch_function(node, module, attr, is_path)
        else:
            self.absent.append(target)

    def _patch_function(self, node, module, attr, is_path) -> None:
        """Replace a module function under every alias ``repro`` holds."""
        original = getattr(module, attr)
        wrapper = self._wrap(node, original, is_path)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, alias, original))
                    setattr(mod, alias, wrapper)

    # --- the wrapper ---------------------------------------------------

    def _wrap(self, node: str, fn, is_path: bool):
        stack = self._stack
        clock = time.perf_counter
        counter = _COUNTERS.get(node)
        tracer = self
        is_drain = fn.__name__ == "drain"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not is_path:
                return fn(*args, **kwargs)
            root = stack[0][0] if stack else node
            frame = [root, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                own = elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.root_wall[node] += elapsed
                tracer.calls[node] += 1
                tracer.self_s[node] += own
                tracer.self_by_root[(root, node)] += own
                if is_path:
                    tracer.wall[node] += elapsed
            if counter is not None:
                counter(tracer, args, out)
            if is_drain and out:
                tracer.counts["coalescer.drained"] += len(out)
                tracer.counts["coalescer.drains"] += 1
            return out

        return wrapper

    # --- reporting -----------------------------------------------------

    def per_layer(self, main_path: str) -> dict[str, float]:
        """calls / self_s / share per layer, plus path walls and counts.

        ``share`` is the layer's self time under ``main_path`` over that
        path's wall time.
        """
        main_wall = self.root_wall.get(main_path, 0.0)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = float(self.calls.get(layer, 0))
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            under = self.self_by_root.get((main_path, layer), 0.0)
            out[f"{layer}.share"] = under / main_wall if main_wall > 0 else 0.0
        for path in PATHS:
            out[f"{path}.wall_s"] = self.wall.get(path, 0.0)
            out[f"{path}.unattributed_s"] = self.self_s.get(path, 0.0)
        c = self.counts
        out["schedule.pairs"] = c["schedule.pairs"]
        looked_up = c["lut_cache.hits"] + c["lut_cache.misses"]
        out["lut_cache.hits"] = c["lut_cache.hits"]
        out["lut_cache.misses"] = c["lut_cache.misses"]
        out["lut_cache.hit_ratio"] = c["lut_cache.hits"] / looked_up if looked_up else 0.0
        out["lut_cache.bytes"] = c["lut_cache.bytes"]
        out["stream_execute.spans"] = c["stream_execute.spans"]
        drains = c["coalescer.drains"]
        out["coalescer.batch_size_mean"] = c["coalescer.drained"] / drains if drains else 0.0
        return out

    def attribution_error(self, root: str) -> float:
        """|sum of self times under ``root`` - its wall| / its wall."""
        wall = self.root_wall.get(root, 0.0)
        if wall <= 0:
            return 0.0
        total = sum(s for (r, _n), s in self.self_by_root.items() if r == root)
        return abs(total - wall) / wall

    def present_layers(self) -> set[str]:
        """Layers with at least one target resolved."""
        missing = set(self.absent)
        return {
            layer
            for layer, targets in LAYERS.items()
            if any(t not in missing for t in targets)
        }


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured cost of one wrapped call inside a path (seconds)."""
    tr = Tracer()

    def noop():
        return None

    inner = tr._wrap("probe", noop, is_path=False)
    outer = tr._wrap("probe_root", lambda: [inner() for _ in range(n)], is_path=True)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    bare = clock() - t0
    t0 = clock()
    outer()
    wrapped = clock() - t0
    return max(wrapped - bare, 0.0) / n
