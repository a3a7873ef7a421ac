"""SCHED001 — spans enter timelines only via ``BatchSchedule.record*``.

``BatchSchedule.record`` / ``record_at`` (driven by the event core from
``BatchWork`` descriptions) are the only constructors that keep the
simulator's invariants: they clamp starts against per-resource lane ends
(no double-booking by construction), carry DPU durations derived from
cycles at the configured frequency, and keep the derived ledgers (``BatchTiming``,
``StageCycles``) consistent with the spans.  A hand-built
``Span(...)`` appended to a timeline outside :mod:`repro.sim` bypasses
all of that — it is exactly the class of bug the simsan dynamic checker
(:mod:`repro.sanitize`) exists to catch at runtime; this rule catches
it at lint time.

Flagged outside ``sched-allowed-paths`` (default ``repro/sim/``):

* any call spelled ``Span(...)`` (bare name or ``span.Span`` /
  ``sim.Span`` attribute);
* any ``<expr>.spans.append(...)`` / ``.extend(...)`` / ``.insert(...)``
  — mutating a timeline's span list directly.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_MUTATORS = frozenset({"append", "extend", "insert"})


def _is_span_constructor(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "Span"
    if isinstance(func, ast.Attribute):
        return func.attr == "Span"
    return False


def _is_spans_mutation(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr in _MUTATORS
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "spans"
    )


@register
class SpanRecordingRule(Rule):
    rule_id = "SCHED001"
    summary = (
        "spans must be recorded via BatchSchedule.record*, not "
        "hand-constructed outside repro.sim"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.config.is_sched_recorder_site(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_span_constructor(node.func):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "hand-constructed Span outside repro.sim — record it "
                    "with BatchSchedule.record()/record_at() (or describe "
                    "it via BatchWork) so lane clamping and derived "
                    "ledgers stay correct",
                )
            elif _is_spans_mutation(node.func):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "direct mutation of a timeline's .spans list bypasses "
                    "the non-overlap clamp — use BatchSchedule.record* "
                    "(or build the timeline inside repro.sim)",
                )
