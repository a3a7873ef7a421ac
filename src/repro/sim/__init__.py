"""Timeline execution core: work DAGs, spans, per-resource schedules.

Engines describe timed work as a :class:`BatchWork` DAG via
:meth:`BatchWork.work`; the discrete-event core (:class:`EventEngine`,
:func:`execute_stream` for multi-batch streams) executes it into
:class:`Span` events on per-resource timelines.  Everything downstream —
the legacy :class:`BatchTiming` scalars, stage breakdowns, overlap
modes, Chrome-trace export — is derived from the executed schedule.
"""

from repro.sim.events import (
    OVERLAP_MODES,
    BatchWork,
    EventEngine,
    LaneStats,
    WorkItem,
    execute_stream,
)
from repro.sim.schedule import (
    STAGE_AGGREGATE,
    STAGE_CANCEL,
    STAGE_CLUSTER_FILTER,
    STAGE_RETRY,
    STAGE_SCHEDULE,
    STAGE_SHED,
    STAGE_TRANSFER_IN,
    STAGE_TRANSFER_OUT,
    BatchSchedule,
    BatchTiming,
)
from repro.sim.span import (
    HOST_AGG,
    HOST_CPU,
    NETWORK,
    PIM_BUS,
    ResourceTimeline,
    Span,
    SpanTrace,
    dpu_resource,
    is_dpu_resource,
)
from repro.sim.trace import chrome_trace, validate_chrome_trace


__all__ = [
    "BatchSchedule",
    "BatchTiming",
    "BatchWork",
    "EventEngine",
    "HOST_AGG",
    "HOST_CPU",
    "LaneStats",
    "NETWORK",
    "OVERLAP_MODES",
    "PIM_BUS",
    "ResourceTimeline",
    "STAGE_AGGREGATE",
    "STAGE_CANCEL",
    "STAGE_CLUSTER_FILTER",
    "STAGE_RETRY",
    "STAGE_SCHEDULE",
    "STAGE_SHED",
    "STAGE_TRANSFER_IN",
    "STAGE_TRANSFER_OUT",
    "Span",
    "SpanTrace",
    "WorkItem",
    "chrome_trace",
    "dpu_resource",
    "execute_stream",
    "is_dpu_resource",
    "validate_chrome_trace",
]
