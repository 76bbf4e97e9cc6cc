"""repro.obs — transaction-span observability.

The instrumentation layer of the simulator: one hub that appends every
observation to the cluster's trace once and, when they are read, folds
per-transaction spans and a metrics registry from the same records,
plus exporters (JSONL + Chrome ``trace_event`` for Perfetto).  See
``docs/observability.md``.

Most code interacts with this package through the
:class:`Observability` hub a :class:`~repro.mds.cluster.Cluster` owns
(``cluster.obs``) and the top-level facade ``repro.trace(cluster)`` /
``repro.metrics(cluster)``.
"""

from repro.obs.span import (
    ABORTED,
    COMMITTED,
    COORDINATOR,
    OPEN,
    PROTOCOL_MSG_KINDS,
    UNCLOSED,
    WORKER,
    Span,
    SpanCollector,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.hub import Observability
from repro.obs.export import (
    chrome_trace,
    dump_spans,
    load_spans,
    span_to_dict,
    validate_trace_event,
    write_chrome_trace,
)

__all__ = [
    "Observability",
    "PROTOCOL_MSG_KINDS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanCollector",
    "COORDINATOR",
    "WORKER",
    "OPEN",
    "COMMITTED",
    "ABORTED",
    "UNCLOSED",
    "chrome_trace",
    "dump_spans",
    "load_spans",
    "span_to_dict",
    "validate_trace_event",
    "write_chrome_trace",
]
