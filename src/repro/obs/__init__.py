"""repro.obs — the observability layer (pvars, spans, exporters).

MPI_T-inspired metrics plus structured spans with Chrome-trace export,
instrumenting the whole stack through explicit ``obs`` hook points (no
monkey-patching).  See DESIGN notes in each module; the public surface:

* :func:`instrument` / :class:`Instrumentation` — attach to a
  RankContext or MotorVM; ``enabled=False`` keeps the probes compiled in
  but dormant (the A11 ablation's configuration);
* :func:`merge_snapshots` / :func:`cluster_snapshot` — one merged
  per-run report, in-process or via ``gather_bytes``;
* :func:`chrome_trace` / :func:`write_chrome_trace` — chrome://tracing
  JSON; :func:`render_timeline` / :func:`render_metrics` /
  :func:`render_report` — aligned text.
"""

from repro.obs.aggregate import cluster_snapshot, merge_snapshots, render_report
from repro.obs.export import (
    chrome_trace,
    render_metrics,
    render_timeline,
    write_chrome_trace,
)
from repro.obs.instrument import (
    Instrumentation,
    attach_engine,
    attach_gc,
    attach_vm,
    detach,
    detach_all,
    instrument,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.spans import EventRecord, SpanRecord, SpanRecorder

__all__ = [
    "Counter",
    "EventRecord",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "SpanRecord",
    "SpanRecorder",
    "attach_engine",
    "attach_gc",
    "attach_vm",
    "chrome_trace",
    "cluster_snapshot",
    "detach",
    "detach_all",
    "instrument",
    "merge_snapshots",
    "render_metrics",
    "render_report",
    "render_timeline",
    "write_chrome_trace",
]
