"""Unified observability layer: metrics, spans, exports, exposition.

* :mod:`repro.obs.metrics` — the typed metrics registry behind the
  process-wide :data:`~repro.obs.metrics.PERF` singleton: counters,
  timers, gauges, and **fixed-bucket histograms** (phase durations,
  grammar sizes, memo lookup latencies).  Snapshots are plain dicts, so
  a farm worker's per-task delta pickles home inside its result
  envelope and the driver merges the deltas deterministically.
* :mod:`repro.obs.spans` — the one span recorder
  (:data:`~repro.obs.spans.SPANS`): each instrumented block feeds its
  ``PERF`` timer and, while recording is on, a flat per-page span
  record.
* :mod:`repro.obs.export` — the two renderings of those records: the
  ``--trace`` span tree (JSON lines) and the ``--profile=timeline``
  worker-lane ``timeline.json``.
* :mod:`repro.obs.stats` — ``sqlciv stats timeline.json``: a text gantt
  plus the bottleneck report that names the dominant phase and the
  serial fraction of a parallel run.
* :mod:`repro.obs.prometheus` — Prometheus text-format exposition of a
  metrics snapshot (the daemon's ``--metrics-addr`` endpoint).

Everything here is observation only: with every instrument enabled, the
analysis outputs (``--json``, ``--sarif``, exit codes) are byte-for-byte
identical to an uninstrumented run (DESIGN 5i).
"""

from .export import TIMELINE_FORMAT, TRACE_FORMAT
from .metrics import PERF, MetricsRegistry, render_table
from .spans import SPANS

__all__ = [
    "PERF",
    "MetricsRegistry",
    "render_table",
    "SPANS",
    "TIMELINE_FORMAT",
    "TRACE_FORMAT",
]
