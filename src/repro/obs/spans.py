"""The span recorder: one instrument behind ``--trace``, the timeline and
the metrics timers.

Every instrumented block of the pipeline is one ``with
SPANS.span(name, metric=...)``.  The ``metric`` timer of
:data:`~repro.obs.metrics.PERF` is fed on every run; the span itself is
recorded only while recording is on (``--trace`` or
``--profile=timeline``), as a flat record

``{"name", "parent", "start", "end", "attrs"[, "perf"]}``

where ``parent`` is the index of the enclosing record (``None`` at top
level), ``start``/``end`` are ``time.perf_counter()`` readings and
``perf`` is the :meth:`~repro.obs.metrics.MetricsRegistry.diff` seen
while the span was open — its own metric timer included, gauges only
where the span raised their high-water mark, omitted when nothing
moved.  Records are appended when a span opens, so a record
list is the pre-order of its span tree.

A page is the unit of recording: :meth:`SpanRecorder.page` opens a root
``page`` record isolated from whatever is open around it, and its
payload — ``{"pid", "spans"}``, record 0 being the page span — travels
home inside the picklable :class:`~repro.analysis.analyzer.PageResult`
from whichever process ran the page.  Spans recorded outside any page
(the driver's directory scan, project-state hash) accumulate until
:meth:`SpanRecorder.drain_driver_spans`.  :mod:`repro.obs.export`
renders the same payloads as either file format.

Recording is off by default; a disabled span costs one attribute check
plus its metric timer.  By construction (DESIGN 5i) recording never
changes an analysis output byte.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.obs.metrics import PERF


class _Unrecorded:
    """A span while recording is off: it feeds only its metric timer."""

    __slots__ = ("metric", "started")

    #: what a page capture hands over when nothing was recorded
    payload = None

    def __init__(self, metric: str | None) -> None:
        self.metric = metric

    def __enter__(self) -> "_Unrecorded":
        if self.metric is not None:
            self.started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.metric is not None:
            PERF.add_time(self.metric, perf_counter() - self.started)

    def set(self, key: str, value) -> None:
        pass


_NULL = _Unrecorded(None)


class _Span:
    """A recorded span: appends its record on entry, closes it on exit."""

    __slots__ = ("recorder", "record", "metric", "before")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 metric: str | None, attrs: dict) -> None:
        self.recorder = recorder
        self.metric = metric
        self.record = {"name": name, "parent": None, "start": 0.0,
                       "end": 0.0, "attrs": attrs}

    def __enter__(self) -> "_Span":
        recorder, record = self.recorder, self.record
        if recorder._stack:
            record["parent"] = recorder._stack[-1]
        recorder._stack.append(len(recorder._records))
        recorder._records.append(record)
        self.before = PERF.snapshot()
        record["start"] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        record = self.record
        record["end"] = end = perf_counter()
        if self.metric is not None:
            PERF.add_time(self.metric, end - record["start"])
        delta = PERF.diff(self.before)
        # only the high-water marks this span raised, not every gauge
        marks = self.before["gauges"]
        delta["gauges"] = {
            k: v for k, v in delta["gauges"].items() if marks.get(k) != v
        }
        delta = {k: v for k, v in delta.items() if v}
        if delta:
            record["perf"] = delta
        self.recorder._stack.pop()

    def set(self, key: str, value) -> None:
        self.record["attrs"][key] = value


class _PageSpan(_Span):
    """The root ``page`` span, recorded into a fresh record list."""

    __slots__ = ("saved", "payload")

    def __enter__(self) -> "_PageSpan":
        recorder = self.recorder
        self.saved = (recorder._records, recorder._stack)
        recorder._records, recorder._stack = [], []
        return super().__enter__()

    def __exit__(self, *exc) -> None:
        super().__exit__(*exc)
        recorder = self.recorder
        self.payload = {"pid": os.getpid(), "spans": recorder._records}
        recorder._records, recorder._stack = self.saved


class SpanRecorder:
    """The process-wide recorder (:data:`SPANS`).

    ``enabled`` gates recording; the open-span stack holds indices into
    the current record list (a page's, or the driver's outside pages).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._records: list[dict] = []
        self._stack: list[int] = []

    def configure(self, enabled: bool) -> None:
        self.enabled = enabled
        self._records, self._stack = [], []

    def span(self, name: str, metric: str | None = None, **attrs):
        """A span under the innermost open one; ``metric`` names the
        :data:`PERF` timer its elapsed time is added to, recorded or
        not.  The context value supports ``.set(key, value)``."""
        if self.enabled:
            return _Span(self, name, metric, attrs)
        return _NULL if metric is None else _Unrecorded(metric)

    def page(self, page: str):
        """The ``page`` root span, isolated from the enclosing stack;
        after the block its ``.payload`` is the page's recording (None
        while recording is off)."""
        if self.enabled:
            return _PageSpan(self, "page", None, {"page": page})
        return _NULL

    def annotate(self, key: str, value) -> None:
        """Set an attribute on the innermost open span, if any: leaf
        code reports cache outcomes without knowing the spans above."""
        if self.enabled and self._stack:
            self._records[self._stack[-1]]["attrs"][key] = value

    def drain_driver_spans(self) -> list[dict]:
        """Hand over (and clear) the records made outside any page."""
        records, self._records, self._stack = self._records, [], []
        return records


#: The process-wide recorder; farm workers follow the driver's setting
#: per task and ship each page's payload home inside its PageResult.
SPANS = SpanRecorder()


def add_late_span(payload: dict, name: str, start: float, end: float,
                  **attrs) -> None:
    """Append a page-span child that ran after the page closed (the
    ``pickle`` of its result for the trip home) and stretch the page
    span over it."""
    payload["spans"].append({"name": name, "parent": 0, "start": start,
                             "end": end, "attrs": attrs})
    page = payload["spans"][0]
    page["end"] = max(page["end"], end)
