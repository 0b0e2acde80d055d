"""The two file formats of a recorded run, both rendered from the same
per-page span payloads (:mod:`repro.obs.spans`).

``--trace out.jsonl`` — the span tree (:data:`TRACE_FORMAT`), one JSON
object per line:

``{"event": "meta", "format": "sqlciv-trace/1", ...}``
    first line; identifies the stream.
``{"event": "span", "id", "parent", "name", "start", "dur", "attrs",
   "perf"}``
    one per span, in pre-order under a synthetic ``run`` root: the page
    trees in page order, then the driver's spans.  ``start`` is seconds
    relative to the enclosing top-level span (a page, or a driver span)
    — offsets are comparable within a page, not across the pages of a
    parallel run.  ``perf`` holds the counter/timer deltas and gauge
    high-water marks seen inside the span (empty sections omitted), so
    the span deltas and the ``--profile`` table agree by construction.

Trace ids are 16 hex digits derived from the span's *position* — parent
id, child index, name — never from timestamps or memory addresses.

``--profile=timeline`` — ``timeline.json`` (:data:`TIMELINE_FORMAT`):
the same spans flattened per page under a phase tag, with a **lane**
per recording process (lane 0 is the driver; worker lanes are numbered
by first appearance in page order) and a run-relative clock, which
``sqlciv stats`` (:mod:`repro.obs.stats`) turns into a gantt and a
bottleneck report.  Timeline ids are 12 hex digits derived from
``(page, phase, occurrence index)`` — never from timestamps, pids or
lanes.  Timestamps are ``time.perf_counter()`` readings; on Linux
(``CLOCK_MONOTONIC``) they are comparable across the driver and its
workers, which is what lets one clock order spans from different
processes.

Either way, two runs that do the same work in the same order — a serial
and a ``--jobs N`` run, or two cold reruns — produce the same ids.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

TRACE_FORMAT = "sqlciv-trace/1"
TIMELINE_FORMAT = "sqlciv-timeline/1"

#: span names whose presence depends on process-local memo state (an
#: image-cache or verdict-memo hit in one process is a miss in another)
MEMO_OUTCOME_SPANS = ("image.construct", "image.rebind", "cascade:")


def trace_span_id(parent_id: str, index: int, name: str) -> str:
    """Deterministic trace id for the ``index``-th child named ``name``."""
    seed = f"{parent_id}/{index}:{name}".encode("utf-8", errors="replace")
    return hashlib.sha256(seed).hexdigest()[:16]


def timeline_span_id(page: str, phase: str, occurrence: int) -> str:
    """Deterministic timeline id: the page, the phase name, and the
    phase's occurrence ordinal within the page."""
    seed = f"{page}|{phase}|{occurrence}".encode("utf-8", errors="replace")
    return hashlib.sha256(seed).hexdigest()[:12]


def _trace_lines(records: list[dict], parent_id: str, first_index: int):
    """JSONL span lines for a pre-order record list whose top-level
    records are children ``first_index, first_index + 1, …`` of
    ``parent_id``."""
    ids: list[str] = []
    bases: list[float] = []
    children = [0] * len(records)
    top = first_index
    for record in records:
        parent = record["parent"]
        if parent is None:
            sid = trace_span_id(parent_id, top, record["name"])
            top += 1
            bases.append(record["start"])
        else:
            sid = trace_span_id(ids[parent], children[parent], record["name"])
            children[parent] += 1
            bases.append(bases[parent])
        ids.append(sid)
        line = {
            "event": "span",
            "id": sid,
            "parent": parent_id if parent is None else ids[parent],
            "name": record["name"],
            "start": round(record["start"] - bases[-1], 6),
            "dur": round(record["end"] - record["start"], 6),
            "attrs": record["attrs"],
        }
        if record.get("perf"):
            line["perf"] = record["perf"]
        yield json.dumps(line)


def render_run(page_payloads: list[dict | None],
               driver_spans: list[dict] | None = None,
               attrs: dict | None = None) -> str:
    """The ``--trace`` JSONL document for one run.

    ``page_payloads`` are the per-page recordings **in page order**;
    ``None`` entries (a page analyzed with recording off) are skipped.
    """
    pages = [payload["spans"] for payload in page_payloads if payload]
    driver_spans = driver_spans or []
    root_id = trace_span_id("", 0, "run")
    lines = [
        json.dumps({"event": "meta", "format": TRACE_FORMAT,
                    "attrs": attrs or {},
                    "spans_clock": "seconds relative to the enclosing "
                                   "top-level span"}),
        json.dumps({"event": "span", "id": root_id, "parent": None,
                    "name": "run", "start": 0.0,
                    "dur": round(sum(s[0]["end"] - s[0]["start"]
                                     for s in pages), 6),
                    "attrs": {"pages": len(pages)}}),
    ]
    for index, records in enumerate(pages):
        lines.extend(_trace_lines(records, root_id, index))
    lines.extend(_trace_lines(driver_spans, root_id, len(pages)))
    return "\n".join(lines) + "\n"


def write_run(path: str | Path, page_payloads: list[dict | None],
              driver_spans: list[dict] | None = None,
              attrs: dict | None = None) -> None:
    Path(path).write_text(render_run(page_payloads, driver_spans, attrs),
                          encoding="utf-8")


def tree_shape(jsonl_text: str) -> list[tuple]:
    """The scheduling-invariant shape of a trace: ``(id, parent, name)``
    per span line, in stream order, leaving out the subtrees named in
    :data:`MEMO_OUTCOME_SPANS`.  Serial and parallel runs over the same
    project must agree on this."""
    shape = []
    memo_ids: set[str] = set()
    for line in jsonl_text.splitlines():
        record = json.loads(line) if line.strip() else {}
        if record.get("event") != "span":
            continue
        if (record["parent"] in memo_ids
                or record["name"].startswith(MEMO_OUTCOME_SPANS)):
            memo_ids.add(record["id"])
            continue
        shape.append((record["id"], record["parent"], record["name"]))
    return shape


def _timeline_spans(records: list[dict], page: str, t0: float,
                    shift: int) -> list[dict]:
    """Timeline span records; ``shift`` drops that many leading records
    (the page span, which the timeline keeps as the page's bounds)."""
    counts: dict[str, int] = {}
    out = []
    for record in records[shift:]:
        phase = record["name"]
        occurrence = counts.get(phase, 0)
        counts[phase] = occurrence + 1
        parent = record["parent"]
        span = {
            "id": timeline_span_id(page, phase, occurrence),
            "phase": phase,
            "parent": None if parent is None or parent < shift
            else parent - shift,
            "start": round(record["start"] - t0, 6),
            "dur": round(record["end"] - record["start"], 6),
        }
        if record["attrs"]:
            span["meta"] = record["attrs"]
        out.append(span)
    return out


def assemble(page_payloads: list[dict | None],
             driver_spans: list[dict] | None = None,
             attrs: dict | None = None) -> dict:
    """The ``timeline.json`` document for one run.

    ``page_payloads`` are the per-page recordings **in page order**
    (``None`` entries are skipped).  Lane 0 is the driver process;
    worker lanes are numbered by first appearance in page order, so the
    lane layout is a pure function of the page→worker assignment.
    """
    driver_spans = driver_spans or []
    payloads = [payload for payload in page_payloads if payload]
    bounds = [(p["spans"][0]["start"], p["spans"][0]["end"])
              for p in payloads]
    bounds += [(s["start"], s["end"]) for s in driver_spans]
    t0 = min(start for start, _ in bounds) if bounds else 0.0
    wall = max(end for _, end in bounds) - t0 if bounds else 0.0

    lane_of = {os.getpid(): 0}
    lanes = [{"lane": 0, "pid": os.getpid(), "role": "driver"}]
    pages = []
    for payload in payloads:
        pid = payload["pid"]
        if pid not in lane_of:
            lane_of[pid] = len(lanes)
            lanes.append({"lane": len(lanes), "pid": pid, "role": "worker"})
        root = payload["spans"][0]
        name = root["attrs"]["page"]
        pages.append({
            "page": name,
            "lane": lane_of[pid],
            "start": round(root["start"] - t0, 6),
            "dur": round(root["end"] - root["start"], 6),
            "spans": _timeline_spans(payload["spans"], name, t0, 1),
        })

    return {
        "format": TIMELINE_FORMAT,
        "attrs": attrs or {},
        "wall_seconds": round(wall, 6),
        "lanes": lanes,
        "driver_spans": _timeline_spans(driver_spans, "<driver>", t0, 0),
        "pages": pages,
    }


def write_timeline(path: str | Path, timeline: dict) -> None:
    Path(path).write_text(json.dumps(timeline) + "\n", encoding="utf-8")


def load_timeline(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("format") != TIMELINE_FORMAT:
        raise ValueError(
            f"{path} is not a {TIMELINE_FORMAT} document "
            f"(format={data.get('format') if isinstance(data, dict) else None!r})"
        )
    return data
