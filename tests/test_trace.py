"""Tests for the span-tree run telemetry (``--trace``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import build_app
from repro.obs.export import (
    TRACE_FORMAT,
    render_run,
    trace_span_id,
    tree_shape,
)
from repro.obs.metrics import PERF
from repro.obs.spans import SPANS, SpanRecorder

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def app_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace-app")
    build_app(root, "eve_activity_tracker")
    return root / "eve_activity_tracker"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def trace_of(app_root, tmp_path, tag, *extra):
    out = tmp_path / f"{tag}.jsonl"
    proc = run_cli(str(app_root), "--trace", str(out), *extra)
    assert proc.returncode in (0, 1)
    return out.read_text()


def trace_records(text):
    return [json.loads(line) for line in text.splitlines()][1:]


class TestRecorder:
    """The recorder as the ``--trace`` export sees it: the flat records
    of a page rebuild into a tree through their parent indices."""

    def setup_method(self):
        SPANS.configure(False)

    def test_disabled_recorder_is_noop(self):
        recorder = SpanRecorder()
        with recorder.page("p.php") as page:
            with recorder.span("parse", file="x") as span:
                span.set("cache", "hit")  # must not raise
            recorder.annotate("k", "v")
        assert page.payload is None
        assert recorder._records == [] and recorder._stack == []

    def test_span_nesting_and_attrs(self):
        recorder = SpanRecorder()
        recorder.configure(True)
        with recorder.page("p.php") as page:
            with recorder.span("phase1") as phase:
                with recorder.span("image", op="addslashes"):
                    recorder.annotate("cache", "miss")
                phase.set("hotspots", 1)
        run, page_span, phase1, image = trace_records(
            render_run([page.payload])
        )
        assert page_span["attrs"] == {"page": "p.php"}
        assert (page_span["parent"], phase1["parent"], image["parent"]) == (
            run["id"], page_span["id"], phase1["id"],
        )
        assert phase1["attrs"]["hotspots"] == 1
        assert image["attrs"] == {"op": "addslashes", "cache": "miss"}

    def test_capture_isolates_enclosing_stack(self):
        recorder = SpanRecorder()
        recorder.configure(True)
        with recorder.span("outer"):
            with recorder.page("p.php") as page:
                with recorder.span("inner"):
                    pass
        assert [r["name"] for r in page.payload["spans"]] == ["page", "inner"]
        # the page root did not attach under the enclosing span
        (outer,) = recorder.drain_driver_spans()
        assert outer["name"] == "outer"

    def test_perf_delta_attached_at_exit(self):
        recorder = SpanRecorder()
        recorder.configure(True)
        PERF.reset()
        with recorder.page("p.php") as page:
            PERF.incr("parse.files", 3)
        (root,) = page.payload["spans"]
        assert root["perf"]["counters"]["parse.files"] == 3


class TestSpanIds:
    def test_deterministic_and_position_dependent(self):
        assert trace_span_id("", 0, "run") == trace_span_id("", 0, "run")
        assert trace_span_id("", 0, "run") != trace_span_id("", 1, "run")
        assert trace_span_id("a", 0, "parse") != trace_span_id("b", 0, "parse")
        assert len(trace_span_id("", 0, "run")) == 16

    def test_render_run_meta_line_first(self):
        text = render_run([], attrs={"root": "/x"})
        first = json.loads(text.splitlines()[0])
        assert first["event"] == "meta"
        assert first["format"] == TRACE_FORMAT
        assert first["attrs"] == {"root": "/x"}


class TestRunEquivalence:
    def test_serial_and_parallel_trees_same_shape(self, app_root, tmp_path):
        """The headline guarantee: a --jobs 4 run emits the same span
        tree (ids, parents, names — everything but wall-clock and the
        memo-outcome subtrees) as the serial run."""
        serial = trace_of(app_root, tmp_path, "serial", "--jobs", "1")
        parallel = trace_of(app_root, tmp_path, "parallel", "--jobs", "4")
        shape = tree_shape(serial)
        assert shape == tree_shape(parallel)
        assert len(shape) > len(list(app_root.glob("*.php")))

    def test_expected_span_names_present(self, app_root, tmp_path):
        text = trace_of(app_root, tmp_path, "names", "--jobs", "1")
        names = {name for _, _, name in tree_shape(text)}
        assert {"run", "page", "parse", "phase1", "phase2", "hotspot"} <= names

    def test_page_spans_carry_perf_deltas(self, app_root, tmp_path):
        text = trace_of(app_root, tmp_path, "perf", "--jobs", "1")
        pages = [
            json.loads(line)
            for line in text.splitlines()
            if '"name": "page"' in line
        ]
        assert pages
        analyzed = sum(
            p["perf"]["counters"].get("pages.analyzed", 0) for p in pages
        )
        assert analyzed == len(pages)

    def test_warm_cache_pages_marked(self, app_root, tmp_path):
        """Disk-cache-served pages still appear in the tree, flagged
        ``from_cache`` with no children (the work they did not do)."""
        cache = tmp_path / "cache"
        trace_of(app_root, tmp_path, "cold", "--jobs", "1",
                 "--cache-dir", str(cache))
        warm = trace_of(app_root, tmp_path, "warm", "--jobs", "1",
                        "--cache-dir", str(cache))
        spans = trace_records(warm)
        pages = [s for s in spans if s["name"] == "page"]
        assert pages and all(s["attrs"].get("from_cache") for s in pages)
        # each page's only child is the disk-cache load that served it,
        # and that load did no analysis work underneath
        page_ids = {s["id"] for s in pages}
        children = [s for s in spans if s["parent"] in page_ids]
        assert [s["name"] for s in children] == ["cache.page_load"] * len(pages)
        loads = {s["id"] for s in children}
        assert not any(s["parent"] in loads for s in spans)

    def test_hotspot_spans_record_verdict_cache(self, app_root, tmp_path):
        text = trace_of(app_root, tmp_path, "verdict", "--jobs", "1")
        hotspots = [
            json.loads(line)
            for line in text.splitlines()
            if '"name": "hotspot"' in line
        ]
        assert hotspots
        for span in hotspots:
            assert span["attrs"]["verdict_cache"] in ("hit", "miss")
            assert span["attrs"]["fingerprint"]
