"""Telemetry end-to-end: byte-identity, merge determinism, stable ids.

Contracts on real corpus applications:

* **byte-identity** — ``--trace`` and ``--profile=timeline`` together
  must not perturb a single byte of the ``--json`` document (beyond the
  opt-in ``perf`` block) or of the SARIF log;
* **one recording, two exports** — the ``--trace`` JSONL and
  ``timeline.json`` of one run hold the same spans, page by page;
* **merge determinism** — counters whose totals are a function of the
  analyzed work (not of which worker did it) agree across ``--jobs``
  settings and across reruns.  Per-worker memo *splits* (hit vs miss)
  legitimately vary with scheduling; the lookup totals don't;
* **span-id stability** — rerunning the same project from cold caches
  yields the same span ids page for page (they encode (page, phase,
  occurrence), never time, pid, or lane);
* **phases match the code** — include resolution and interpretation of
  the included bodies are separate spans, one ``include.resolve`` per
  :meth:`~repro.php.includes.IncludeResolver.resolve` call.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.analyzer import entry_pages, run_pages
from repro.analysis.policy import VERDICT_CACHE
from repro.corpus import build_app
from repro.lang.image import IMAGE_CACHE
from repro.obs.export import assemble
from repro.obs.metrics import PERF
from repro.obs.spans import SPANS
from repro.php.includes import IncludeResolver

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def app_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry-app")
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


def _cold_run(app_root, jobs, audit=True):
    """One in-process analysis from cold memos; returns the results."""
    VERDICT_CACHE.clear()
    IMAGE_CACHE.clear()
    PERF.reset()
    return run_pages(app_root, entry_pages(app_root), audit=audit, jobs=jobs)


class TestByteIdentity:
    def test_profiling_perturbs_neither_json_nor_sarif(
        self, app_root, tmp_path
    ):
        plain_sarif = tmp_path / "plain.sarif"
        profiled_sarif = tmp_path / "profiled.sarif"
        timeline_out = tmp_path / "timeline.json"
        trace_out = tmp_path / "trace.jsonl"
        plain = run_cli(
            str(app_root), "--json", "--jobs", "2",
            "--sarif", str(plain_sarif),
        )
        profiled = run_cli(
            str(app_root), "--json", "--jobs", "2",
            "--sarif", str(profiled_sarif),
            "--profile=timeline", "--timeline-out", str(timeline_out),
            "--trace", str(trace_out),
        )
        assert plain.returncode == profiled.returncode

        plain_doc = json.loads(plain.stdout)
        profiled_doc = json.loads(profiled.stdout)
        assert "perf" in profiled_doc  # the opt-in block is present…
        profiled_doc.pop("perf")
        # …and is the only difference, to the byte
        assert (
            json.dumps(profiled_doc, indent=2)
            == json.dumps(plain_doc, indent=2)
        )
        assert profiled_sarif.read_bytes() == plain_sarif.read_bytes()

        timeline = json.loads(timeline_out.read_text())
        assert timeline["format"] == "sqlciv-timeline/1"
        assert len(timeline["pages"]) == len(plain_doc["pages"])
        assert trace_out.read_text().startswith('{"event": "meta"')


class TestOneRecordingTwoExports:
    def test_trace_and_timeline_hold_the_same_spans_per_page(
        self, app_root, tmp_path
    ):
        trace_out = tmp_path / "trace.jsonl"
        timeline_out = tmp_path / "timeline.json"
        proc = run_cli(
            str(app_root), "--jobs", "2", "--trace", str(trace_out),
            "--profile=timeline", "--timeline-out", str(timeline_out),
        )
        assert proc.returncode in (0, 1), proc.stderr

        records = [json.loads(line) for line in trace_out.read_text().splitlines()]
        spans = {r["id"]: r for r in records if r.get("event") == "span"}
        run_id = next(r["id"] for r in spans.values() if r["name"] == "run")

        def page_of(span):
            while span["parent"] != run_id:
                span = spans[span["parent"]]
            return span["attrs"].get("page")

        traced: dict[str, Counter] = {}
        for span in spans.values():
            if span["name"] not in ("run", "page"):
                traced.setdefault(page_of(span), Counter())[span["name"]] += 1

        timeline = json.loads(timeline_out.read_text())
        timed = {
            page["page"]: Counter(s["phase"] for s in page["spans"])
            for page in timeline["pages"]
        }
        driver = Counter(s["phase"] for s in timeline["driver_spans"])
        assert {p for p in traced if p is not None} == set(timed)
        for page, names in timed.items():
            assert traced[page] == names, page
        assert traced[None] == driver == Counter({"scan": 1})
        # the parallel run ships each page home with its pickle span
        assert all(names["pickle"] == 1 for names in timed.values())


class TestIncludePhases:
    def test_resolution_and_interpretation_are_separate_spans(
        self, tmp_path, monkeypatch
    ):
        """e107 resolves dynamic includes: every resolver call is one
        ``include.resolve`` span, and the included bodies run under
        ``include.interpret``."""
        build_app(tmp_path, "e107")
        root = tmp_path / "e107"
        calls = []
        resolve = IncludeResolver.resolve

        def counted(self, *args, **kwargs):
            calls.append(args[2])
            return resolve(self, *args, **kwargs)

        monkeypatch.setattr(IncludeResolver, "resolve", counted)
        SPANS.configure(True)
        try:
            results = _cold_run(root, jobs=1)
            timeline = assemble([r.spans for r in results])
        finally:
            SPANS.configure(False)
            PERF.reset()
        phases = Counter(
            span["phase"] for page in timeline["pages"] for span in page["spans"]
        )
        assert phases["include.resolve"] == len(calls) > 0
        assert 0 < phases["include.interpret"] <= phases["include.resolve"]
        assert "include" not in phases
        dynamic = [
            span for page in timeline["pages"] for span in page["spans"]
            if span["phase"] == "include.resolve"
            and span["meta"]["resolved"] > 1
        ]
        assert dynamic, "e107 has includes that resolve to several files"


class TestMergeDeterminism:
    def _invariants(self, counters):
        """Totals that depend on the work, not on who did it."""
        return {
            "pages.analyzed": counters.get("pages.analyzed"),
            "verdict.lookups": (
                counters.get("policy.verdict_cache.hits", 0)
                + counters.get("policy.verdict_cache.misses", 0)
            ),
            "image.lookups": (
                counters.get("image.cache.hits", 0)
                + counters.get("image.cache.misses", 0)
            ),
        }

    def test_totals_agree_across_jobs_and_reruns(self, app_root):
        _cold_run(app_root, jobs=1)
        serial = PERF.snapshot()["counters"]
        _cold_run(app_root, jobs=2)
        parallel_a = PERF.snapshot()["counters"]
        _cold_run(app_root, jobs=2)
        parallel_b = PERF.snapshot()["counters"]
        PERF.reset()

        assert serial["pages.analyzed"] > 0
        assert (
            self._invariants(serial)
            == self._invariants(parallel_a)
            == self._invariants(parallel_b)
        )


class TestSpanIdStability:
    def test_rerun_from_cold_caches_reproduces_every_span_id(
        self, app_root
    ):
        def ids_by_page():
            SPANS.configure(True)
            try:
                results = _cold_run(app_root, jobs=1)
                timeline = assemble(
                    [r.spans for r in results],
                    SPANS.drain_driver_spans(),
                )
            finally:
                SPANS.configure(False)
                PERF.reset()
            return {
                page["page"]: [span["id"] for span in page["spans"]]
                for page in timeline["pages"]
            }

        first = ids_by_page()
        second = ids_by_page()
        assert first and first == second
        assert all(ids for ids in first.values())
