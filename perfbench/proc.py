"""One analyzer process of the benchmark, driven over stdin/stdout.

``python3 perfbench/proc.py audit|fix [--trace DIR | --calibrate DIR]``
imports the analyzer, prints a ready line, reads one job line from
stdin, runs it, prints one result line and exits (without a job line,
it exits after the ready line).  The parent times spawn → ready as
set-up, so the job's own wall excludes interpreter start-up.

* ``audit`` job ``{"root", "jobs"}``: the ``sqlciv --json`` CLI
  (``repro.analysis.cli.main``) on ``root``; the result carries the
  exact stdout document, the exit code and the wall and ``window``
  (start, end) of the CLI's ``run_pages`` call.
* ``fix`` job ``{"root", "check"}``: ``remediate_project(root,
  apply=True, oracle=True)``; then, untimed, a digest of the patched
  tree and, with ``check``, its ``--json`` document for the golden
  check.

``python3 perfbench/proc.py serve [--trace DIR | --calibrate DIR] --
<sqlciv serve args>`` runs the daemon itself (it prints its own ready
line) and, traced, writes its spans to ``DIR/serve.json`` when it
stops.

With ``--trace DIR`` the layer wrappers of :mod:`spans` are installed
after the ready line, so set-up is the same traced or not; farm workers
forked by a traced audit write their spans into ``DIR`` too.  With
``--calibrate DIR`` the reference kernel of :mod:`calib` runs at the
end of set-up and before every page and farm task instead; the ready
line and the result carry its samples as ``ref`` (``serve`` writes them
to ``DIR/serve-ref.json`` when it stops).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import calib
import spans


def _timed(fn, box: list):
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            box.append((started, time.perf_counter()))

    return timed


def _peak_kb() -> int:
    """The largest peak RSS, in KiB, of this process and the children
    it has reaped (farm workers, the farm's memo service)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _json_document(root: str) -> str:
    from repro.analysis.analyzer import entry_pages, run_pages
    from repro.analysis.reports import json_document

    results = run_pages(root, entry_pages(root), audit=True, jobs=1)
    return json.dumps(json_document(root, results), indent=2) + "\n"


def run_audit(job: dict, traced: bool) -> dict:
    from repro.analysis import cli
    from repro.obs.metrics import PERF

    walls: list[tuple[float, float]] = []
    cli.run_pages = _timed(cli.run_pages, walls)
    # traced farm runs add --profile: the farm's IPC byte accounting
    # only runs under it
    profiled = traced and job["jobs"] > 1
    argv = [job["root"], "--json", "--jobs", str(job["jobs"]),
            "--log-level", "quiet"] + (["--profile"] if profiled else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    document = out.getvalue()
    if profiled:
        parsed = json.loads(document)
        del parsed["perf"]
        document = json.dumps(parsed, indent=2) + "\n"
    started, finished = walls[0]
    return {"exit": code, "wall": finished - started,
            "window": [started, finished], "document": document,
            "perf": PERF.snapshot()}


def _tree_digest(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def run_fix(job: dict, traced: bool) -> dict:
    import repro.remediate
    from repro.obs.metrics import PERF

    started = time.perf_counter()
    repro.remediate.remediate_project(job["root"], apply=True, oracle=True)
    finished = time.perf_counter()
    # measured before the golden re-analysis below, which is not the fix's
    result = {"exit": 0, "wall": finished - started,
              "window": [started, finished], "peak_kb": _peak_kb(),
              "perf": PERF.snapshot(), "tree": _tree_digest(job["root"])}
    if job["check"]:
        result["document"] = _json_document(job["root"])
    return result


#: per job kind: the module whose import ends set-up, and the runner
JOBS = {"audit": ("repro.analysis.cli", run_audit),
        "fix": ("repro.remediate", run_fix)}


def serve(argv: list[str], mode: str | None, out_dir: str | None) -> int:
    from repro.server.daemon import serve_main

    tracer = calibrator = None
    if mode == "--trace":
        tracer = spans.Tracer()
        spans.install(tracer, "serve")
    elif mode == "--calibrate":
        calibrator = calib.Calibrator()
        calib.sample_setup(calibrator)
        calib.install(calibrator)
    try:
        return serve_main(argv)
    finally:
        if tracer is not None:
            path = os.path.join(out_dir, "serve.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(tracer.records(), handle)
        if calibrator is not None:
            path = os.path.join(out_dir, "serve-ref.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(calibrator.samples, handle)


def main(argv: list[str]) -> int:
    kind, rest = argv[0], argv[1:]
    mode = out_dir = None
    if rest[:1] in (["--trace"], ["--calibrate"]):
        mode, out_dir, rest = rest[0], rest[1], rest[2:]
    if kind == "serve":
        return serve(rest[1:] if rest[:1] == ["--"] else rest, mode, out_dir)
    module, runner = JOBS[kind]
    importlib.import_module(module)
    ready = {"ready": os.getpid()}
    tracer = calibrator = None
    if mode == "--calibrate":
        calibrator = calib.Calibrator()
        ready["ref"] = calib.sample_setup(calibrator)
    print(json.dumps(ready), flush=True)

    if mode == "--trace":
        tracer = spans.Tracer()
        spans.install(tracer, kind, worker_dir=out_dir)
    elif mode == "--calibrate":
        calib.install(calibrator, worker_dir=out_dir)
    line = sys.stdin.readline()
    if not line.strip():  # a set-up launch: ready, then no job
        return 0
    job = json.loads(line)
    try:
        result = runner(job, tracer is not None)
    except Exception as exc:  # reported to the parent as a failed op
        result = {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
    result.setdefault("peak_kb", _peak_kb())
    if tracer is not None:
        result["spans"] = tracer.records() + spans.collect_workers(out_dir)
    if calibrator is not None:
        result["ref"] = calibrator.samples + calib.collect_workers(out_dir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
