"""Spans the benchmark records around calls into the analyzer's layers.

Nothing here edits the program: :func:`install` replaces a module or
class attribute with a wrapper that records a span around the original
callable, in the process that runs the analyzer (a CLI child, the
daemon, a farm worker).  Spans are kept in memory and written out once,
when the process's operation ends.

A span records its operation id, its own id, the id of the span that
caused it, the layer name, start and end (``time.perf_counter``, which
is ``CLOCK_MONOTONIC`` on Linux and so comparable across processes),
and its self time: its duration minus the time covered by its direct
child spans.  Spans nest on one thread, so the self times of one
operation's spans sum exactly to the wall of its root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

#: (span name, module, attribute path) — each layer's public entry
#: points, wrapped *as bound* in the module that calls them, so a span
#: covers exactly the calls the layer above makes.
LAYERS = (
    ("parse", "repro.analysis.stringtaint", "parse"),
    ("include.resolve", "repro.php.includes", "IncludeResolver.resolve"),
    ("include.names", "repro.php.includes", "IncludeResolver.candidate_names"),
    ("phase1", "repro.analysis.stringtaint", "StringTaintAnalysis.analyze_file"),
    ("image", "repro.analysis.absdom", "fst_image"),
    ("sample", "repro.lang.grammar", "Grammar.sample_strings"),
    ("cascade", "repro.analysis.analyzer", "check_hotspot"),
    ("intersect", "repro.analysis.policy", "intersect"),
    ("intersect", "repro.analysis.policy", "intersection_is_empty"),
    ("earley", "repro.analysis.policy", "derivability"),
    ("earley", "repro.analysis.policy", "parse_sentential_form"),
    ("audit", "repro.analysis.analyzer", "audit_page"),
    ("farm.startup", "repro.farm.driver", "AnalysisFarm.__init__"),
    ("farm.map", "repro.farm.driver", "AnalysisFarm.map_pages"),
    ("farm.shutdown", "repro.farm.driver", "AnalysisFarm.shutdown"),
    ("remediate.synthesize", "repro.remediate.engine", "synthesize_prepared"),
    ("remediate.synthesize", "repro.remediate.engine", "synthesize_sanitizer"),
    ("remediate.verify", "repro.remediate.engine", "verify_patch"),
    ("remediate.reanalysis", "repro.remediate.engine", "analyze_tree"),
    ("remediate.reanalysis", "repro.remediate.verify", "analyze_tree"),
    ("remediate.guard", "repro.remediate.engine", "compile_guard"),
    ("oracle", "repro.remediate.verify", "oracle_unconfined"),
)

#: the root span of one operation, per kind of analyzer process
ROOTS = {
    "audit": ("run_pages", "repro.analysis.cli", "run_pages"),
    "fix": ("remediate", "repro.remediate", "remediate_project"),
    "serve": ("server.request", "repro.server.daemon",
              "AnalysisDaemon.dispatch_line"),
}

#: a farm worker's whole life is one root span; the worker is forked
#: from the traced analyzer process, so it inherits every wrapper
#: installed there
WORKER_ROOT = ("farm.worker", "repro.farm.driver", "farm_worker_main")


class Tracer:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._op = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, name: str, fn, root: bool = False, new_op: bool = True):
        """``fn`` recording a span named ``name`` per call.  Outside an
        operation (no root span open on this thread) only a root wrapper
        records, so set-up work and golden re-checks stay untraced.  A
        root opens a new operation id unless ``new_op`` is false, when it
        joins the current one (a farm worker serving the operation of the
        process that forked it)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if not stack and not root:
                return fn(*args, **kwargs)
            if stack:
                op, parent = stack[-1][0], stack[-1][1]
            else:
                with tracer._lock:
                    tracer._op += new_op
                    op = tracer._op
                parent = 0
            frame = [op, tracer._new_id(), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append(
                    (op, frame[1], parent, name, start, end,
                     duration - frame[2])
                )

        return traced

    def reset(self) -> None:
        """Forget every span and open frame (a forked worker starts with
        a copy of its parent's)."""
        self.spans = []
        self._local = threading.local()

    def records(self) -> list[dict]:
        keys = ("op", "id", "parent", "name", "start", "end", "self")
        return [dict(zip(keys, span)) for span in self.spans]


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def patch(tracer: Tracer, name: str, module: str, attr_path: str,
          root: bool = False) -> None:
    owner, attr = _resolve(module, attr_path)
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), root=root))


def install(tracer: Tracer, kind: str, worker_dir: str | None = None) -> None:
    """Wrap every layer plus the root of ``kind`` (a :data:`ROOTS` key).

    With ``worker_dir``, farm workers forked from this process record
    their own spans and write them to ``worker_dir/worker-<pid>.json``
    when they exit."""
    for name, module, attr_path in LAYERS:
        patch(tracer, name, module, attr_path)
    patch(tracer, *ROOTS[kind], root=True)
    if worker_dir is None:
        return
    owner, attr = _resolve(*WORKER_ROOT[1:])
    worker_main = tracer.wrap(
        WORKER_ROOT[0], getattr(owner, attr), root=True, new_op=False
    )

    def traced_worker(*args, **kwargs):
        tracer.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            path = os.path.join(worker_dir, f"worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(tracer.records(), handle)

    setattr(owner, attr, traced_worker)


def collect_workers(worker_dir: str) -> list[dict]:
    """Spans written by exited farm workers, each tagged with its
    worker's pid."""
    spans: list[dict] = []
    files = sorted(
        name for name in os.listdir(worker_dir) if name.startswith("worker-")
    )
    for name in files:
        path = os.path.join(worker_dir, name)
        pid = int(name[len("worker-"):-len(".json")])
        with open(path, encoding="utf-8") as handle:
            spans.extend(dict(span, worker=pid) for span in json.load(handle))
        os.remove(path)
    return spans


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, summed self time and summed duration."""
    totals: dict[str, dict] = {}
    for span in spans:
        row = totals.setdefault(
            span["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += span["self"]
        row["total_s"] += span["end"] - span["start"]
    return totals
