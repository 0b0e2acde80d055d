"""The four workloads, each a closed loop of operations in cycles.

A *session* builds its inputs, runs cycles until its time is up (at
least one whole cycle), and returns every operation it attempted.  A
cycle is a fixed list drawn from the seed, so a longer session repeats
the same inputs rather than drawing different ones, and per-input
medians do not depend on how many cycles fit.

Every result is compared byte for byte with its checked-in golden after
the same path normalization the repository's golden tests use; a
mismatch, an exception or an internal-error exit fails the operation,
and a failed operation keeps its wall in the timing set.

In untraced sessions the analyzer processes run the reference kernel of
:mod:`calib`; an operation's ``wall`` is then its wall without the
kernel's time and ``cal`` its calibrated wall.  An untraced operation
that ran no kernel sample cannot be calibrated and fails.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
from metrics import all_ops


#: the five corpus applications, in Table 1 order
APPS = (
    "e107",
    "eve_activity_tracker",
    "tiger_php_news",
    "utopia_news_pro",
    "warp_cms",
)

#: the apps whose patched trees have checked-in goldens
FIX_APPS = ("eve_activity_tracker", "tiger_php_news")

#: exit codes of a finished audit (0 verified, 1 violations, 3 caveats)
AUDIT_EXITS = (0, 1, 3)

#: daemon-edit: daemon launches per session; set-up is their median
DAEMON_LAUNCHES = 9

#: the other workloads: set-up-only analyzer launches per session,
#: besides one per operation; set-up is the median over all of them
SETUP_LAUNCHES = 8

#: no analyzer operation of these inputs takes near this long
OP_TIMEOUT_S = 150.0

HERE = Path(__file__).resolve().parent


def golden_path(checkout: Path, app: str, fixed: bool = False) -> Path:
    if fixed:
        return checkout / "tests" / "remediate" / "golden" / f"{app}.fixed.json"
    return checkout / "tests" / "analysis" / "golden" / f"{app}.json"


def golden_mismatch(document: str, root: Path, golden: Path) -> str | None:
    """None when ``document`` (a ``--json`` rendering, trailing newline
    included) equals ``golden`` once ``root`` reads ``<ROOT>``; else a
    one-line reason."""
    rendered = document.replace(str(root), "<ROOT>")
    expected = golden.read_text(encoding="utf-8")
    if rendered == expected:
        return None
    for line_no, (got, want) in enumerate(
        zip(rendered.splitlines(), expected.splitlines()), start=1
    ):
        if got != want:
            return f"differs from {golden.name} at line {line_no}"
    return f"differs from {golden.name} in length"


def golden_pages(checkout: Path, app: str) -> int:
    document = json.loads(golden_path(checkout, app).read_text())
    return len(document["pages"])


class Context:
    """What every session shares: the checkout, a scratch directory in
    it, the child environment and the seed."""

    def __init__(self, checkout: Path, work: Path, env: dict, seed: int):
        self.checkout = checkout
        self.work = work
        self.env = env
        self.seed = seed

    def build_apps(self, label: str, apps) -> dict[str, Path]:
        from repro.corpus import build_app

        base = self.work / label
        if base.exists():
            shutil.rmtree(base)
        base.mkdir(parents=True)
        roots = {}
        for app in apps:
            build_app(base, app)
            roots[app] = (base / app).resolve()
        return roots

    def mode(self, label: str, traced: bool) -> list[str]:
        """The analyzer process's ``--trace DIR`` or ``--calibrate DIR``
        arguments for a session."""
        path = self.work / f"{'trace' if traced else 'ref'}-{label}"
        path.mkdir(parents=True, exist_ok=True)
        return ["--trace" if traced else "--calibrate", str(path)]


def in_window(samples: list, start: float, end: float) -> list[float]:
    """The durations of the kernel samples that started in [start, end]."""
    return [duration for begun, duration in samples if start <= begun <= end]


def _child(ctx: Context, kind: str, job: dict | None,
           mode: list[str]) -> dict:
    """Run one operation in a fresh analyzer process (perfbench/proc.py).

    Returns the child's result plus ``setup_s`` (spawn → ready),
    ``setup_cal`` (its calibrated wall, if the process calibrates) and
    ``outer_s`` (ready → result, the fallback wall if the child died).
    Without a ``job`` the process only sets up; the result holds no more
    unless it failed."""
    command = [sys.executable, str(HERE / "proc.py"), kind] + mode
    with open(ctx.work / "child.stderr", "ab") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=stderr, env=ctx.env, cwd=ctx.work,
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            if job is not None:
                proc.stdin.write((json.dumps(job) + "\n").encode())
            proc.stdin.close()
            ready_line = proc.stdout.readline()
            ready = time.perf_counter()
            result_line = proc.stdout.readline()
            finished = time.perf_counter()
            proc.stdout.close()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    setup_ref = []
    try:
        setup_ref = json.loads(ready_line).get("ref", [])
        result = json.loads(result_line) if job is not None else {}
    except ValueError:
        result = {"exit": None,
                  "error": f"analyzer process died (status {proc.returncode})"}
    result["setup_s"], result["setup_cal"] = calib.calibrate(
        ready - started, [duration for _, duration in setup_ref]
    )
    result["outer_s"] = finished - ready
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"analyzer process exited {proc.returncode}"
    return result


def _op(kind: str, app: str, wall: float, error: str | None, **extra) -> dict:
    return {"kind": kind, "app": app, "wall": wall, "ok": error is None,
            "error": error, **extra}


def run_cycles(seconds: float, cycle) -> list[dict]:
    """``cycle()`` once, then again while the time left still covers the
    last cycle's wall, so a session overruns ``seconds`` only when its
    first cycle is longer."""
    started = time.perf_counter()
    cycles = []
    while True:
        begun = time.perf_counter()
        cycles.append(cycle())
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            return cycles


class ProcessPerApp:
    """corpus-cold (``audit``, ``jobs=1``), corpus-jobs2 (``audit``,
    ``jobs=2``) and fix-verify (``fix``): one fresh analyzer process per
    app per cycle.  An audit's stdout must equal
    ``tests/analysis/golden/<app>.json``; a fix's patched tree must
    re-analyze to ``tests/remediate/golden/<app>.fixed.json``, or be
    byte-identical to a patched tree that did."""

    def __init__(self, kind: str, apps: tuple, jobs: int = 1) -> None:
        self.kind = kind
        self.apps = apps
        self.jobs = jobs
        self.workers = jobs if jobs > 1 else 0
        self.clients = 1

    def session(self, ctx: Context, traced: bool, seconds: float) -> dict:
        label = f"{self.kind}{self.jobs}-{'t' if traced else 'u'}"
        fixing = self.kind == "fix"
        order = list(self.apps)
        random.Random(ctx.seed).shuffle(order)
        pages = {app: golden_pages(ctx.checkout, app) for app in order}
        mode = ctx.mode(label, traced)
        built = {} if fixing else ctx.build_apps(label, order)
        #: app → digest of a patched tree whose re-analysis matched the
        #: golden; remediation is deterministic, so a later fix that
        #: leaves the same bytes needs no second re-analysis
        checked_trees: dict[str, str] = {}

        def check(app: str, root: Path, result: dict) -> str | None:
            if result.get("error") is not None:
                return result["error"]
            if result["exit"] not in AUDIT_EXITS:
                return f"internal-error exit {result['exit']}"
            if fixing and app in checked_trees:
                if result["tree"] != checked_trees[app]:
                    return "patched tree differs from the golden-checked one"
                return None
            error = golden_mismatch(result["document"], root,
                                    golden_path(ctx.checkout, app, fixing))
            if fixing and error is None:
                checked_trees[app] = result["tree"]
            return error

        def cycle() -> dict:
            # remediation patches the tree: every fix gets a fresh copy
            roots = ctx.build_apps(label, order) if fixing else built
            ops = []
            for app in order:
                job = {"root": str(roots[app]), "jobs": self.jobs,
                       "check": app not in checked_trees}
                result = _child(ctx, self.kind, job, mode)
                wall = result.get("wall", result["outer_s"])
                error = check(app, roots[app], result)
                cal = None
                if not traced and "window" in result:
                    # farm workers run their samples side by side
                    wall, cal = calib.calibrate(
                        wall, in_window(result["ref"], *result["window"]),
                        parallel=self.jobs,
                    )
                if not traced and cal is None and error is None:
                    error = "no reference kernel sample to calibrate by"
                ops.append(_op(
                    self.kind, app, wall, error, cal=cal,
                    setup=result["setup_s"], setup_cal=result["setup_cal"],
                    pages=pages[app],
                    peak_kb=result.get("peak_kb", 0),
                    perf=result.get("perf"), spans=result.get("spans"),
                ))
            return {"ops": ops}

        setups = []
        for _ in range(SETUP_LAUNCHES):
            result = _child(ctx, self.kind, None, mode)
            setups.append(_op("setup", "analyzer", result["setup_s"],
                              result.get("error"), setup=result["setup_s"],
                              setup_cal=result["setup_cal"]))
        return {"cycles": run_cycles(seconds, cycle), "ops": setups}


def edit_targets(checkout: Path, app: str) -> list[str]:
    """Files an edit may touch: every page and every file a finding or
    diagnostic of the app's golden names — leaf pages and shared
    includes alike, so one edit re-analyzes from one page to all."""
    found: set[str] = set()

    def walk(node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                if key in ("page", "file") and isinstance(value, str):
                    if value.startswith("<ROOT>/"):
                        found.add(value[len("<ROOT>/"):])
                else:
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(json.loads(golden_path(checkout, app).read_text()))
    return sorted(found)


def daemon_steps(checkout: Path, seed: int) -> list[tuple]:
    """One cycle of ``(kind, app, file)`` steps: an edit of every target
    of every app and one warm request per app, in an order drawn from
    the seed.  The seed moves no step in or out of the cycle, so the
    cycle's cost is the same for every seed.  Warm requests feed only
    ``warm_p50_s``: the gated edit median does not depend on how many
    there are."""
    rng = random.Random(seed)
    steps = [("edit", app, rel) for app in APPS
             for rel in edit_targets(checkout, app)]
    steps += [("warm", app, None) for app in APPS]
    rng.shuffle(steps)
    return steps


class DaemonEdit:
    """daemon-edit: one ``sqlciv serve --jobs 1`` with the five apps as
    tenants and one client connection; every reply is golden-checked.
    An edit appends a newline to a file (no golden byte moves), then
    sends ``invalidate`` and ``analyze``; a warm step only ``analyze``s.

    Set-up (spawn, ready line, connect, ``load_project`` of the other
    four apps) is timed over :data:`DAEMON_LAUNCHES` launches; the last
    launch serves the session, starting with one cold analyze per
    tenant, which is timed on its own.
    """

    workers = 0
    clients = 1

    def session(self, ctx: Context, traced: bool, seconds: float) -> dict:
        from repro.server.client import ServerClient

        label = f"daemon-{'t' if traced else 'u'}"
        roots = ctx.build_apps(label, APPS)
        steps = daemon_steps(ctx.checkout, ctx.seed)
        mode = ctx.mode(label, traced)
        out_dir = Path(mode[1])
        command = [sys.executable, str(HERE / "proc.py"), "serve", *mode,
                   "--", str(roots[APPS[0]]), "--port", "0", "--jobs", "1",
                   "--log-level", "quiet"]
        #: (start, end) of each launch's set-up
        setups: list[tuple[float, float]] = []
        #: kernel samples of every stopped daemon (untraced)
        dumped: list = []
        ops: list[dict] = []
        cycles: list[dict] = []

        def step(client, kind: str, app: str, rel: str | None = None) -> dict:
            """One closed-loop step; an edit first appends a newline to
            ``rel`` and invalidates it.  The wall runs from the first
            request sent to the analyze reply received."""
            extra = {}
            if rel is not None:
                with open(roots[app] / rel, "a", encoding="utf-8") as handle:
                    handle.write("\n")
                extra["file"] = rel
            reply, error = None, None
            started = sent = time.perf_counter()
            try:
                if rel is not None:
                    client.invalidate([rel], project=app)
                    sent = time.perf_counter()
                reply = client.analyze(project=app)
            except Exception as exc:  # a failed request is a failed op
                error = f"{type(exc).__name__}: {exc}"
            finished = time.perf_counter()
            if reply is not None:
                document = json.dumps(reply["document"], indent=2) + "\n"
                error = golden_mismatch(
                    document, roots[app], golden_path(ctx.checkout, app)
                )
            return _op(kind, app, finished - started, error,
                       reanalyzed=reply["pages_reanalyzed"] if reply else 0,
                       analyze_wall=finished - sent,
                       window=(started, finished), **extra)

        def launch(stderr):
            """Start a daemon and load every tenant; ``(process, client)``
            once it is ready, its set-up window appended to ``setups``."""
            started = time.perf_counter()
            proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=ctx.env,
                cwd=ctx.work,
            )
            try:
                ready = json.loads(proc.stdout.readline())
                port = int(ready["listening"].rsplit(":", 1)[1])
                client = ServerClient(port=port, timeout=OP_TIMEOUT_S).connect(
                    retry_seconds=10.0
                )
                for app in APPS[1:]:
                    client.load_project(roots[app], name=app)
            except BaseException:
                proc.kill()
                proc.wait()
                proc.stdout.close()
                raise
            setups.append((started, time.perf_counter()))
            return proc, client

        def stop(proc, client) -> dict:
            """Shut the daemon down: an operation that fails unless the
            daemon exits 0."""
            try:
                client.shutdown()
                proc.wait(timeout=OP_TIMEOUT_S)
            except Exception:  # the exit status below records it
                pass
            finally:
                client.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            # each daemon writes its dump when it stops
            dump = out_dir / ("serve.json" if traced else "serve-ref.json")
            if dump.exists():
                dumped.extend(json.loads(dump.read_text()))
                dump.unlink()
            return _op("shutdown", "daemon", 0.0, None if proc.returncode == 0
                       else f"daemon exited {proc.returncode}")

        with open(ctx.work / "daemon.stderr", "ab") as stderr:
            for _ in range(DAEMON_LAUNCHES - 1):
                ops.append(stop(*launch(stderr)))
            proc, client = launch(stderr)
            try:
                for app in APPS:
                    ops.append(step(client, "cold", app))
                # the daemon's own counters, read between cycles
                snapshots = [client.metrics()["perf"]]

                def cycle() -> dict:
                    start = time.perf_counter()
                    cycle_ops = [step(client, kind, app, rel)
                                 for kind, app, rel in steps]
                    end = time.perf_counter()
                    snapshots.append(client.metrics()["perf"])
                    return {"ops": cycle_ops, "start": start, "end": end}

                cycles = run_cycles(seconds, cycle)
                for index, done in enumerate(cycles):
                    done["perf"] = _perf_delta(snapshots[index + 1],
                                               snapshots[index])
            finally:
                ops.append(stop(proc, client))
        # the daemons are the only children reaped so far in this
        # session's run (an untraced session always comes first), and
        # the one that served the session grew largest
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        session = {"cycles": cycles, "ops": ops, "peak_kb": peak_kb,
                   "setup": [end - start for start, end in setups]}
        if traced:
            # the spans of the daemon that served the cycles
            for done in cycles:
                done["spans"] = [
                    span for span in dumped
                    if done["start"] <= span["start"] <= done["end"]
                ]
            return session
        session["setup_cal"] = [
            calib.calibrate(end - start, in_window(dumped, start, end))[1]
            for start, end in setups
        ]
        for op in all_ops(session):
            if "window" not in op:
                continue
            op["wall"], op["cal"] = calib.calibrate(
                op["wall"], in_window(dumped, *op["window"])
            )
            # an edit re-analyzes at least one page, so it ran the kernel
            if op["kind"] == "edit" and op["cal"] is None and op["ok"]:
                op["ok"] = False
                op["error"] = "no reference kernel sample to calibrate by"
        return session


def _perf_delta(after: dict, before: dict) -> dict:
    """Counter and timer deltas between two ``PERF.snapshot()``s."""
    return {
        section: {
            name: value - before.get(section, {}).get(name, 0)
            for name, value in after.get(section, {}).items()
        }
        for section in ("counters", "timers")
    }


WORKLOADS = {
    "corpus-cold": lambda: ProcessPerApp("audit", APPS, jobs=1),
    "corpus-jobs2": lambda: ProcessPerApp("audit", APPS, jobs=2),
    "daemon-edit": DaemonEdit,
    "fix-verify": lambda: ProcessPerApp("fix", FIX_APPS),
}
