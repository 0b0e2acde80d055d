"""From session samples to the benchmark's metrics.

End-to-end metrics come from untraced sessions, per-layer metrics from
traced ones.  Walls are medians per app, or over every edit of the
cycles, so a session that fits one more cycle than another reports the
same thing.
"""

from __future__ import annotations

import statistics

import calib
from spans import layer_totals

#: the root span of each kind of operation: its self time is the part
#: of the operation no layer span covers
ROOT_SPANS = {"audit": "run_pages", "fix": "remediate",
              "edit": "server.request", "warm": "server.request"}

#: per-layer metrics: name → (source, unit).  Sources: ("span", layer,
#: "calls" | "self_s" | "total_s"), ("counter", name), ("timer", name),
#: ("ratio", numerator counters, denominator counters).
LAYER_METRICS = {
    "parse.calls": (("span", "parse", "calls"), "count"),
    "parse.self_s": (("span", "parse", "self_s"), "s"),
    "include.resolve.calls": (("span", "include.resolve", "calls"), "count"),
    "include.resolve.self_s": (("span", "include.resolve", "self_s"), "s"),
    "include.names.builds": (("span", "include.names", "calls"), "count"),
    "include.names.self_s": (("span", "include.names", "self_s"), "s"),
    "phase1.pages": (("span", "phase1", "calls"), "count"),
    "phase1.self_s": (("span", "phase1", "self_s"), "s"),
    "image.calls": (("span", "image", "calls"), "count"),
    "image.self_s": (("span", "image", "self_s"), "s"),
    "image.cache.hit_ratio": (
        ("ratio", ("image.cache.hits",),
         ("image.cache.hits", "image.cache.misses")), "ratio"),
    "sample.calls": (("span", "sample", "calls"), "count"),
    "sample.self_s": (("span", "sample", "self_s"), "s"),
    "cascade.calls": (("span", "cascade", "calls"), "count"),
    "cascade.self_s": (("span", "cascade", "self_s"), "s"),
    "verdict_cache.hit_ratio": (
        ("ratio", ("policy.verdict_cache.hits",),
         ("policy.verdict_cache.hits", "policy.verdict_cache.misses")),
        "ratio"),
    "prefilter.hit_ratio": (
        ("ratio", ("prefilter.hits",), ("prefilter.hits", "prefilter.misses")),
        "ratio"),
    "intersect.calls": (("span", "intersect", "calls"), "count"),
    "intersect.self_s": (("span", "intersect", "self_s"), "s"),
    "earley.calls": (("span", "earley", "calls"), "count"),
    "earley.self_s": (("span", "earley", "self_s"), "s"),
    "audit.self_s": (("span", "audit", "self_s"), "s"),
    "farm.startup_s": (("span", "farm.startup", "total_s"), "s"),
    "farm.map_s": (("span", "farm.map", "total_s"), "s"),
    "farm.shutdown_s": (("span", "farm.shutdown", "total_s"), "s"),
    "farm.worker.self_s": (("span", "farm.worker", "self_s"), "s"),
    "farm.tasks.stolen": (("counter", "farm.tasks.stolen"), "count"),
    "farm.pages.split": (("counter", "farm.pages.split"), "count"),
    "farm.shared_hit_ratio": (
        ("ratio",
         ("farm.verdict.shared_hits", "farm.image.shared_hits",
          "farm.ast.shared_hits"),
         ("farm.verdict.shared_hits", "farm.image.shared_hits",
          "farm.ast.shared_hits", "farm.verdict.shared_misses",
          "farm.image.shared_misses", "farm.ast.shared_misses")), "ratio"),
    "ipc.page_bytes_total": (("counter", "ipc.page_bytes_total"), "bytes"),
    "server.analyze_s": (("timer", "server.analyze"), "s"),
    "server.pages.reanalyzed": (("counter", "server.pages.reanalyzed"), "count"),
    "server.pages.replayed": (("counter", "server.pages.replayed"), "count"),
    "remediate.candidates": (("counter", "remediate.candidates"), "count"),
    "remediate.kept_ratio": (
        ("ratio", ("remediate.verified",), ("remediate.candidates",)), "ratio"),
    "remediate.synthesize.self_s": (
        ("span", "remediate.synthesize", "self_s"), "s"),
    "remediate.verify.self_s": (("span", "remediate.verify", "self_s"), "s"),
    "remediate.reanalysis.self_s": (
        ("span", "remediate.reanalysis", "self_s"), "s"),
    "remediate.guard.self_s": (("span", "remediate.guard", "self_s"), "s"),
    "oracle.self_s": (("span", "oracle", "self_s"), "s"),
}

#: per workload, the work counts and ratios that do not repeat between
#: two traced runs of one seed (farm scheduling decides them);
#: test_perfbench.py checks that every other count repeats.  The output
#: marks these so a later change cannot cite them as evidence.
NONDETERMINISTIC = {
    "corpus-jobs2": ("parse.calls", "farm.tasks.stolen",
                     "farm.shared_hit_ratio", "ipc.page_bytes_total"),
}


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def all_ops(session: dict) -> list[dict]:
    ops = list(session.get("ops", []))
    for cycle in session["cycles"]:
        ops.extend(cycle["ops"])
    return ops


def tally(sessions: list[dict]) -> tuple[int, int, list[str]]:
    ops = [op for session in sessions for op in all_ops(session)]
    errors = [f"{op['kind']} {op['app']}: {op['error']}"
              for op in ops if not op["ok"]]
    return len(ops), len(errors), errors


def _by_app(ops: list[dict], key: str = "wall") -> dict[str, list]:
    values: dict[str, list] = {}
    for op in ops:
        values.setdefault(op["app"], []).append(op.get(key))
    return values


def tail(walls: list[float]) -> tuple[float | None, float | None]:
    """The wall at the highest percentile with at least ten samples
    beyond it, and that percentile; (None, None) under 11 samples."""
    if len(walls) < 11:
        return None, None
    ordered = sorted(walls)
    return ordered[-11], 100.0 * (len(walls) - 10) / len(walls)


def _median_or_none(values: list) -> float | None:
    values = [value for value in values if value is not None]
    return statistics.median(values) if values else None


def end_to_end(workload: str, session: dict):
    """``(metrics, rows)``: the end-to-end metrics of one session, and
    every printed row ``(name, value, unit, note)``.  ``op_s`` is the
    workload's one timing as walls (printed under the workload's own
    name where it has one: ``edit_mean_s``, ``fix_s``) and ``op_cal_s``
    the same timing from calibrated walls (:mod:`calib`), the gated
    one; ``setup_s`` likewise comes from calibrated set-up walls
    (printed uncalibrated as ``setup_wall_s``).  A traced session has
    no calibrated walls."""
    ops = [op for cycle in session["cycles"] for op in cycle["ops"]]
    rows = []
    if workload == "daemon-edit":
        setups = session["setup"]
        setup_cals = session.get("setup_cal", [])
        peak_rss_mb = session["peak_kb"] / 1024
        edits = [op for op in ops if op["kind"] == "edit"]
        walls = [op["wall"] for op in edits]
        warms = [op["wall"] for op in ops if op["kind"] == "warm"]
        colds = [op["wall"] for op in session["ops"] if op["kind"] == "cold"]
        # every cycle edits the same files, so the mean is over a fixed
        # set; it weighs shared-include edits by their cost, where a
        # median is one leaf page's edit
        op_s = statistics.fmean(walls)
        cals = [op["cal"] for op in edits if op.get("cal") is not None]
        op_cal_s = statistics.fmean(cals) if cals else None
        tail_wall, tail_pct = tail(walls)
        rows += [
            ("setup_wall_s", statistics.median(setups), "s",
             f"spawn to ready + load_project, median of {len(setups)} "
             "daemon launches"),
            ("edit_mean_s", op_s, "s",
             f"invalidate sent to analyze reply, mean of {len(walls)} "
             "edits"),
            ("edit_p50_s", statistics.median(walls), "s",
             "the same, median, not gated"),
            ("edit_tail_s", tail_wall, "s",
             f"p{tail_pct:.1f} of {len(walls)} edits, 10 beyond"
             if tail_pct is not None else f"needs 11 edits, have {len(walls)}"),
            ("warm_p50_s", statistics.median(warms), "s",
             f"unchanged analyze, median of {len(warms)}"),
            ("cold_analyze_s", sum(colds), "s",
             "first analyze of the 5 tenants, one sample, not gated"),
        ]
        cal_note = "edit_mean_s from calibrated walls"
    else:
        setups = [op["setup"] for op in ops + session["ops"]]
        setup_cals = [op.get("setup_cal") for op in ops + session["ops"]]
        walls = _by_app(ops)
        cals = _by_app(ops, "cal")
        pages = {op["app"]: op["pages"] for op in ops}
        op_s = sum(statistics.median(w) for w in walls.values())
        per_app_cal = [_median_or_none(c) for c in cals.values()]
        op_cal_s = None if None in per_app_cal else sum(per_app_cal)
        # the farm's schedule decides which worker grows largest, so the
        # per-app median of each operation's peak, then the largest app
        peaks: dict[str, list[int]] = {}
        for op in ops:
            peaks.setdefault(op["app"], []).append(op["peak_kb"])
        peak_rss_mb = max(statistics.median(p) for p in peaks.values()) / 1024
        rows.append(("setup_wall_s", statistics.median(setups), "s",
                     f"spawn to ready, median of {len(setups)} processes"))
        if workload == "fix-verify":
            rows.append(("fix_s", op_s, "s", "sum over apps of the median "
                         "remediate_project wall"))
            cal_note = "fix_s from calibrated walls"
        else:
            rows.append(("op_s", op_s, "s",
                         "one pass: summed per-app median run_pages walls"))
            rows.append(("pages_per_s", sum(pages.values()) / op_s, "pages/s",
                         f"{sum(pages.values())} entry pages / op_s, "
                         "not gated"))
            cal_note = "op_s from calibrated walls"
        for app, app_walls in sorted(walls.items()):
            rows.append((f"wall.{app}_s", statistics.median(app_walls), "s",
                         f"median of {len(app_walls)}, not gated"))
    # a traced session has calibrated neither
    setup = _median_or_none(setup_cals)
    if setup is not None:
        rows.append(("setup_s", setup, "s",
                     "gated: setup_wall_s from calibrated walls"))
    if op_cal_s is not None:
        rows.append(("op_cal_s", op_cal_s, "s", f"gated: {cal_note}"))
        rows.append(("host.slowdown", op_s / op_cal_s, "ratio",
                     "walls / calibrated walls: this host against one "
                     "where the reference kernel takes "
                     f"{calib.NOMINAL_S * 1000:g} ms"))
    rows.append(("peak_rss_mb", peak_rss_mb, "MB",
                 "the daemon's peak RSS" if workload == "daemon-edit" else
                 "largest per-app median of an operation's peak RSS"))
    return {"setup_s": setup, "op_s": op_s, "op_cal_s": op_cal_s,
            "peak_rss_mb": peak_rss_mb}, rows


def _cycle_views(session: dict) -> list[dict]:
    """Per traced cycle: its spans, their per-layer totals, and the
    analyzer's counters and timers summed over the cycle."""
    views = []
    for cycle in session["cycles"]:
        # analyzer processes report per operation; the daemon per cycle
        cycle_spans = list(cycle.get("spans", []))
        perfs = [cycle.get("perf") or {}]
        for op in cycle["ops"]:
            cycle_spans.extend(op.get("spans") or [])
            perfs.append(op.get("perf") or {})
        sums = {"counters": {}, "timers": {}}
        for perf in perfs:
            for section, total in sums.items():
                for name, value in perf.get(section, {}).items():
                    total[name] = total.get(name, 0) + value
        views.append({"spans": cycle_spans, "totals": layer_totals(cycle_spans),
                      "counters": sums["counters"], "timers": sums["timers"],
                      "ops": cycle["ops"]})
    return views


def _value(source: tuple, view: dict):
    kind = source[0]
    if kind == "span":
        row = view["totals"].get(source[1])
        return (row or {}).get(source[2], 0 if source[2] == "calls" else 0.0)
    if kind == "counter":
        return view["counters"].get(source[1], 0)
    if kind == "timer":
        return view["timers"].get(source[1], 0.0)
    numerator = sum(view["counters"].get(name, 0) for name in source[1])
    base = sum(view["counters"].get(name, 0) for name in source[2])
    return numerator / base if base else 0.0


def _ran(source: tuple, view: dict) -> bool:
    kind = source[0]
    if kind == "span":
        return source[1] in view["totals"]
    if kind == "ratio":
        return any(view["counters"].get(name) for name in source[2])
    if kind == "counter":
        return source[1] in view["counters"]
    return source[1] in view["timers"]


def per_layer(workload: str, traced: dict, untraced_e2e: dict,
              traced_e2e: dict):
    """``(metrics, rows)`` of a traced session: counts from its first
    cycle, times as medians over its cycles."""
    views = _cycle_views(traced)
    first = views[0]
    values: dict[str, float] = {}
    rows = []
    for name, (source, unit) in LAYER_METRICS.items():
        if unit == "s":
            value = statistics.median(_value(source, v) for v in views)
        else:
            value = _value(source, first)
        values[name] = value
        if _ran(source, first):
            note = ""
            if name in NONDETERMINISTIC.get(workload, ()):
                note = "non-deterministic: not evidence"
            rows.append((name, value, unit, note))

    root_self = []
    for view in views:
        roots = {ROOT_SPANS[op["kind"]] for op in view["ops"]}
        root_self.append(sum(s["self"] for s in view["spans"]
                             if s["name"] in roots and "worker" not in s))
    values["unspanned.self_s"] = statistics.median(root_self)
    rows.append(("unspanned.self_s", values["unspanned.self_s"], "s",
                 "root span self time: no layer span covers it"))
    # spans nest on one thread, so an operation's self times (the layer
    # self times plus unspanned.self_s) sum to its root span's wall;
    # ops.wall_s is the same operations timed by the benchmark itself
    # (the run_pages or remediate_project call, or the client request),
    # so a root span that misses part of an operation shows against it
    own = [s for s in first["spans"] if "worker" not in s]
    rows.append(("spans.self_sum_s", sum(s["self"] for s in own), "s",
                 "first cycle: self times of the analyzer processes' spans"))
    rows.append(("spans.root_wall_s",
                 sum(s["end"] - s["start"] for s in own if not s["parent"]),
                 "s", "first cycle: walls of the root spans"))
    rows.append(("ops.wall_s", sum(op["wall"] for op in first["ops"]), "s",
                 "first cycle: the operations' walls, timed outside the spans"))

    if workload == "daemon-edit":
        overheads = []
        for view in views:
            client = sum(op["analyze_wall"] for op in view["ops"])
            overheads.append(client - view["timers"].get("server.analyze", 0.0))
        values["server.client_overhead_s"] = statistics.median(overheads)
        rows.append(("server.client_overhead_s",
                     values["server.client_overhead_s"], "s",
                     "client analyze walls - server.analyze, per cycle"))
    values["trace.overhead_frac"] = (
        traced_e2e["op_s"] / untraced_e2e["op_s"] - 1.0)
    rows.append(("trace.overhead_frac", values["trace.overhead_frac"], "ratio",
                 "traced op_s / untraced op_s - 1"))
    return values, rows


def raw_samples(sessions: list[dict]) -> list[dict]:
    """Every operation of every session, without spans and counters."""
    keep = ("kind", "app", "wall", "cal", "ok", "error", "setup",
            "setup_cal", "pages", "file", "reanalyzed", "analyze_wall")
    out = []
    for index, session in enumerate(sessions):
        out.append({
            "session": index,
            "setup": session.get("setup"),
            "setup_cal": session.get("setup_cal"),
            "cycles": [[{k: op[k] for k in keep if k in op}
                        for op in cycle["ops"]]
                       for cycle in session["cycles"]],
            "setup_ops": [{k: op[k] for k in keep if k in op}
                          for op in session.get("ops", [])],
        })
    return out
