"""The sqlciv benchmark: four closed-loop workloads, golden-gated.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and prints
the end-to-end metrics of ``BENCHMARK.json``: set-up time, peak memory
and the workload's timing as ``op_cal_s``, from walls calibrated to a
reference speed so that the host's drifting speed cancels out
(:mod:`calib`; the plain walls are printed too).  ``--trace 1`` runs it
untraced and then traced, half the time each, and prints the per-layer
metrics (self time per layer from the benchmark's own spans, work
counts, cache ratios) plus ``trace.overhead_frac``.  Human-readable
rows come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
(machine, seed, every raw sample) is written under ``.perfbench/runs/``.

The benchmark never uses more farm workers or client connections than
there are cores: a configuration that would is flagged in the output
and the record.  ``perfbench/predictions.json`` says why each workload
exists and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

#: TMPDIR is pointed into the checkout only while the farm's unix
#: sockets (``<TMPDIR>/pymp-XXXXXXXX/listener-XXXXXXXX``) still fit the
#: 108-byte ``sun_path`` limit
MAX_TMPDIR_LEN = 70


def checkout_problem(checkout: Path) -> str | None:
    for needed in ("src/repro/analysis/cli.py", "tests/analysis/golden",
                   "tests/remediate/golden", "BENCHMARK.json"):
        if not (checkout / needed).exists():
            return f"{needed} is missing: run from the root of a sqlciv checkout"
    return None


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    tmp = checkout / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if len(str(tmp)) <= MAX_TMPDIR_LEN:
        env["TMPDIR"] = str(tmp)
    else:
        print(f"perfbench: {tmp} is too long for unix sockets; the "
              "analyzer's temporary files go to the system default",
              file=sys.stderr)
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd().resolve()
    problem = checkout_problem(checkout)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    # the "build": byte-compile the sources once, outside every timing
    compileall.compile_dir(str(checkout / "src"), quiet=1)

    workload = WORKLOADS[args.workload]()
    cores = nproc()
    shape = {
        "nproc": cores,
        "farm_workers": workload.workers,
        "clients": workload.clients,
        "closed_loop": True,
        "oversubscribed": max(workload.workers, workload.clients) > cores,
    }
    work = checkout / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(checkout, work, child_env(checkout), args.seed)
    try:
        if args.trace:
            untraced = workload.session(ctx, False, args.seconds / 2)
            traced = workload.session(ctx, True, args.seconds / 2)
            sessions = [untraced, traced]
        else:
            sessions = [workload.session(ctx, False, args.seconds)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, errors = metrics.tally(sessions)
    e2e, rows = metrics.end_to_end(args.workload, sessions[0])
    result_metrics = e2e
    if args.trace:
        traced_e2e, _ = metrics.end_to_end(args.workload, traced)
        result_metrics, layer_rows = metrics.per_layer(
            args.workload, traced, e2e, traced_e2e
        )
        rows += layer_rows
    rows.append(("error_rate", failed / attempted, "ratio",
                 f"{failed} of {attempted} operations failed"))

    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    final = {
        spec["name"]: {"value": result_metrics[spec["name"]],
                       "unit": spec["unit"]}
        for spec in declared[section]
    }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  nproc {cores}  "
          f"closed-loop clients {workload.clients}  "
          f"farm workers {workload.workers}"
          + ("  OVERSUBSCRIBED" if shape["oversubscribed"] else ""))
    for name, value, unit, note in rows:
        print(f"  {name:32s} {metrics.fmt(value):>14s} {unit:8s} {note}")
    for error in errors[:10]:
        print(f"  FAILED {error}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cores,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_shape": shape,
        "finished": time.time(),
        "workload_info": json.loads(
            (HERE / "predictions.json").read_text()
        )["workloads"][args.workload],
        "rows": [list(row) for row in rows],
        "errors": errors,
        "samples": metrics.raw_samples(sessions),
    }
    runs = checkout / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record {record_path.relative_to(checkout)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": final,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
