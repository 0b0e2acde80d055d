"""The benchmark's own checks; a few minutes of short runs.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

* every workload prints every end-to-end metric (untraced) and every
  per-layer metric of the layers it runs (traced), each with its unit,
  and its last line carries exactly the metrics BENCHMARK.json declares;
* a perturbed copy of a golden reads as a failure (the checked-in
  goldens are only read);
* two traced runs of one seed repeat every work count not marked
  non-deterministic;
* on corpus-cold the spans' self times add up to the run_pages wall;
* calibration takes the reference kernel's time and the host's speed
  out of an operation's wall, and every untraced operation has a
  calibrated wall;
* in a directory holding only the benchmark, it fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS, golden_mismatch, golden_path  # noqa: E402

DECLARED = json.loads((CHECKOUT / "BENCHMARK.json").read_text())

#: rows every untraced run prints, plus each workload's own; the
#: uncalibrated op_s is printed under the workload's own name where it
#: has one
E2E_ROWS = {"setup_s": "s", "setup_wall_s": "s", "op_cal_s": "s",
            "host.slowdown": "ratio", "peak_rss_mb": "MB",
            "error_rate": "ratio"}
CORPUS_ROWS = {"op_s": "s", "pages_per_s": "pages/s"}
WORKLOAD_ROWS = {
    "corpus-cold": CORPUS_ROWS,
    "corpus-jobs2": CORPUS_ROWS,
    "daemon-edit": {"edit_mean_s": "s", "edit_p50_s": "s", "edit_tail_s": "s",
                    "warm_p50_s": "s", "cold_analyze_s": "s"},
    "fix-verify": {"fix_s": "s"},
}

KERNELS = (
    "parse.calls", "parse.self_s", "include.resolve.calls",
    "include.resolve.self_s", "include.names.builds", "include.names.self_s",
    "phase1.pages", "phase1.self_s", "image.calls", "image.self_s",
    "image.cache.hit_ratio", "sample.calls", "sample.self_s",
    "cascade.calls", "cascade.self_s", "verdict_cache.hit_ratio",
)
#: per-layer rows each traced workload must print (its layers run)
LAYER_ROWS = {
    "corpus-cold": KERNELS + (
        "audit.self_s", "prefilter.hit_ratio", "intersect.calls", "intersect.self_s",
        "earley.calls", "earley.self_s"),
    "corpus-jobs2": KERNELS + (
        "audit.self_s", "farm.startup_s", "farm.map_s", "farm.tasks.stolen",
        "farm.pages.split", "farm.shared_hit_ratio", "ipc.page_bytes_total"),
    "daemon-edit": KERNELS + (
        "audit.self_s", "server.analyze_s", "server.pages.reanalyzed",
        "server.pages.replayed", "server.client_overhead_s"),
    "fix-verify": KERNELS + (
        "remediate.candidates", "remediate.kept_ratio",
        "remediate.synthesize.self_s", "remediate.verify.self_s",
        "remediate.reanalysis.self_s", "oracle.self_s"),
}

#: per-layer rows computed outside metrics.LAYER_METRICS
DERIVED_UNITS = {"trace.overhead_frac": "ratio", "unspanned.self_s": "s",
                 "server.client_overhead_s": "s"}

_RUNS: dict = {}


def run(workload: str, trace: int, seed: int = 3, tag: int = 0):
    """One short run: ``(rows, final JSON, record)``, memoized."""
    key = (workload, trace, seed, tag)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=CHECKOUT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        lines = proc.stdout.strip().splitlines()
        rows = {}
        record_path = None
        for line in lines[1:-1]:
            parts = line.split()
            if parts[0] == "record":
                record_path = CHECKOUT / parts[1]
            elif parts[0] != "FAILED":
                rows[parts[0]] = (parts[1], parts[2])
        record = json.loads(record_path.read_text())
        _RUNS[key] = rows, json.loads(lines[-1]), record
    return _RUNS[key]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    rows, final, record = run(workload, 0)
    assert final["correct"] and final["failed"] == 0, record["errors"]
    assert final["attempted"] >= 1
    expected = {**E2E_ROWS, **WORKLOAD_ROWS[workload]}
    for name, unit in expected.items():
        assert name in rows, name
        assert rows[name][1] == unit, (name, rows[name])
    assert set(final["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    for spec in DECLARED["end_to_end"]:
        metric = final["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]
    assert record["nproc"] >= 1 and record["python"] and record["seed"] == 3
    assert record["load_shape"]["clients"] == 1
    assert record["samples"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    rows, final, record = run(workload, 1)
    assert final["correct"] and final["failed"] == 0, record["errors"]
    for name in LAYER_ROWS[workload] + ("trace.overhead_frac",
                                        "unspanned.self_s"):
        assert name in rows, name
        unit = (metrics.LAYER_METRICS[name][1] if name in metrics.LAYER_METRICS
                else DERIVED_UNITS[name])
        assert rows[name][1] == unit, (name, rows[name])
    assert set(final["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    for spec in DECLARED["per_layer"]:
        assert final["metrics"][spec["name"]]["unit"] == spec["unit"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_work_counts_repeat_for_one_seed(workload):
    first, _, _ = run(workload, 1)
    second, _, _ = run(workload, 1, tag=1)
    unstable = metrics.NONDETERMINISTIC.get(workload, ())
    for name, (value, unit) in first.items():
        if unit in ("count", "bytes") and name not in unstable:
            assert second[name][0] == value, (name, value, second[name][0])


def test_self_times_add_up_to_the_run_pages_wall():
    """The layer self times plus unspanned time of the first traced
    cycle against the run_pages walls the benchmark timed itself,
    around the root span: they differ by the wrappers' own cost only."""
    _, _, record = run("corpus-cold", 1)
    rows = {row[0]: row[1] for row in record["rows"]}
    timed = rows["ops.wall_s"]
    assert timed > 0
    assert rows["spans.root_wall_s"] <= timed
    assert abs(rows["spans.self_sum_s"] - timed) <= 0.01 * timed


def test_calibration_takes_out_the_kernel_and_the_host_speed():
    # a 1 s operation that ran ten 4 ms kernel samples, on a host twice
    # as slow as the nominal one: 0.96 s of its own work, 0.48 s nominal
    net, cal = calib.calibrate(1.0, [0.004] * 10)
    assert net == pytest.approx(0.96)
    assert cal == pytest.approx(0.48)
    # two farm workers ran the samples side by side
    net, cal = calib.calibrate(1.0, [0.004] * 10, parallel=2)
    assert net == pytest.approx(0.98)
    assert cal == pytest.approx(0.49)
    assert calib.calibrate(1.0, []) == (1.0, None)


def test_untraced_operations_carry_calibrated_walls():
    _, _, record = run("corpus-cold", 0)
    session = record["samples"][0]
    ops = [op for cycle in session["cycles"] for op in cycle]
    assert ops and all(0 < op["cal"] for op in ops)
    assert all(0 < op["setup_cal"] for op in ops + session["setup_ops"])


def test_a_perturbed_golden_copy_reads_as_a_failure(tmp_path):
    golden = golden_path(CHECKOUT, "eve_activity_tracker")
    root = tmp_path / "app"
    document = golden.read_text().replace("<ROOT>", str(root))
    copy = tmp_path / "copy.json"
    shutil.copy(golden, copy)
    assert golden_mismatch(document, root, copy) is None
    text = copy.read_text()
    copy.write_text(text.replace('"verified": false', '"verified": true', 1))
    assert golden_mismatch(document, root, copy) is not None
    copy.write_text(text + " ")
    assert golden_mismatch(document, root, copy) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
