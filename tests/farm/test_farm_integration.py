"""Farm integration tests: ``--jobs 2`` against ``--jobs 1``.

Runs the real CLI in fresh subprocesses over a small synthetic app with
several hotspots per page and asserts the ``--json`` document — minus
the perf block — is identical to the serial run, and that the
scheduling-invariant counters agree.  Both runs are made once per
module and shared by the tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

INDEX_PHP = """<?php
include 'lib.inc';
mysql_query($q1 . $_GET['a'] . "'");
mysql_query($q2 . $_GET['b'] . "'");
mysql_query($q1 . "0");
mysql_query($q2 . "1");
?>"""
LIB_INC = (
    "<?php $q1 = \"SELECT a FROM t WHERE x = '\";\n"
    "$q2 = \"SELECT b FROM t WHERE y = '\"; ?>"
)
OTHER_PHP = "<?php include 'lib.inc'; mysql_query($q1 . \"z'\"); ?>"


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    root = tmp_path_factory.mktemp("farm_app")
    (root / "index.php").write_text(INDEX_PHP)
    (root / "other.php").write_text(OTHER_PHP)
    (root / "lib.inc").write_text(LIB_INC)
    return root


def run_cli(app_root, jobs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", str(app_root),
         "--json", "--profile", "--jobs", str(jobs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode in (0, 1, 3), proc.stderr[-2000:]
    return json.loads(proc.stdout)


def verdicts(document):
    """The document minus its perf block, serialized in document order."""
    return json.dumps(
        {k: v for k, v in document.items() if k != "perf"}, indent=2
    )


def lookups(counters):
    return (
        counters.get("policy.verdict_cache.hits", 0)
        + counters.get("policy.verdict_cache.misses", 0)
    )


@pytest.fixture(scope="module")
def runs(app):
    """The ``--json`` documents of one serial and one farmed run."""
    return run_cli(app, jobs=1), run_cli(app, jobs=2)


class TestFarmConfigurations:
    def test_memo_service_disabled_is_byte_identical(self, runs):
        # the farm has no shared memo service any more: each worker
        # memoizes in-process, and --jobs 2 must render what --jobs 1 does
        serial, farmed = runs
        assert verdicts(farmed) == verdicts(serial)

    def test_counter_invariance_across_split_modes(self, runs):
        # pages.analyzed and the verdict-lookup totals must not depend
        # on which worker ran which page (tests/obs contract, farm
        # edition); parse.files may differ — each worker parses its own
        serial, farmed = runs
        serial_counters = serial["perf"]["counters"]
        farmed_counters = farmed["perf"]["counters"]
        assert farmed_counters["pages.analyzed"] == serial_counters["pages.analyzed"]
        assert lookups(farmed_counters) == lookups(serial_counters)
