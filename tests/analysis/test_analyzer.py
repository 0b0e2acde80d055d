"""Tests for the top-level driver and the CLI."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.analyzer import (
    analyze_page,
    analyze_project,
    entry_pages,
    has_include_guard,
)
from repro.analysis import cli
from repro.analysis.cli import EXIT_INTERNAL, main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def project(tmp_path):
    def write(name, source):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))

    write("index.php", "<?php mysql_query('SELECT 1 FROM t');")
    write(
        "vuln.php",
        "<?php mysql_query(\"SELECT * FROM t WHERE a='{$_GET['a']}'\");",
    )
    write("includes/lib.php", "<?php function helper($x) { return $x; }")
    write("lib/other.php", "<?php $unused = 1;")
    return tmp_path


class TestEntryPages:
    def test_top_level_pages_selected(self, project):
        names = [p.name for p in entry_pages(project)]
        assert "index.php" in names and "vuln.php" in names

    def test_library_dirs_excluded(self, project):
        names = [p.name for p in entry_pages(project)]
        assert "lib.php" not in names
        assert "other.php" not in names

    def test_e107_style_dirs_excluded(self, tmp_path):
        (tmp_path / "e107_handlers").mkdir()
        (tmp_path / "e107_handlers" / "core.php").write_text("<?php $x=1;")
        (tmp_path / "page.php").write_text("<?php $y=1;")
        names = [p.name for p in entry_pages(tmp_path)]
        assert names == ["page.php"]

    def test_defined_guard_excluded(self, tmp_path):
        """The if (!defined(...)) guard the docstring promises: a guarded
        file at top level is an include-only library, not an entry page."""
        (tmp_path / "config.php").write_text(
            "<?php\n"
            "if (!defined('IN_APP')) { die('no direct access'); }\n"
            "$dsn = 'mysql:host=localhost';\n"
        )
        (tmp_path / "page.php").write_text("<?php $y=1;")
        names = [p.name for p in entry_pages(tmp_path)]
        assert names == ["page.php"]

    def test_guard_detected_past_comments(self, tmp_path):
        guarded = tmp_path / "lib.php"
        guarded.write_text(
            "<?php\n"
            "// direct-access protection\n"
            "/* multi\n   line */\n"
            "if ( ! defined ( 'SECURITY' ) ) exit;\n"
        )
        assert has_include_guard(guarded)

    def test_defined_elsewhere_is_not_a_guard(self, tmp_path):
        page = tmp_path / "page.php"
        page.write_text(
            "<?php\n$x = 1;\nif (!defined('LATER')) { define('LATER', 1); }\n"
        )
        assert not has_include_guard(page)
        assert [p.name for p in entry_pages(tmp_path)] == ["page.php"]


class TestAnalyzeProject:
    def test_report_shape(self, project):
        report = analyze_project(project, "demo")
        assert report.name == "demo"
        assert report.files == 4
        assert report.lines > 0
        assert len(report.direct_violations) == 1
        assert not report.verified

    def test_clean_project_verifies(self, tmp_path):
        (tmp_path / "a.php").write_text("<?php mysql_query('SELECT 1 FROM t');")
        report = analyze_project(tmp_path)
        assert report.verified
        assert "VERIFIED" in report.render()

    def test_render_contains_counts(self, project):
        text = analyze_project(project, "demo").render()
        assert "direct violations: 1" in text


class TestAnalyzePage:
    def test_single_page(self, project):
        reports, analysis = analyze_page(project, "vuln.php")
        assert len(reports) == 1
        assert not reports[0].verified

    def test_absolute_path(self, project):
        reports, _ = analyze_page(project, project / "index.php")
        assert reports[0].verified


class TestCli:
    def test_reports_violation_exit_code(self, project, capsys):
        code = main([str(project), "vuln.php"])
        assert code == 1
        out = capsys.readouterr().out
        assert "VULNERABLE" in out

    def test_verified_exit_code(self, project, capsys):
        code = main([str(project), "index.php"])
        assert code == 0
        assert "verified: no SQLCIV reports" in capsys.readouterr().out

    def test_all_pages_default(self, project, capsys):
        code = main([str(project)])
        assert code == 1

    def test_verbose_shows_verified(self, project, capsys):
        main([str(project), "index.php", "--verbose"])
        assert "verified" in capsys.readouterr().out

    def test_bad_root(self, tmp_path):
        with pytest.raises(SystemExit):
            main([str(tmp_path / "nope")])


class TestInternalFailure:
    """Exit 4: an unexpected exception is neither a finding (1) nor a
    verification (0), and claims nothing on stdout."""

    def test_run_pages_exception_exits_4(self, project, monkeypatch, capsys):
        def broken_run_pages(*args, **kwargs):
            raise RuntimeError("synthetic analysis failure")

        monkeypatch.setattr(cli, "run_pages", broken_run_pages)
        code = main([str(project), "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL == 4
        assert captured.out == ""
        assert "synthetic analysis failure" in captured.err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_recursion_limit_page_exits_4(self, tmp_path, jobs):
        # 3000 nested parentheses exhaust the parser's recursion limit;
        # a second page gives --jobs 2 a reason to start the farm
        nested = "(" * 3000 + "1" + ")" * 3000
        (tmp_path / "deep.php").write_text(f"<?php\n$x = {nested};\n")
        (tmp_path / "ok.php").write_text("<?php mysql_query('SELECT 1');")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", str(tmp_path),
             "--jobs", str(jobs)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 4, proc.stderr[-2000:]
        assert proc.stdout == ""
        assert "RecursionError" in proc.stderr
