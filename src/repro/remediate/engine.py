"""The remediation engine: candidates → verification → report.

:func:`remediate_project` drives one project end-to-end.  Per entry
page it re-runs the string-taint analysis (it needs the page grammar for
guard compilation, not just the reports), collects the unsafe findings
in deterministic page/hotspot/finding order, and for each one tries the
candidate ladder:

1. prepared-statement rewrite (SQL sinks only),
2. policy-designated sanitizer insertion,
3. guard-profile fallback (always produced when neither patch verifies).

Patches are verified **cumulatively** on one scratch copy of the tree:
each candidate is spliced on top of every previously kept patch, the
whole project is re-analyzed, and the candidate is kept only when its
target finding disappears and no finding count rises anywhere — so the
final patch set is consistent as a whole, and a second engine run over
the applied tree synthesizes nothing (idempotence).  Because later
candidates' byte offsets were computed against the pristine tree, kept
splices are tracked per file in original coordinates and subsequent
patches are offset-shifted (candidates overlapping an earlier kept
splice are rejected — their finding is almost always already gone).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro.obs.metrics import PERF

from .guard import compile_guard
from .synthesize import (
    Patch,
    synthesize_prepared,
    synthesize_sanitizer,
)
from .verify import (
    ORACLE_STATIC_ONLY,
    Workspace,
    analyze_tree,
    finding_key,
    verify_patch,
)

STATUS_FIXED_PREPARED = "fixed-prepared"
STATUS_FIXED_SANITIZER = "fixed-sanitizer"
STATUS_ALREADY_FIXED = "fixed-by-earlier-patch"
STATUS_UNFIXABLE = "unfixable"

#: reason recorded when a candidate's splice lands inside a span an
#: earlier kept patch already rewrote
REASON_OVERLAP = "overlaps-earlier-patch"
#: reason recorded for the prepared rung on non-SQL findings
REASON_NOT_SQL = "not-a-sql-sink"


@dataclass
class FindingFix:
    """The engine's verdict for one unsafe finding."""

    page: str
    file: str          # project-root-relative
    line: int
    sink: str
    check: str
    policy: str
    category: str
    status: str = STATUS_UNFIXABLE
    #: candidate rung → machine-readable reason it did not apply/verify
    reasons: dict = field(default_factory=dict)
    diff: str = ""
    verification: dict | None = None
    oracle: str = ORACLE_STATIC_ONLY
    guard_path: str = ""
    guard_self_test: dict | None = None
    #: the kept patch (original-tree coordinates); not serialized
    patch: Patch | None = None

    @property
    def fixed(self) -> bool:
        return self.status.startswith("fixed")

    def as_dict(self) -> dict:
        out = {
            "page": self.page,
            "file": self.file,
            "line": self.line,
            "sink": self.sink,
            "check": self.check,
            "policy": self.policy,
            "category": self.category,
            "status": self.status,
            "reasons": dict(self.reasons),
            "oracle": self.oracle,
        }
        if self.diff:
            out["diff"] = self.diff
        if self.verification is not None:
            out["verification"] = self.verification
        if self.guard_path:
            out["guard"] = self.guard_path
        if self.guard_self_test is not None:
            out["guard_self_test"] = self.guard_self_test
        return out


@dataclass
class RemediationReport:
    """Everything one :func:`remediate_project` run decided."""

    root: str
    pages: list[str]
    entries: list[FindingFix] = field(default_factory=list)
    #: kept patches in verification order (original-tree coordinates)
    patches: list[Patch] = field(default_factory=list)
    diffs: list[str] = field(default_factory=list)
    applied: bool = False
    #: page results of the pre-patch analysis (``.page`` / ``.reports``),
    #: reusable for SARIF export
    page_results: list = field(default_factory=list)

    @property
    def fixed(self) -> list[FindingFix]:
        return [entry for entry in self.entries if entry.fixed]

    @property
    def unfixable(self) -> list[FindingFix]:
        return [entry for entry in self.entries if not entry.fixed]

    def as_dict(self) -> dict:
        return {
            "root": self.root,
            "pages": list(self.pages),
            "applied": self.applied,
            "findings": len(self.entries),
            "fixed": len(self.fixed),
            "unfixable": len(self.unfixable),
            "patches": [
                {
                    "file": patch.file,
                    "kind": patch.kind,
                    "description": patch.description,
                    "replacements": [
                        [start, end, text]
                        for start, end, text in patch.replacements
                    ],
                }
                for patch in self.patches
            ],
            "entries": [entry.as_dict() for entry in self.entries],
        }

    def render(self) -> str:
        lines = [
            f"remediation: {len(self.fixed)} fixed / "
            f"{len(self.unfixable)} unfixable "
            f"({len(self.entries)} unsafe finding(s), "
            f"{len(self.patches)} patch(es)"
            + (", applied)" if self.applied else ")")
        ]
        for entry in self.entries:
            head = (
                f"{entry.file}:{entry.line} ({entry.sink}, "
                f"{entry.policy}/{entry.check}): {entry.status}"
            )
            if entry.fixed and entry.oracle:
                head += f" [oracle: {entry.oracle}]"
            lines.append(head)
            if not entry.fixed:
                for rung, reason in entry.reasons.items():
                    lines.append(f"  {rung}: {reason}")
                if entry.guard_path:
                    lines.append(f"  guard profile: {entry.guard_path}")
        for diff in self.diffs:
            if diff:
                lines.append("")
                lines.append(diff.rstrip("\n"))
        return "\n".join(lines)

    def sarif_fixes(self) -> dict:
        """``(rel_file, line, sink, check, policy) → [fix]`` for the
        SARIF ``fixes[]`` export (:func:`repro.analysis.sarif.results_to_sarif`)."""
        root = Path(self.root)
        fixes: dict = {}
        for entry in self.entries:
            if not entry.fixed or entry.patch is None:
                continue
            key = (entry.file, entry.line, entry.sink, entry.check, entry.policy)
            fixes.setdefault(key, []).append(sarif_fix(entry.patch, root))
        return fixes


def sarif_fix(patch: Patch, root: Path) -> dict:
    """``patch`` as a SARIF 2.1.0 ``fix`` object (original-tree
    coordinates; charOffset/charLength per §3.30.11)."""
    from repro.analysis.sarif import _relative_uri

    return {
        "description": {"text": patch.description},
        "artifactChanges": [
            {
                "artifactLocation": _relative_uri(patch.file, root),
                "replacements": [
                    {
                        "deletedRegion": {
                            "charOffset": start,
                            "charLength": end - start,
                        },
                        "insertedContent": {"text": text},
                    }
                    for start, end, text in patch.replacements
                ],
            }
        ],
    }


def _shift_patch(patch: Patch, applied: dict[str, list]) -> Patch | None:
    """``patch`` translated from original-tree to current-workspace byte
    coordinates given the kept splices, or None when it overlaps one."""
    splices = applied.get(patch.file, [])
    shifted = []
    for start, end, replacement in patch.replacements:
        delta = 0
        for a_start, a_end, new_length in splices:
            if a_end <= start:
                delta += new_length - (a_end - a_start)
            elif a_start >= end:
                continue
            else:
                return None
        shifted.append((start + delta, end + delta, replacement))
    return Patch(
        file=patch.file,
        kind=patch.kind,
        replacements=shifted,
        description=patch.description,
    )


def _rel(path: str, root: Path) -> str:
    try:
        return Path(path).resolve().relative_to(root).as_posix()
    except ValueError:
        return Path(path).as_posix()


def remediate_project(
    project_root: str | Path,
    pages: list[str] | None = None,
    policies=None,
    apply: bool = False,
    guard_dir: str | Path | None = None,
    diff_dir: str | Path | None = None,
    parse_cache: dict | None = None,
    oracle: bool = True,
) -> RemediationReport:
    """Synthesize, verify, and (optionally) apply fixes for every unsafe
    finding of ``project_root``.

    ``pages`` are project-root-relative entry pages (default: the
    :func:`~repro.analysis.analyzer.entry_pages` heuristic); ``apply``
    writes kept patches back to the real tree; ``guard_dir`` /
    ``diff_dir`` export guard profiles and unified diffs; ``oracle``
    gates the concrete witness cross-check.
    """
    from repro.analysis.analyzer import _check_spot, entry_pages
    from repro.analysis.stringtaint import StringTaintAnalysis

    root = Path(project_root).resolve()
    if pages is None:
        pages = [
            page.relative_to(root).as_posix() for page in entry_pages(root)
        ]
    else:
        pages = [str(page) for page in pages]
    report = RemediationReport(root=str(root), pages=pages)

    # --- pre-patch analysis: grammars + reports, page by page -----
    work: list[tuple[str, object, object, object]] = []
    for page in pages:
        with PERF.timer("remediate.analyze"):
            analysis = StringTaintAnalysis(
                root, parse_cache=parse_cache, policies=policies
            )
            result = analysis.analyze_file(root / page)
            reports = [
                _check_spot(result.grammar, spot, policies)
                for spot in result.hotspots
            ]
        report.page_results.append(
            SimpleNamespace(page=page, reports=reports)
        )
        for spot, spot_report in zip(result.hotspots, reports):
            for finding in spot_report.findings:
                if not finding.safe:
                    work.append((page, result, spot, finding))

    if not work:
        return report

    # --- shared file/AST caches over the pristine tree ------------
    texts: dict[str, str] = {}
    trees: dict[str, object] = {}

    def read_source(file: str) -> str:
        if file not in texts:
            texts[file] = Path(file).read_text()
        return texts[file]

    def parse_source(file: str):
        for page_result in (result for _, result, _, _ in work):
            tree = page_result.trees.get(str(Path(file).resolve()))
            if tree is not None:
                return tree
        if file not in trees:
            from repro.php.parser import PhpParseError, parse

            try:
                trees[file] = parse(read_source(file), file)
            except (PhpParseError, OSError):
                trees[file] = None
        return trees[file]

    workspace = Workspace(root)
    try:
        baseline = analyze_tree(workspace.root, pages, policies=policies)
        applied: dict[str, list] = {}
        rejected: dict[tuple, str] = {}
        kept_diffs: list[str] = []
        guard_dir_path = Path(guard_dir) if guard_dir else None
        if guard_dir_path:
            guard_dir_path.mkdir(parents=True, exist_ok=True)
        diff_dir_path = Path(diff_dir) if diff_dir else None
        if diff_dir_path:
            diff_dir_path.mkdir(parents=True, exist_ok=True)

        for page, result, spot, finding in work:
            entry = FindingFix(
                page=page,
                file=_rel(finding.file, root),
                line=finding.line,
                sink=finding.sink,
                check=finding.check,
                policy=finding.policy or "sql",
                category=finding.category,
            )
            report.entries.append(entry)
            key = finding_key(finding, root)
            if baseline[key] == 0:
                # an earlier kept patch already removed this key
                entry.status = STATUS_ALREADY_FIXED
                continue

            candidates: list[Patch] = []
            with PERF.timer("remediate.synthesize"):
                if entry.policy == "sql":
                    tree = parse_source(finding.file)
                    if tree is None:
                        entry.reasons["prepared"] = (
                            "sink-file-unparseable"
                        )
                    else:
                        patch, reason = synthesize_prepared(
                            read_source(finding.file), tree, finding,
                            policies,
                        )
                        if patch is not None:
                            candidates.append(patch)
                        else:
                            entry.reasons["prepared"] = reason
                else:
                    entry.reasons["prepared"] = REASON_NOT_SQL
                patch, reason = synthesize_sanitizer(
                    finding, read_source, parse_source
                )
                if patch is not None:
                    candidates.append(patch)
                else:
                    entry.reasons["sanitize"] = reason
            PERF.incr("remediate.candidates", len(candidates))

            for patch in candidates:
                if patch.key() in rejected:
                    entry.reasons[patch.kind] = rejected[patch.key()]
                    continue
                shifted = _shift_patch(patch, applied)
                if shifted is None:
                    entry.reasons[patch.kind] = REASON_OVERLAP
                    continue
                with PERF.timer("remediate.verify"):
                    verification, baseline_after = verify_patch(
                        workspace,
                        shifted,
                        [key],
                        pages,
                        baseline,
                        policies=policies,
                        oracle_findings=(
                            [(page, finding)] if oracle else None
                        ),
                    )
                if not verification.verified:
                    rejected[patch.key()] = verification.reason
                    entry.reasons[patch.kind] = verification.reason
                    continue
                baseline = baseline_after
                for start, end, text in patch.replacements:
                    applied.setdefault(patch.file, []).append(
                        (start, end, len(text))
                    )
                entry.status = (
                    STATUS_FIXED_PREPARED
                    if patch.kind == "prepared"
                    else STATUS_FIXED_SANITIZER
                )
                entry.diff = patch.unified_diff(
                    read_source(patch.file), _rel(patch.file, root)
                )
                entry.verification = verification.as_dict()
                entry.patch = patch
                entry.oracle = verification.oracle
                report.patches.append(patch)
                kept_diffs.append(entry.diff)
                PERF.incr("remediate.verified")
                break

            if not entry.fixed:
                with PERF.timer("remediate.guard"):
                    profile = compile_guard(
                        result.grammar,
                        spot.query.nt,
                        finding,
                        site={
                            "file": entry.file,
                            "line": entry.line,
                            "sink": entry.sink,
                            "page": page,
                        },
                    )
                entry.guard_self_test = profile["self_test"]
                PERF.incr("remediate.guards")
                if guard_dir_path:
                    stem = Path(entry.file).stem
                    name = (
                        f"guard-{len(report.entries):03d}-{stem}"
                        f"-L{entry.line}-{entry.check}.json"
                    )
                    path = guard_dir_path / name
                    path.write_text(
                        json.dumps(profile, indent=2, sort_keys=True)
                        + "\n"
                    )
                    entry.guard_path = str(path)

        report.diffs = kept_diffs
        if diff_dir_path:
            for index, (patch, diff) in enumerate(
                zip(report.patches, kept_diffs), start=1
            ):
                stem = Path(patch.file).stem
                name = f"fix-{index:03d}-{patch.kind}-{stem}.diff"
                (diff_dir_path / name).write_text(diff)

        if apply and applied:
            for file in applied:
                Path(file).write_text(workspace.read(file))
            report.applied = True
    finally:
        workspace.close()

    return report


def fix_main(argv: list[str] | None = None) -> int:
    """``sqlciv fix`` — synthesize and verify patches for a project."""
    from repro.analysis.cli import EXIT_USAGE, EXIT_VERIFIED, EXIT_VIOLATIONS

    parser = argparse.ArgumentParser(
        prog="sqlciv fix",
        description=(
            "Synthesize, verify, and optionally apply fixes for every "
            "unsafe finding (prepared-statement rewrites, sanitizer "
            "insertions, guard profiles for the rest)."
        ),
    )
    parser.add_argument("root", help="project root directory")
    parser.add_argument(
        "pages", nargs="*",
        help="entry pages to remediate (default: every top-level page)",
    )
    parser.add_argument(
        "--policy-config", metavar="FILE",
        help="policy YAML enabling additional sink policies",
    )
    parser.add_argument(
        "--apply", action="store_true",
        help="write verified patches back to the project tree",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--sarif", metavar="FILE",
        help="write the findings + fixes[] as a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--diff-dir", metavar="DIR",
        help="write each verified patch as a unified diff file",
    )
    parser.add_argument(
        "--guard-dir", metavar="DIR",
        help="write a guard profile JSON for each unfixable finding",
    )
    parser.add_argument(
        "--no-oracle", action="store_true",
        help="skip the concrete witness cross-check",
    )
    args = parser.parse_args(argv)

    root = Path(args.root)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    policies = None
    if args.policy_config:
        from repro.analysis.policies import (
            PolicyConfigError,
            load_policy_config,
        )

        try:
            policies = load_policy_config(args.policy_config)
        except PolicyConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    report = remediate_project(
        root,
        pages=args.pages or None,
        policies=policies,
        apply=args.apply,
        guard_dir=args.guard_dir,
        diff_dir=args.diff_dir,
        oracle=not args.no_oracle,
    )

    if args.sarif:
        from repro.analysis.sarif import write_sarif

        write_sarif(
            args.sarif, root, report.page_results, policies,
            fixes=report.sarif_fixes(),
        )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    if not report.entries or not report.unfixable:
        return EXIT_VERIFIED
    return EXIT_VIOLATIONS
