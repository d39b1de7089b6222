"""The ``repro check`` subcommand: run the static rules over a tree.

Exit codes: 0 — clean (all findings suppressed or none); 1 — findings;
2 — usage error.  See ``docs/analysis.md`` for the rule catalogue and
the inline suppression format.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .base import AnalysisConfig, CheckResult, DEFAULT_CONFIG
from .locks import build_lock_graph
from .project import Project
from .rules import RULES

__all__ = ["main", "run_check"]


def run_check(
    project: Project,
    config: AnalysisConfig,
    rule_names: "Sequence[str] | None" = None,
) -> CheckResult:
    """Run the (selected) rules of :data:`~repro.analysis.rules.RULES`
    over ``project``."""
    result = CheckResult()
    suppressions = {
        str(mod.path): mod.suppressions() for mod in project.modules.values()
    }
    for rule in RULES:
        if rule_names and rule.name not in rule_names:
            continue
        for finding in rule.check(project, config):
            allowed = suppressions.get(finding.path, {}).get(finding.line, set())
            if finding.rule in allowed:
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return result


def _verify_lockdep_report(
    report_path: Path, project: Project, config: AnalysisConfig
) -> "tuple[bool, str]":
    """Validate a lockdep JSON report against the static graph."""
    from .lockdep import verify

    payload = json.loads(report_path.read_text(encoding="utf-8"))
    observed: dict[tuple[str, str], int] = {}
    for key, count in payload.get("observed_edges", {}).items():
        src, _, dst = key.partition(" -> ")
        observed[(src, dst)] = int(count)
    graph = build_lock_graph(project, config)
    report = verify(observed, graph.edge_pairs())
    return report.ok, report.summary()


def build_arg_parser() -> argparse.ArgumentParser:
    """The ``repro check`` argument parser (``repro.cli.main`` hands
    ``check`` and everything after it straight to :func:`main`)."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Static project-invariant analysis (see docs/analysis.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--lockdep-report",
        default=None,
        help="also validate a lockdep JSON report against the static lock graph",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rules and exit",
    )
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """Entry point for ``repro check``; returns the exit code."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.description}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro check: no such path: {missing[0]}", file=sys.stderr)
        return 2

    try:
        project = Project.load(paths)
    except SyntaxError as exc:
        print(f"repro check: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2

    config = DEFAULT_CONFIG
    result = run_check(project, config, rule_names=args.rule)
    exit_code = 0 if result.clean else 1

    for finding in result.findings:
        print(finding.render())
    print(
        f"repro check: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} inline-suppressed"
    )

    if args.lockdep_report:
        report_path = Path(args.lockdep_report)
        if not report_path.is_file():
            print(f"repro check: no such report: {report_path}", file=sys.stderr)
            return 2
        ok, summary = _verify_lockdep_report(report_path, project, config)
        print(summary)
        if not ok:
            exit_code = 1

    return exit_code
