"""``repro lint`` — command-line front end for the analyzer."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, TextIO

from repro.lint.engine import run_lint
from repro.lint.registry import all_rules, get_rule, select_rules
from repro.lint.reporters import render_json, render_sarif, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (json is the CI artifact form; sarif feeds "
        "GitHub code scanning)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids or families to run (e.g. DET,GEN002)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE-ID",
        default=None,
        help="print the catalog entry for one rule (summary, rationale, "
        "good/bad example) and exit",
    )


def _explain(rule_id: str, stream: TextIO) -> int:
    try:
        rule = get_rule(rule_id)
    except KeyError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(f"{rule.id} ({rule.family})  {rule.summary}", file=stream)
    print(f"\n{rule.rationale}", file=stream)
    if rule.good_example:
        print("\ngood:", file=stream)
        for line in rule.good_example.splitlines():
            print(f"    {line}", file=stream)
    if rule.bad_example:
        print("\nbad:", file=stream)
        for line in rule.bad_example.splitlines():
            print(f"    {line}", file=stream)
    return 0


def run(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro lint``; returns the process exit code."""
    stream = out if out is not None else sys.stdout
    if args.explain:
        return _explain(args.explain, stream)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.summary}", file=stream)
        return 0
    try:
        rules = select_rules(args.select.split(",")) if args.select else None
        report = run_lint(args.paths, rules=rules)
    except (FileNotFoundError, KeyError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        stream.write(render_json(report))
    elif args.format == "sarif":
        stream.write(render_sarif(report))
    else:
        print(render_text(report), file=stream)
    return 0 if report.ok else 1
