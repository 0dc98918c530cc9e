"""Command-line front end: ``python -m tools.reprolint`` / ``repro lint``.

Exit status: 0 when there are no findings, 1 when there are any, 2 on
usage errors.  There is no baseline to grandfather a finding: fix it, or
suppress it inline with a ``# reprolint: disable=RULE`` comment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.reprolint.engine import DEFAULT_PATHS, lint_paths
from tools.reprolint.rules import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Invariant-aware static analysis for this repo: lock-guarded "
            "state, resource lifecycles, wire-format golden coverage, "
            "executor futures, codec determinism, and test-only public API."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root (default: auto-detected from this file)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="RL001,RL002",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write a JSON report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def _detect_root(explicit: Path | None) -> Path:
    if explicit is not None:
        return explicit.resolve()
    here = Path(__file__).resolve()
    for candidate in here.parents:
        if (candidate / "tools" / "reprolint").is_dir() and (
            candidate / "src"
        ).is_dir():
            return candidate
    return Path.cwd().resolve()


def _list_rules() -> int:
    for rule_id, cls in sorted(all_rules().items()):
        print(f"{rule_id}  {cls.name}")
        print(f"       {cls.description}")
    return 0


def _report_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if str(path) == "-":
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        return _list_rules()

    root = _detect_root(args.root)
    rule_ids = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        result = lint_paths(root, args.paths or None, rule_ids)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    for finding in result.findings:
        print(finding.render())
    summary = (
        f"reprolint: {result.n_files} file(s), {len(result.rules_run)} rule(s): "
        f"{len(result.findings)} finding(s)"
    )
    print(summary)

    if args.json is not None:
        _report_json(
            args.json,
            {
                "files": result.n_files,
                "rules": result.rules_run,
                "findings": [f.to_json() for f in result.findings],
            },
        )

    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
