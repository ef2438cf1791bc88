"""CLI entry point: `python3 tools/analyze [paths...]`.

Exit codes (stable, scripted against by tools/ci.sh and the fixture
runner):

    0  clean — no findings
    1  findings reported (including suppression-hygiene findings)
    2  usage or internal error
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

if __package__ in (None, ""):  # `python3 tools/analyze` (PEP 366)
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import analyze  # noqa: F401  (registers the package)
    __package__ = "analyze"

from .catalog import RULES
from .engine import render_human, run_analysis
from .sarif import write_sarif


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="tools/analyze",
        description="bfce semantic invariant analyzer")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to scan "
                         "(default: every source and header under "
                         "<root>/src)")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--sarif", metavar="OUT",
                    help="also write findings as SARIF 2.1.0 to OUT")
    ap.add_argument("--today", metavar="YYYY-MM-DD",
                    help="override today's date for suppression-expiry "
                         "checks (tests use this for determinism)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalogue and exit")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    if args.list_rules:
        width = max(len(r.id) for r in RULES)
        fam = None
        for r in RULES:
            if r.family != fam:
                fam = r.family
                print(f"[{fam}]")
            print(f"  {r.id:<{width}}  {r.short}")
        return 0

    today = None
    if args.today:
        try:
            today = datetime.date.fromisoformat(args.today)
        except ValueError:
            print(f"analyze: bad --today date '{args.today}'",
                  file=sys.stderr)
            return 2

    try:
        findings, scanned = run_analysis(args.root, args.paths or None,
                                         today=today)
    except OSError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2

    render_human(findings, len(scanned))
    if args.sarif:
        root_uri = "file://" + os.path.abspath(args.root).rstrip("/") + "/"
        write_sarif(args.sarif, findings, root_uri)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
