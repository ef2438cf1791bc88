"""Analysis driver: file discovery, parsing, rule dispatch, suppression
application and the human-readable report.

File discovery globs every source and header under src/ (or the given
paths). Every .cpp there is listed in a CMakeLists, so a compile
database would narrow nothing, and a stale one from an old build tree
would hide files added since.
"""

from __future__ import annotations

import datetime
import os
import sys

from . import (rules_draws, rules_exec, rules_legacy, rules_locks, rules_rng)
from .findings import Finding, apply_suppressions, collect_suppressions
from .model import Repo, mark_deferred_lambdas, parse_file

CPP_EXTS = (".cpp", ".cc", ".cxx")
HDR_EXTS = (".hpp", ".hh", ".h", ".hxx")
DEFAULT_SCAN_PREFIX = "src/"


def _rel(root: str, path: str) -> str:
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")


def _glob_sources(root: str, prefix: str) -> list[str]:
    rels = []
    base = os.path.join(root, prefix)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(CPP_EXTS + HDR_EXTS):
                rels.append(_rel(root, os.path.join(dirpath, fname)))
    return rels


def discover(root: str, paths: list[str] | None = None) -> list[str]:
    """Repo-relative files to scan. Explicit `paths` (files or dirs)
    override the default src/ sweep."""
    if paths:
        rels: list[str] = []
        for p in paths:
            ap = p if os.path.isabs(p) else os.path.join(root, p)
            if os.path.isdir(ap):
                rels.extend(_glob_sources(root, _rel(root, ap)))
            elif os.path.isfile(ap):
                rels.append(_rel(root, ap))
        return sorted(set(rels))
    return sorted(set(_glob_sources(root, DEFAULT_SCAN_PREFIX)))


RULE_MODULES = (rules_rng, rules_locks, rules_exec, rules_draws, rules_legacy)


def run_analysis(root: str, paths: list[str] | None = None,
                 today: datetime.date | None = None,
                 ) -> tuple[list[Finding], list[str]]:
    rels = discover(root, paths)
    repo = Repo()
    for rel in rels:
        try:
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"analyze: cannot read {rel}: {exc}", file=sys.stderr)
            continue
        repo.files[rel] = parse_file(rel, text)
    mark_deferred_lambdas(repo)

    scanned = set(repo.files)
    findings: list[Finding] = []
    for mod in RULE_MODULES:
        findings.extend(mod.run(repo, scanned))

    # Dedupe (a rule may blame the same site via two paths), keep stable
    # file/line order.
    seen: set[tuple[str, str, int]] = set()
    unique: list[Finding] = []
    for f in sorted(findings, key=lambda f: (f.rel, f.line, f.rule)):
        if f.key() in seen:
            continue
        seen.add(f.key())
        unique.append(f)

    suppressions = {rel: collect_suppressions(rel, fm.comments)
                    for rel, fm in repo.files.items()}
    surviving = apply_suppressions(unique, suppressions, today)
    surviving.sort(key=lambda f: (f.rel, f.line, f.rule))
    return surviving, sorted(scanned)


def render_human(findings: list[Finding], scanned_count: int,
                 out=None) -> None:
    out = out or sys.stdout
    for f in findings:
        print(f"{f.rel}:{f.line}:{f.col}: error: [{f.rule}] {f.message}",
              file=out)
    noun = "finding" if len(findings) == 1 else "findings"
    print(f"analyze: {len(findings)} {noun} in {scanned_count} files",
          file=out)
