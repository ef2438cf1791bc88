"""Analysis driver: file discovery, parsing, rule dispatch, suppression
application and the human-readable report.

File discovery prefers the compile database (`compile_commands.json`
exported by any build dir under the root) for the .cpp list — exactly
the TUs the build compiles — and always unions in headers by glob, since
headers never appear in a compile database.  Without a compile database
it falls back to a pure glob, so the analyzer works on a fresh checkout
before the first configure.
"""

from __future__ import annotations

import datetime
import json
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


def _compile_db_files(root: str) -> list[str]:
    """Repo-relative .cpp files named by any compile_commands.json under
    the root's build directories (first one found wins)."""
    candidates = [os.path.join(root, "compile_commands.json")]
    try:
        for entry in sorted(os.listdir(root)):
            if entry.startswith("build"):
                candidates.append(
                    os.path.join(root, entry, "compile_commands.json"))
    except OSError:
        pass
    for cand in candidates:
        if not os.path.isfile(cand):
            continue
        try:
            with open(cand, encoding="utf-8") as fh:
                db = json.load(fh)
        except (OSError, ValueError):
            continue
        rels = []
        for tu in db:
            f = tu.get("file", "")
            if not os.path.isabs(f):
                f = os.path.join(tu.get("directory", root), f)
            rel = _rel(root, f)
            if not rel.startswith(".."):
                rels.append(rel)
        if rels:
            return rels
    return []


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
    db_cpps = [r for r in _compile_db_files(root)
               if r.startswith(DEFAULT_SCAN_PREFIX)]
    globbed = _glob_sources(root, DEFAULT_SCAN_PREFIX)
    if db_cpps:
        headers = [r for r in globbed if r.endswith(HDR_EXTS)]
        return sorted(set(db_cpps) | set(headers))
    return sorted(set(globbed))


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
