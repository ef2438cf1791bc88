#!/usr/bin/env python3
"""Self-test corpus for tools/analyze.

Each directory under tests/analyzer/fixtures/ is a miniature repo root
(with its own src/) for one rule family.  Files named good_* must
produce zero findings; files named bad_* declare the exact rule set
they must trip via `// expect: <rule-id>` comments.  On top of the
per-file checks this runner asserts the documented exit codes
(0 = clean, 1 = findings, 2 = usage error) and structurally validates
the SARIF 2.1.0 output.

Today's date is pinned (--today) so expiry fixtures never rot.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
ANALYZER = [sys.executable, os.path.join(REPO, "tools", "analyze")]
FIXTURES = os.path.join(HERE, "fixtures")
TODAY = "2026-01-01"  # pinned: fixture expiry dates are relative to this

FINDING_RE = re.compile(
    r"^(?P<rel>[^:]+):(?P<line>\d+):(?P<col>\d+): error: "
    r"\[(?P<rule>[a-z0-9-]+)\] ")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z0-9-]+)")

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(f"FAIL: {msg}")


def run_analyzer(root: str, extra: list[str] | None = None,
                 ) -> tuple[int, str, str]:
    cmd = ANALYZER + ["--root", root, "--today", TODAY] + (extra or [])
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def parse_findings(stdout: str) -> dict[str, set[str]]:
    """Map of repo-relative file -> set of rules that fired in it."""
    by_file: dict[str, set[str]] = {}
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            by_file.setdefault(m.group("rel"), set()).add(m.group("rule"))
    return by_file


def expectations(family_dir: str) -> dict[str, set[str]]:
    exp: dict[str, set[str]] = {}
    for dirpath, _dirnames, filenames in os.walk(family_dir):
        for fname in sorted(filenames):
            if not fname.endswith((".cpp", ".hpp", ".h")):
                continue
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, family_dir).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                rules = set(EXPECT_RE.findall(fh.read()))
            exp[rel] = rules
    return exp


def check_family(family: str) -> None:
    family_dir = os.path.join(FIXTURES, family)
    code, stdout, stderr = run_analyzer(family_dir)
    if stderr.strip():
        fail(f"{family}: analyzer wrote to stderr: {stderr.strip()}")
    actual = parse_findings(stdout)
    exp = expectations(family_dir)
    any_expected = any(exp.values())
    want_code = 1 if any_expected else 0
    if code != want_code:
        fail(f"{family}: exit code {code}, want {want_code}\n{stdout}")
    for rel, rules in sorted(exp.items()):
        base = os.path.basename(rel)
        got = actual.pop(rel, set())
        if base.startswith("good_") or not rules:
            if got:
                fail(f"{family}/{rel}: expected clean, got {sorted(got)}")
        elif got != rules:
            fail(f"{family}/{rel}: expected rules {sorted(rules)}, "
                 f"got {sorted(got)}")
    for rel, got in sorted(actual.items()):
        fail(f"{family}/{rel}: unexpected findings {sorted(got)}")
    if not failures:
        print(f"ok: {family} ({len(exp)} fixtures)")


def check_exit_codes() -> None:
    """The documented exit-code contract, exercised end to end."""
    supp = os.path.join(FIXTURES, "suppression")
    # 0: a clean subset (the two good fixtures only).
    code, _, _ = run_analyzer(supp, ["src/good_block_comment.cpp",
                                     "src/good_inline.cpp"])
    if code != 0:
        fail(f"exit-code contract: clean subset returned {code}, want 0")
    # 1: a stale suppression alone fails the build.
    code, out, _ = run_analyzer(supp, ["src/bad_stale.cpp"])
    if code != 1 or "suppression-stale" not in out:
        fail(f"exit-code contract: stale suppression returned {code} "
             f"(want 1 with suppression-stale)")
    # 1: a missing expiry alone fails the build.
    code, out, _ = run_analyzer(supp, ["src/bad_missing_expiry.cpp"])
    if code != 1 or "suppression-missing-expiry" not in out:
        fail(f"exit-code contract: missing expiry returned {code} "
             f"(want 1 with suppression-missing-expiry)")
    # 2: usage error (malformed --today).
    cmd = ANALYZER + ["--root", supp, "--today", "not-a-date"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 2:
        fail(f"exit-code contract: bad --today returned {proc.returncode}, "
             f"want 2")
    print("ok: exit-code contract")


def check_stale_build_tree() -> None:
    """A compile database left in a build tree must not decide what is
    scanned: one naming only a missing file sits beside a bad fixture,
    and the fixture's rule must still fire."""
    fixture = os.path.join(FIXTURES, "rng_provenance", "src",
                           "bad_literal_seed.cpp")
    with open(fixture, encoding="utf-8") as fh:
        text = fh.read()
    rules = set(EXPECT_RE.findall(text))
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src"))
        with open(os.path.join(tmp, "src", "bad_literal_seed.cpp"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        os.makedirs(os.path.join(tmp, "build-stale"))
        with open(os.path.join(tmp, "build-stale", "compile_commands.json"),
                  "w", encoding="utf-8") as fh:
            json.dump([{"directory": tmp, "file": "src/removed.cpp",
                        "command": "c++ -c src/removed.cpp"}], fh)
        code, stdout, _ = run_analyzer(tmp)
    got = parse_findings(stdout).get("src/bad_literal_seed.cpp", set())
    if code != 1 or got != rules:
        fail(f"stale build tree: exit {code} with rules {sorted(got)}, "
             f"want 1 with {sorted(rules)}")
    else:
        print("ok: stale build tree does not narrow the scan")


def check_sarif() -> None:
    """Structural validation of the SARIF 2.1.0 output on a family that
    fires several rules."""
    family_dir = os.path.join(FIXTURES, "determinism")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.sarif")
        code, _, _ = run_analyzer(family_dir, ["--sarif", out_path])
        if code != 1:
            fail(f"sarif: determinism family returned {code}, want 1")
            return
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    if doc.get("version") != "2.1.0":
        fail(f"sarif: version {doc.get('version')!r}, want '2.1.0'")
    if "sarif-schema-2.1.0" not in doc.get("$schema", ""):
        fail("sarif: $schema does not reference the 2.1.0 schema")
    runs = doc.get("runs")
    if not isinstance(runs, list) or len(runs) != 1:
        fail("sarif: expected exactly one run")
        return
    run = runs[0]
    driver = run.get("tool", {}).get("driver", {})
    rules = driver.get("rules", [])
    if driver.get("name") != "bfce-analyze" or not rules:
        fail("sarif: tool.driver must carry a name and a rule catalogue")
    rule_ids = [r.get("id") for r in rules]
    if len(rule_ids) != len(set(rule_ids)):
        fail("sarif: duplicate rule ids in the driver catalogue")
    results = run.get("results", [])
    if not results:
        fail("sarif: no results for a family full of bad fixtures")
    for res in results:
        rid = res.get("ruleId")
        idx = res.get("ruleIndex")
        if rid not in rule_ids:
            fail(f"sarif: result ruleId {rid!r} not in driver catalogue")
        elif rule_ids[idx] != rid:
            fail(f"sarif: ruleIndex {idx} does not point at {rid!r}")
        locs = res.get("locations", [])
        if not locs:
            fail(f"sarif: result for {rid!r} has no locations")
            continue
        phys = locs[0].get("physicalLocation", {})
        art = phys.get("artifactLocation", {})
        region = phys.get("region", {})
        if art.get("uriBaseId") != "SRCROOT" or not art.get("uri"):
            fail(f"sarif: result for {rid!r} lacks a SRCROOT-relative uri")
        if not isinstance(region.get("startLine"), int) or \
                region["startLine"] < 1:
            fail(f"sarif: result for {rid!r} lacks a 1-based startLine")
        if res.get("level") != "error":
            fail(f"sarif: result for {rid!r} must be level=error")
    bases = run.get("originalUriBaseIds", {})
    if "SRCROOT" not in bases:
        fail("sarif: originalUriBaseIds must define SRCROOT")
    if not failures:
        print(f"ok: sarif structure ({len(results)} results)")


def main() -> int:
    families = sorted(
        d for d in os.listdir(FIXTURES)
        if os.path.isdir(os.path.join(FIXTURES, d)))
    if not families:
        print("FAIL: no fixture families found")
        return 1
    for family in families:
        check_family(family)
    check_exit_codes()
    check_stale_build_tree()
    check_sarif()
    if failures:
        print(f"\n{len(failures)} fixture check(s) failed")
        return 1
    print(f"\nall fixture checks passed ({len(families)} families)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
