#!/usr/bin/env python3
"""Compares two sets of e2e_bench result records: a parent and a change.

    python3 bench_e2e/compare.py --parent PARENT... --change CHANGE...

Each PARENT/CHANGE argument is a result record written by run.py (or
e2e_bench --out) or a directory of them (*.json, trace files skipped).
For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles, the share of pairs the change won, and a
verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range;
  worse       otherwise, when the change's median is worse than the
              parent's by more than the metric's bound (a share of the
              parent median);
  unresolved  otherwise, when the parent's own spread (IQR / median) is
              wider than the bound and not every change run beat every
              parent run;
  no worse    otherwise.

Only untraced records count. Runs are paired by seed when both sides ran
the same seeds, else in seed order; ties count for neither side.

Absolute numbers from different hosts do not compare: the script refuses
(exit 2) when the records' host fingerprints differ in anything but the
commit. It exits 1 when any metric is worse, else 0.

    python3 bench_e2e/compare.py --summary RESULTS...

prints the median and quartiles of one set as JSON instead (the form of
bench_e2e/baseline.json).
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "bfce_threads", "avx512", "compiler", "build_type")


def load(paths):
    records = []
    for path in paths:
        files = (sorted(glob.glob(os.path.join(path, "*.json")))
                 if os.path.isdir(path) else [path])
        for name in files:
            if name.endswith(".trace.json"):
                continue
            with open(name) as f:
                record = json.load(f)
            if record.get("bench") == "e2e_bench":
                records.append(record)
    return records


def host_key(record):
    return tuple(record["host"].get(k) for k in HOST_KEYS)


def incomparable(records):
    """Why `records` cannot be compared, or None: they must come from one
    host fingerprint (the commit aside) and, per workload, one run length
    and configuration."""
    hosts = {host_key(r) for r in records}
    if len(hosts) > 1:
        return "different hosts:\n" + "\n".join(
            "  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, key))
            for key in sorted(hosts, key=str))
    setups = {}
    for r in records:
        setups.setdefault(r["workload"], set()).add(
            json.dumps([r["seconds"], r["config"]], sort_keys=True))
    mixed = sorted(w for w, s in setups.items() if len(s) > 1)
    if mixed:
        return ("different --seconds or configurations for: " +
                ", ".join(mixed))
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(records, workload, metric):
    runs = [r for r in records
            if r["workload"] == workload and not r["traced"] and
            metric in r["end_to_end"]]
    runs.sort(key=lambda r: r["seed"])
    return [(r["seed"], r["end_to_end"][metric]["value"]) for r in runs]


def pairs(parent, change):
    parent_by_seed, change_by_seed = dict(parent), dict(change)
    common = sorted(set(parent_by_seed) & set(change_by_seed))
    if len(common) == min(len(parent), len(change)):
        return [(parent_by_seed[s], change_by_seed[s]) for s in common]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def wins(matched, sign):
    return sum(1 for p, c in matched if sign * (c - p) > 0)


def verdict(parent, change, matched, sign, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    if matched and wins(matched, sign) >= 0.9 * len(matched) and \
            gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * abs(p_med):
        return "worse"
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and \
            min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "no worse"


def compare(parent_records, change_records, spec):
    problem = incomparable(parent_records + change_records)
    if problem:
        print("compare.py: refusing to compare records from " + problem,
              file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    header = "%-20s %-34s %-28s %-28s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "verdict")
    print(header)
    print("-" * len(header))
    worse = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = series(parent_records, workload, name)
            change = series(change_records, workload, name)
            if not parent or not change:
                continue
            matched = pairs(parent, change)
            p_vals = [v for _, v in parent]
            c_vals = [v for _, v in change]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            result = verdict(p_vals, c_vals, matched, sign, metric["bound"])
            worse = worse or result == "worse"
            fmt = "%.4g [%.4g, %.4g]"
            p_q = quartiles(p_vals)
            c_q = quartiles(c_vals)
            print("%-20s %-34s %-28s %-28s %6s  %s" % (
                workload, name, fmt % (p_q[1], p_q[0], p_q[2]),
                fmt % (c_q[1], c_q[0], c_q[2]),
                "%d/%d" % (wins(matched, sign), len(matched)), result))
    return 1 if worse else 0


def summary(records, spec):
    problem = incomparable(records) if records else "no records"
    if problem:
        print("compare.py: cannot summarize " + problem, file=sys.stderr)
        return 2
    out = {"host": {k: v for k, v in records[0]["host"].items()
                    if k != "commit"},
           "commits": sorted({r["host"]["commit"] for r in records}),
           "seconds": records[0]["seconds"],
           "workloads": {}}
    for w in spec["workloads"]:
        rows = {}
        for metric in spec["end_to_end"]:
            values = [v for _, v in series(records, w["name"],
                                           metric["name"])]
            if values:
                q1, med, q3 = quartiles(values)
                rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                        "runs": len(values),
                                        "unit": metric["unit"]}
        out["workloads"][w["name"]] = rows
    print(json.dumps(out, indent=1))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--summary", nargs="+")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.summary:
        return summary(load(args.summary), spec)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        parser.error("both --parent and --change need result records")
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())
