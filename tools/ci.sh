#!/usr/bin/env bash
# CI entry point: lints first, then the preset build/test matrix.
#
#   tools/ci.sh                 # lints + release + asan + tsan
#   tools/ci.sh --quick         # lints + release-preset unit tests only
#   tools/ci.sh asan tsan       # lints + just the named presets
#   tools/ci.sh --no-lint tsan  # skip the lint stage (debugging builds)
#   tools/ci.sh --conformance   # + the statistical (ε, δ) contract tier
#   tools/ci.sh --perf-smoke    # + frame-throughput regression gate
#
# Stages:
#   1. tools/analyze — the semantic invariant analyzer: RNG provenance,
#      lock discipline, counter-addressed draw discipline, suppression
#      hygiene, plus the ported determinism rules. Runs its fixture
#      self-test first, then must exit 0 on src/ (SARIF written to
#      build-lint/analyze.sarif when the directory exists).
#   2. tools/tidy.sh — clang-tidy over src/ with the curated .clang-tidy
#      (loud skip when clang-tidy is not installed).
#   3. Preset matrix. Every preset builds with -Wall -Wextra -Werror.
#        release — optimised; runs the `unit`-labelled tests, then a
#                  30-second bounded tracking_bench smoke run.
#        asan    — ASan+UBSan (halt_on_error); runs the `unit` tests,
#                  then the `recovery` tier — the snapshot
#                  fault-injection and wire-robustness suites whole, so
#                  every planted corruption is rejected under the
#                  sanitizers.
#        ubsan-integer — implicit-conversion/integer UB; runs the
#                  `unit` tests plus the same `recovery` tier.
#        tsan    — ThreadSanitizer; runs the `stress`-labelled race
#                  suite plus the concurrency-labelled unit tests.
#      (`slow` sweeps run in the tier-1 plain `ctest` and nightlies:
#      `ctest --test-dir build-release -L slow`.)
#   4. Opt-in (--conformance): `ctest -L conformance` in the release
#      build — the seeded Clopper–Pearson sweep of tests/
#      conformance_test.cpp. Also works against a tsan build dir:
#      `ctest --test-dir build-tsan -L conformance`.
#   5. Opt-in (--perf-smoke): runs `micro_frame --baseline` three times
#      in the release build (build-release/BENCH_frame.run{1,2,3}.json)
#      and fails if a gated column — the sequential
#      engine/sampled/aloha_tags_per_s — is missing from any file or if
#      its median of the three regresses more than 30% at any n against
#      the committed BENCH_frame.json. The sharded columns are printed as
#      median ratios, ungated: their absolute numbers depend on core
#      count and AVX-512. Then replays the committed BENCH_service.json
#      workload through fleet_service and fails if throughput collapses
#      below 0.5x of the committed baseline (or if the cached pass ever
#      diverges from the uncached one).
#   6. bench_e2e smoke: every workload of the end-to-end wire benchmark
#      for 2 s (bench_e2e/README.md). Each run exits non-zero unless
#      every submit is answered, the replayed jobs are bit-identical and
#      the Clopper–Pearson audit passes.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
lint=1
conformance=0
perf_smoke=0
presets=()
for arg in "$@"; do
  case "${arg}" in
    --quick) quick=1 ;;
    --no-lint) lint=0 ;;
    --conformance) conformance=1 ;;
    --perf-smoke) perf_smoke=1 ;;
    --help|-h)
      # The leading comment block, up to the first non-comment line.
      awk 'NR == 1 { next } !/^#/ { exit } { sub(/^# ?/, ""); print }' "$0"
      exit 0 ;;
    *) presets+=("${arg}") ;;
  esac
done
if [ ${#presets[@]} -eq 0 ]; then
  if [ "${quick}" -eq 1 ]; then
    presets=(release)
  else
    presets=(release asan tsan)
  fi
fi

if [ "${lint}" -eq 1 ]; then
  echo "==== lint: analyzer fixture self-test ======================"
  python3 tests/analyzer/run_fixtures.py
  echo "==== lint: semantic analyzer ==============================="
  mkdir -p build-lint
  python3 tools/analyze --root . --sarif build-lint/analyze.sarif
  echo "==== lint: clang-tidy ======================================"
  tools/tidy.sh
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===================================="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}"
  if [ "${preset}" = "asan" ] || [ "${preset}" = "ubsan-integer" ]; then
    echo "==== recovery tier (${preset}) ============================="
    # Snapshot fault-injection + wire robustness, run whole under the
    # sanitizers: truncated/bit-flipped/version-bumped snapshot files
    # and hostile wire frames must produce typed errors, never UB.
    ctest --test-dir "build-${preset}" -L recovery --output-on-failure
  fi
  if [ "${preset}" = "release" ]; then
    echo "==== tracking smoke (release) =============================="
    # The smoke run needs the committed tracking baseline to compare
    # against; a missing file means the baseline was never regenerated
    # after a tracking change, so fail fast rather than skip silently.
    if [ ! -f BENCH_tracking.json ]; then
      echo "FAIL: BENCH_tracking.json is missing from the repo root." >&2
      echo "Regenerate it: (cd build-release && ./bench/tracking_bench)" >&2
      echo "then commit the refreshed baseline." >&2
      exit 1
    fi
    # Bounded: the smoke workload finishes in seconds; the timeout is a
    # hang guard, and the binary's own exit code asserts tracked RMSE
    # beats raw on the ramp and step scenarios.
    (cd "build-release" && timeout 30 ./bench/tracking_bench --smoke)
  fi
done

echo "==== bench_e2e smoke ======================================="
for workload in sampled_small materialize_heavy exact_frames \
                reads_beside_writes; do
  python3 bench_e2e/run.py --workload "${workload}" --seconds 2 | tail -1
done

if [ "${conformance}" -eq 1 ]; then
  echo "==== conformance tier ======================================"
  if [ ! -d build-release ]; then
    cmake --preset release
    cmake --build --preset release -j "${jobs}"
  fi
  ctest --test-dir build-release -L conformance --output-on-failure
fi

if [ "${perf_smoke}" -eq 1 ]; then
  echo "==== perf smoke: frame throughput =========================="
  if [ ! -f BENCH_frame.json ]; then
    echo "FAIL: BENCH_frame.json is missing from the repo root." >&2
    echo "Regenerate it: (cd build-release && ./bench/micro_frame --baseline)" >&2
    echo "then commit the refreshed baseline." >&2
    exit 1
  fi
  if [ ! -d build-release ]; then
    cmake --preset release
    cmake --build --preset release -j "${jobs}"
  fi
  cmake --build --preset release -j "${jobs}" --target micro_frame
  # One --baseline run spreads 1.3-2.0x per gated cell on a shared VM, so
  # the gate reads the median of three runs, each kept as its own file.
  frame_runs=()
  for run in 1 2 3; do
    (cd "build-release" && timeout 300 ./bench/micro_frame --baseline)
    mv build-release/BENCH_frame.json "build-release/BENCH_frame.run${run}.json"
    frame_runs+=("build-release/BENCH_frame.run${run}.json")
  done
  # Gate on the sequential columns: the exact-mode Bloom and ALOHA walks
  # and the sampled-mode executors must each keep their median within
  # 30% of the committed baseline at every n. The sharded columns, the
  # ones util::Executor moves, are printed as median ratios but not
  # gated: their absolute numbers depend on core count and AVX-512.
  python3 - BENCH_frame.json "${frame_runs[@]}" <<'EOF'
import json, statistics, sys

committed_path, fresh_paths = sys.argv[1], sys.argv[2:]
with open(committed_path) as f:
    committed = {p["n"]: p for p in json.load(f)["points"]}
fresh = []
for path in fresh_paths:
    with open(path) as f:
        fresh.append((path, {p["n"]: p for p in json.load(f)["points"]}))

# The sequential walks exist on every host. A gated column missing from
# any file fails the gate: a rename the committed file does not follow
# would otherwise pass without checking anything.
GATED = (
    "engine_tags_per_s",
    "sampled_tags_per_s",
    "aloha_tags_per_s",
)
SHOWN = (
    "sharded_tags_per_s",
    "sampled_sharded_tags_per_s",
    "aloha_sharded_tags_per_s",
)
failed = False
for n, base in sorted(committed.items()):
    runs = []
    for path, points in fresh:
        if n in points:
            runs.append((path, points[n]))
        else:
            print(f"FAIL: {path} has no point for n={n}")
            failed = True
    if len(runs) != len(fresh):
        continue
    for column in GATED + SHOWN:
        gated = column in GATED
        missing = [path for path, point in [(committed_path, base)] + runs
                   if column not in point]
        for path in missing:
            print(f"{'FAIL' if gated else 'note'}: {path} has no {column} "
                  f"at n={n}")
        if missing:
            failed = failed or gated
            continue
        old = base[column]
        values = [point[column] for _, point in runs]
        new = statistics.median(values)
        ratio = new / old if old > 0 else float("inf")
        status = ("ok" if ratio >= 0.7 else "REGRESSION") if gated else "info"
        runs_text = " ".join(f"{v / old:.2f}x" for v in values)
        print(f"n={n:>9,}: {column} {old:.3e} -> median {new:.3e} tags/s "
              f"({ratio:.2f}x; runs {runs_text}) {status}")
        if gated and ratio < 0.7:
            failed = True
if failed:
    print("FAIL: a gated throughput column is missing or its median "
          "regressed more than 30% against the committed BENCH_frame.json")
    sys.exit(1)
print("perf smoke: sequential engine, sampled and aloha median throughput "
      "within 30% of baseline")
EOF
  echo "==== perf smoke: service throughput ========================"
  if [ ! -f BENCH_service.json ]; then
    echo "FAIL: BENCH_service.json is missing from the repo root." >&2
    echo "Regenerate it: (cd build-release && ./bench/fleet_service)" >&2
    echo "then commit the refreshed baseline." >&2
    exit 1
  fi
  cmake --build --preset release -j "${jobs}" --target fleet_service
  # Replay the committed baseline's exact workload flags, then gate at
  # 0.5x: service throughput is noisier than the frame micro-benches
  # (queueing, worker scheduling), so the gate only catches collapses,
  # not drift. The committed flags are authoritative — a recommitted
  # baseline re-parameterises the gate automatically.
  service_flags="$(python3 - BENCH_service.json <<'EOF'
import json
with open("BENCH_service.json") as f:
    base = json.load(f)
flags = [
    f"--jobs={base['jobs']}",
    f"--workers={base['workers']}",
    f"--queue={base['queue_capacity']}",
    f"--attempts={base['attempts']}",
    f"--seed={base['seed']}",
]
# Older baselines predate the --shards flag; -1 means sequential.
if int(base.get("shards", -1)) >= 0:
    flags.append(f"--shards={base['shards']}")
if base.get("mode") == "exact":
    flags.append("--exact")
print(" ".join(flags))
EOF
)"
  # shellcheck disable=SC2086
  (cd "build-release" && timeout 600 ./bench/fleet_service ${service_flags})
  python3 - BENCH_service.json build-release/BENCH_service.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    committed = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

old = committed["throughput_jobs_per_s"]
new = fresh["throughput_jobs_per_s"]
ratio = new / old if old > 0 else float("inf")
print(f"service throughput {old:.1f} -> {new:.1f} jobs/s ({ratio:.2f}x)")
if not fresh.get("cached_matches_uncached", False):
    print("FAIL: cached results diverged from uncached in the fresh run")
    sys.exit(1)
if not fresh.get("snapshot", {}).get("restore_verified", False):
    print("FAIL: the snapshot/restore stage did not verify in the fresh run")
    sys.exit(1)
if ratio < 0.5:
    print("FAIL: service throughput collapsed below 0.5x of the committed "
          "BENCH_service.json")
    sys.exit(1)
print("perf smoke: service throughput within 0.5x of baseline")
EOF
fi
echo "==== all stages green ======================================"
