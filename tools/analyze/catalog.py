"""Rule catalogue: every rule the analyzer can emit, with the metadata
SARIF and --list-rules render. docs/TOOLING.md carries the long-form
rationale and a good/bad example per rule."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuleInfo:
    id: str
    family: str
    short: str


RULES: list[RuleInfo] = [
    # -- RNG provenance (semantic) ----------------------------------------
    RuleInfo("rng-provenance", "rng-provenance",
             "every Xoshiro256ss seed and splitmix_at counter base must "
             "derive from util::SeedMixer / util::derive_seed along the "
             "call graph — literal or ambient seeds fork reproducibility"),
    RuleInfo("rng-purity", "rng-provenance",
             "a function that draws randomness must not read or write "
             "mutable namespace-scope / function-static state (hidden "
             "coupling breaks the pure-function-of-spec contract)"),
    # -- Lock discipline (semantic) ---------------------------------------
    RuleInfo("lock-order", "lock-discipline",
             "mutexes must be acquired in one global order; an inverted "
             "or self-nested acquisition is a latent deadlock"),
    RuleInfo("lock-across-dispatch", "lock-discipline",
             "no lock may be held across parallel_for / worker-pool "
             "dispatch: the workers contend or deadlock on it"),
    # -- Executor reentrancy (semantic) ------------------------------------
    RuleInfo("executor-reentrancy", "executor-reentrancy",
             "no blocking join (thread join, condition-variable wait, "
             "pool shutdown) inside a lambda dispatched onto the worker "
             "pool — it stalls or deadlocks the lane; nested "
             "parallel_for is the sanctioned nesting-safe path"),
    # -- Counter-addressed draw discipline (semantic) ----------------------
    RuleInfo("caller-draw-in-shard", "draw-discipline",
             "inside a sharded region, drawing from a caller-owned RNG "
             "stream makes results depend on shard count/schedule; use "
             "util::splitmix_at counters or a per-shard derived stream"),
    # -- Suppression hygiene ----------------------------------------------
    RuleInfo("suppression-unknown-rule", "suppression-hygiene",
             "lint:allow cites a rule id that does not exist"),
    RuleInfo("suppression-stale", "suppression-hygiene",
             "lint:allow cites a rule that no longer fires at the "
             "covered line — stale suppressions must be deleted"),
    RuleInfo("suppression-missing-owner", "suppression-hygiene",
             "lint:allow without owner=<who>"),
    RuleInfo("suppression-missing-expiry", "suppression-hygiene",
             "lint:allow without expires=<YYYY-MM-DD>"),
    RuleInfo("suppression-expired", "suppression-hygiene",
             "lint:allow whose expiry date has passed"),
    RuleInfo("suppression-missing-reason", "suppression-hygiene",
             "lint:allow without a justification"),
    # -- Determinism rules ------------------------------------------------
    RuleInfo("random-device", "determinism",
             "std::random_device is ambient entropy; derive seeds with "
             "util::derive_seed / util::SeedMixer"),
    RuleInfo("libc-rand", "determinism",
             "rand()/srand() is hidden global state; use "
             "util::Xoshiro256ss with an explicit seed"),
    RuleInfo("wall-clock-seed", "determinism",
             "time(nullptr) seeds results with the wall clock"),
    RuleInfo("foreign-rng", "determinism",
             "the repo's only RNG family is util::Xoshiro256ss; a second "
             "engine forks reproducibility"),
    RuleInfo("clock-now", "determinism",
             "wall-clock reads outside the metrics/deadline allowlist "
             "leak the scheduler into results"),
    RuleInfo("unseeded-rng", "determinism",
             "a default-constructed / never-seeded Xoshiro256ss is a "
             "stealth constant seed (members seeded in every constructor "
             "init-list are recognised and exempt)"),
    RuleInfo("static-local-state", "determinism",
             "function-local mutable `static` state in estimator code "
             "breaks the fresh-instance-per-attempt contract"),
    RuleInfo("raw-thread", "determinism",
             "raw std::thread outside src/service and the src/util "
             "executor/parallel_for layer; route concurrency through "
             "the pool or util::parallel_for"),
]

RULE_IDS = {r.id for r in RULES}
BY_ID = {r.id: r for r in RULES}
