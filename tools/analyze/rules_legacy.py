"""The determinism rules, run on the token stream and the declaration
model:

  * `unseeded-rng` is semantic — a `Xoshiro256ss` *member* declared
    without an initializer is exempt when every constructor of its class
    seeds it in the init-list (the analyzer checks the ctors, including
    out-of-line definitions in another file of the TU).
  * string literals and comments cannot trip any rule, because rules
    run on the token stream.

Allowlists (wall-clock files, raw-thread directories, static-local
scope) keep the exact semantics documented in docs/TOOLING.md.
"""

from __future__ import annotations

from .cpptok import ID, OP
from .findings import Finding
from .model import Repo
from .rules_rng import RNG_TYPE

# Files under src/ allowed to read wall clocks: the metrics/deadline
# layer, where wall time is the *product* and never feeds an estimate.
NOW_ALLOWLIST = {
    "src/service/service.cpp",   # queue-wait / latency / expiry clocks
    "src/service/metrics.cpp",   # snapshot rendering
    "src/service/wire.cpp",      # per-connection io deadlines
    "src/rfid/frame_engine.cpp",  # EngineCounters busy_us timing
}

# Directories whose files may construct raw std::thread.
THREAD_ALLOWLIST_PREFIXES = (
    "src/service/",       # the worker pool
    "src/util/executor",  # the persistent work-stealing pool
    "src/util/parallel",  # parallel_for's dispatch front-end
)

# Estimator/tracker/engine code where function-local mutable `static`
# state is banned.
STATIC_SCOPE_PREFIXES = (
    "src/core/",
    "src/estimators/",
    "src/federation/",
    "src/tracking/",
    "src/rfid/",
)

FOREIGN_RNGS = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b",
}

CLOCK_QUALS = ("steady_clock", "system_clock", "high_resolution_clock",
               "Clock")


def run(repo: Repo, scanned: set[str]) -> list[Finding]:
    findings: list[Finding] = []
    for rel in sorted(scanned):
        fm = repo.files.get(rel)
        if fm is None:
            continue
        findings.extend(_token_rules(fm))
        findings.extend(_call_rules(fm))
        findings.extend(_static_rule(fm))
    findings.extend(_unseeded_rule(repo, scanned))
    return findings


def _token_rules(fm) -> list[Finding]:
    out = []
    toks = fm.tokens
    for i, t in enumerate(toks):
        if t.kind != ID:
            continue
        std_qualified = (i >= 2 and toks[i - 1].kind == OP
                         and toks[i - 1].text == "::"
                         and toks[i - 2].kind == ID
                         and toks[i - 2].text == "std")
        if t.text == "random_device" and std_qualified:
            out.append(Finding(
                rule="random-device", rel=fm.rel, line=t.line, col=t.col,
                message=("std::random_device is ambient entropy; derive "
                         "seeds with util::derive_seed / "
                         "util::SeedMixer")))
        elif (t.text in FOREIGN_RNGS or t.text.startswith("ranlux")) \
                and std_qualified:
            out.append(Finding(
                rule="foreign-rng", rel=fm.rel, line=t.line, col=t.col,
                message=("the repo's only RNG family is "
                         "util::Xoshiro256ss (util/rng.hpp); a second "
                         "engine forks reproducibility")))
        elif t.text in {"thread", "jthread"} and std_qualified and \
                not fm.rel.startswith(THREAD_ALLOWLIST_PREFIXES):
            out.append(Finding(
                rule="raw-thread", rel=fm.rel, line=t.line, col=t.col,
                message=("raw std::thread outside src/service and the "
                         "src/util executor/parallel_for layer; route "
                         "concurrency through EstimationService or "
                         "util::parallel_for")))
    return out


def _call_rules(fm) -> list[Finding]:
    out = []
    for fn in fm.functions:
        for call in fn.calls:
            if call.name in {"rand", "srand"} and call.recv is None:
                out.append(Finding(
                    rule="libc-rand", rel=fm.rel, line=call.line, col=1,
                    message=("rand()/srand() is hidden global state; use "
                             "util::Xoshiro256ss with an explicit "
                             "seed")))
            elif call.name == "time" and call.recv is None and \
                    len(call.args) == 1:
                lo, hi = call.args[0]
                arg = " ".join(t.text for t in fm.tokens[lo:hi])
                if arg in {"nullptr", "NULL", "0"}:
                    out.append(Finding(
                        rule="wall-clock-seed", rel=fm.rel, line=call.line,
                        col=1,
                        message=("time(nullptr) seeds results with the "
                                 "wall clock; thread an explicit seed "
                                 "through the spec instead")))
            elif call.name == "now" and fm.rel not in NOW_ALLOWLIST:
                qual_parts = call.qual.split("::")
                recv_leaf = (call.recv or "").split("::")[-1]
                if (len(qual_parts) >= 2
                        and qual_parts[-2] in CLOCK_QUALS) or \
                        recv_leaf in CLOCK_QUALS:
                    out.append(Finding(
                        rule="clock-now", rel=fm.rel, line=call.line, col=1,
                        message=("wall-clock reads outside the metrics/"
                                 "deadline allowlist leak the scheduler "
                                 "into results (see docs/TOOLING.md to "
                                 "extend the allowlist)")))
    return out


def _static_rule(fm) -> list[Finding]:
    if not (fm.rel.startswith(STATIC_SCOPE_PREFIXES)
            and fm.rel.endswith(".cpp")):
        return []
    out = []
    for fn in fm.functions:
        for st in fn.statics:
            if st.is_const:
                continue
            out.append(Finding(
                rule="static-local-state", rel=fm.rel,
                line=fm.tokens[st.tok].line, col=1,
                message=(f"function-local mutable `static` "
                         f"'{st.name}' in estimator code breaks the "
                         "fresh-instance-per-attempt contract")))
    return out


def _unseeded_rule(repo: Repo, scanned: set[str]) -> list[Finding]:
    out = []
    for rel in sorted(scanned):
        fm = repo.files.get(rel)
        if fm is None:
            continue
        # Locals declared with no initializer.
        for fn in fm.functions:
            for loc in fn.locals.values():
                if RNG_TYPE in loc.type_text and loc.init is None:
                    out.append(Finding(
                        rule="unseeded-rng", rel=fm.rel,
                        line=fm.tokens[loc.tok].line, col=1,
                        message=(f"Xoshiro256ss '{loc.name}' is never "
                                 "seeded — a stealth constant seed; "
                                 "state the seed explicitly")))
        # Members: exempt iff every ctor of the class seeds them.
        for cls in fm.classes.values():
            for name, m in cls.members.items():
                if RNG_TYPE not in m.type_text or m.init is not None:
                    continue
                ctors = [fn for fn in repo.functions()
                         if fn.is_ctor and fn.cls == cls.name]
                seeded = bool(ctors) and all(
                    any(mname == name and rng_[1] > rng_[0]
                        for mname, rng_ in fn.init_list)
                    for fn in ctors)
                if not seeded:
                    out.append(Finding(
                        rule="unseeded-rng", rel=fm.rel,
                        line=fm.tokens[m.tok].line, col=1,
                        message=(f"Xoshiro256ss member '{name}' of "
                                 f"{cls.name} is not seeded in every "
                                 "constructor init-list — a stealth "
                                 "constant seed")))
    return out
