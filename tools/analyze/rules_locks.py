"""Lock-discipline rules.

The model gives us every RAII guard site with *held intervals* (token
ranges that honour manual `guard.unlock()` / `guard.lock()`).  From
those we:

  * resolve each guard to a stable mutex identity (Class::member for
    member mutexes, file::name for statics/globals, function::name for
    parameters) and build the acquired-while-holding graph — both
    directly nested guards and, interprocedurally, locks acquired by
    repo functions called while a guard is held (receiver-typed calls
    are only followed when the receiver resolves to a repo class, so
    `condition_variable::wait` never aliases a repo method);
  * report `lock-order` for any cycle in that graph (including
    self-edges: re-acquiring a non-recursive mutex while held);
  * report `lock-across-dispatch` when a guard is held at a call that
    (transitively) reaches `util::parallel_for` — the worker team would
    contend on, or deadlock against, the caller's lock.

Calls inside a lambda handed to a new thread (model.in_deferred_lambda)
are not made at the spawning site: they neither run under its locks nor
join its call-graph closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .findings import Finding
from .model import (DISPATCH_NAMES, Function, Guard, MUTEX_TYPES, Repo,
                    in_deferred_lambda)

# std methods that must never be treated as repo calls even on a name
# collision (cv.wait vs. EstimationService::wait, etc.).
_STD_SYNC_METHODS = {
    "wait", "wait_for", "wait_until", "notify_one", "notify_all",
    "lock", "unlock", "try_lock", "lock_shared", "unlock_shared",
}
_CV_TYPES = {"condition_variable", "condition_variable_any"}


@dataclass(frozen=True)
class Acq:
    key: str
    rel: str
    line: int
    fn: str


def _recv_type(repo: Repo, fn: Function, recv: str | None) -> str:
    if not recv:
        return ""
    head = recv.split(".")[0]
    loc = fn.locals.get(head)
    if loc is not None:
        return loc.type_text
    for prm in fn.params:
        if prm.name == head:
            return prm.type_text
    if fn.cls:
        for cls in repo.class_named(fn.cls):
            m = cls.members.get(head)
            if m is not None:
                return m.type_text
    return ""


def _mutex_key(repo: Repo, fm, fn: Function, g: Guard) -> str:
    """Stable identity for the mutex a guard expression names."""
    expr = g.mutex_expr.replace("this -> ", "").replace("* ", "")
    name = expr.split(",")[0].strip()
    name = name.split(" ")[-1] if " " in name else name
    leaf = name.split(".")[-1].split("->")[-1].strip("&() ")
    if fn.cls:
        for cls in repo.class_named(fn.cls):
            if leaf in cls.members:
                return f"{cls.qname}::{leaf}"
    for loc in fn.statics:
        if loc.name == leaf:
            return f"{fn.qname}::{leaf}"
    for prm in fn.params:
        if prm.name == leaf:
            return f"param::{leaf}"
    for g2 in fm.globals:
        if g2.name == leaf:
            return f"{fm.rel}::{leaf}"
    return f"{fm.rel}::{leaf}"


def _callee_functions(repo: Repo, fn: Function, call) -> list[Function]:
    """Repo functions a call may target — receiver-typed calls are only
    followed when the receiver's type resolves to a repo class, so a
    `condition_variable::wait` can never alias a repo method named
    `wait`."""
    if call.name in _STD_SYNC_METHODS:
        return []
    if call.recv is not None:
        rtype = _recv_type(repo, fn, call.recv)
        base = rtype.split("::")[-1].split("<")[0].strip()
        if base in _CV_TYPES or base in MUTEX_TYPES:
            return []
        words = rtype.replace("*", " ").replace("&", " ").split()
        if not any(repo.class_named(w.split("<")[0].split("::")[-1])
                   for w in words):
            return []
    return repo.functions_named(call.name)


def _direct_acquires(repo: Repo, fm, fn: Function) -> set[str]:
    return {_mutex_key(repo, fm, fn, g) for g in fn.guards}


def _transitive(repo: Repo, scanned: set[str],
                seed_map: dict[str, set[str]]) -> dict[str, set[str]]:
    """Name-keyed fixpoint closure of `seed_map` over the call graph."""
    out = {k: set(v) for k, v in seed_map.items()}
    for _ in range(12):
        changed = False
        for fm in repo.files.values():
            if fm.rel not in scanned:
                continue
            for fn in fm.functions:
                acc = out.setdefault(fn.name, set())
                before = len(acc)
                for call in fn.calls:
                    if in_deferred_lambda(fn, call.tok):
                        continue
                    for callee in _callee_functions(repo, fn, call):
                        acc |= out.get(callee.name, set())
                if len(acc) != before:
                    changed = True
        if not changed:
            break
    return out


def run(repo: Repo, scanned: set[str]) -> list[Finding]:
    # Per-function direct lock sets, keyed by function *name* for the
    # call-graph closure.
    direct: dict[str, set[str]] = {}
    for fm in repo.files.values():
        if fm.rel not in scanned:
            continue
        for fn in fm.functions:
            if fn.guards:
                direct.setdefault(fn.name, set()).update(
                    _direct_acquires(repo, fm, fn))
    trans_locks = _transitive(repo, scanned, direct)
    dispatch_seed = {name: {"<dispatch>"} for name in DISPATCH_NAMES}
    trans_dispatch = _transitive(repo, scanned, dispatch_seed)

    edges: dict[tuple[str, str], Acq] = {}
    findings: list[Finding] = []

    for fm in repo.files.values():
        if fm.rel not in scanned:
            continue
        for fn in fm.functions:
            guards = [(g, _mutex_key(repo, fm, fn, g)) for g in fn.guards]
            # Nested RAII acquisitions.
            for ga, ka in guards:
                for gb, kb in guards:
                    if ga is gb:
                        continue
                    if any(lo <= gb.tok < hi for lo, hi in ga.held):
                        edges.setdefault((ka, kb), Acq(
                            key=kb, rel=fm.rel, line=gb.line, fn=fn.qname))
                        if ka == kb:
                            findings.append(Finding(
                                rule="lock-order", rel=fm.rel, line=gb.line,
                                col=1,
                                message=(f"'{ka}' is re-acquired while "
                                         "already held (self-deadlock on "
                                         "a non-recursive mutex)")))
            # Calls made while holding.
            for call in fn.calls:
                if in_deferred_lambda(fn, call.tok):
                    continue
                held_under = [
                    (g, k) for g, k in guards
                    if any(lo <= call.tok < hi for lo, hi in g.held)]
                if not held_under:
                    continue
                if call.name in DISPATCH_NAMES or \
                        trans_dispatch.get(call.name):
                    callees = (_callee_functions(repo, fn, call)
                               if call.name not in DISPATCH_NAMES else [1])
                    if callees:
                        for g, k in held_under:
                            findings.append(Finding(
                                rule="lock-across-dispatch", rel=fm.rel,
                                line=call.line, col=1,
                                message=(f"'{k}' is held across "
                                         f"'{call.name}' which dispatches "
                                         "onto the worker team; release "
                                         "the lock before fanning out")))
                for callee in _callee_functions(repo, fn, call):
                    for key in trans_locks.get(callee.name, set()):
                        for g, k in held_under:
                            if key == k:
                                findings.append(Finding(
                                    rule="lock-order", rel=fm.rel,
                                    line=call.line, col=1,
                                    message=(f"'{k}' is held at a call to "
                                             f"'{callee.name}' which "
                                             "re-acquires it (self-"
                                             "deadlock)")))
                            else:
                                edges.setdefault((k, key), Acq(
                                    key=key, rel=fm.rel, line=call.line,
                                    fn=fn.qname))

    # Inconsistent global order: report every 2-cycle once.
    seen: set[frozenset] = set()
    for (a, b), acq in sorted(edges.items()):
        if a == b:
            continue
        rev = edges.get((b, a))
        if rev is None:
            continue
        pair = frozenset((a, b))
        if pair in seen:
            continue
        seen.add(pair)
        findings.append(Finding(
            rule="lock-order", rel=acq.rel, line=acq.line, col=1,
            message=(f"inconsistent lock order: '{a}' -> '{b}' here, but "
                     f"'{b}' -> '{a}' at {rev.rel}:{rev.line} "
                     f"({rev.fn}); pick one global order")))
    return findings
