#pragma once
// Minimal deterministic task-parallel infrastructure.
//
// Monte-Carlo sweeps dominate the benchmark harness; they are embarrassingly
// parallel across trials. The contract here is that results are a pure
// function of (master seed, trial index), so the *numbers* are identical for
// any thread count — threads only change wall-clock time.
//
// parallel_for dispatches onto a process-wide persistent worker pool
// (util::Executor): workers park between calls, participants take one index
// at a time from a shared cursor, and calling parallel_for from inside a
// dispatched fn is safe (the nested call inlines or lists its job for idle
// workers — it never deadlocks).

#include <cstddef>
#include <functional>

namespace bfce::util {

/// Number of worker threads to use.
///
/// Honours the BFCE_THREADS environment variable (useful on shared CI
/// machines) when it holds a plain integer in [1, 4096]; any other value —
/// "abc", "0", "8x", empty — is rejected with a one-time warning to stderr
/// and the hardware concurrency fallback is used instead (never less
/// than 1).
unsigned default_thread_count();

/// Runs `fn(i)` for every i in [begin, end) across up to `threads`
/// participants (the calling thread is one of them; `threads == 0` means
/// default_thread_count()).
///
/// Indices are handed out one at a time; `fn` must be safe to call
/// concurrently for distinct indices and must not depend on execution
/// order. Nested calls from inside `fn` are safe. If `fn` throws, the first
/// exception cancels the remaining indices and is rethrown to the caller
/// once in-flight indices drain.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace bfce::util
