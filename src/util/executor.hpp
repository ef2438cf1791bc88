#pragma once
// Persistent executor — the engine behind util::parallel_for.
//
// The old parallel_for spawned and joined fresh std::threads on every call,
// so every sharded frame walk and every federation merge paid thread-creation
// latency that dwarfs small-n render work. The Executor keeps one process-wide
// pool of parked workers alive across calls:
//
//  * Lazily initialized: no threads exist until the first run() that wants
//    helpers; the pool then grows on demand (oversubscription beyond the
//    hardware thread count is allowed and tested — workers just time-slice).
//  * Work is dealt one index at a time from a single atomic cursor per job:
//    each participant takes cursor.fetch_add(1) until the result passes the
//    count. Uneven indices (Monte-Carlo trials of different lengths) balance
//    as they finish; the engine's sharded walks hand each participant one
//    shard index, which is all a cursor needs to do.
//  * Nesting-safe: a pool worker (or any thread) calling run() from inside a
//    dispatched fn participates in the nested job itself and lists it so
//    idle workers can help. A participant's loop only exits once the cursor
//    has handed out every index, so completion never requires another
//    thread; waits can only point at strictly-younger jobs, so there is no
//    cycle and no deadlock.
//  * Exceptions propagate: the first exception thrown by fn cancels the
//    job by moving the cursor to the count, so no untaken index runs, and
//    is rethrown on the run() caller.
//
// Determinism is unaffected by any of this: parallel_for's contract is that
// fn(i) is a pure function of i (counter-addressed RNG upstream), so which
// participant takes which index, and the pool size, change wall-clock only,
// never bits.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bfce::util {

class Executor {
 public:
  /// Monotonic counters since process start (or last shutdown() for the
  /// worker-lifecycle ones). Cheap relaxed atomics — for benches and tests.
  struct Stats {
    std::uint64_t dispatches = 0;   ///< run() calls that engaged the pool
    std::uint64_t inline_runs = 0;  ///< run() calls executed entirely inline
    std::uint64_t steals = 0;       ///< always 0; bench_e2e reads it
    std::uint64_t wakeups = 0;      ///< notify broadcasts to parked workers
    std::uint64_t spawned = 0;      ///< worker threads created over the lifetime
  };

  /// The process-wide pool.
  static Executor& instance();

  /// Runs fn(i) for every i in [begin, end) with up to `threads` concurrent
  /// participants (the calling thread is one of them). Blocks until every
  /// index has completed. threads <= 1 (or a single index) runs inline
  /// without touching the pool. The first exception thrown by fn cancels
  /// all untaken indices and is rethrown here after in-flight calls drain.
  void run(std::size_t begin, std::size_t end,
           const std::function<void(std::size_t)>& fn, unsigned threads);

  /// True when the calling thread is one of this process's pool workers.
  static bool on_worker_thread() noexcept;

  /// Workers currently alive (parked or running).
  unsigned live_workers() const;

  Stats stats() const;

  /// Joins every worker. Safe to call while a run() is in flight on another
  /// thread: workers leave once that job has no untaken index and exit; the
  /// run() caller completes normally. The pool respawns lazily on the next
  /// run() that wants helpers. Used by tests and the pool-cold bench stages.
  void shutdown();

  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

 private:
  struct Job;

  Executor() = default;
  void ensure_workers(unsigned wanted);
  void worker_loop();
  static void participate(Job& job);

  mutable std::mutex mu_;           // guards pool membership + active list
  std::condition_variable cv_;      // parked workers wait here
  std::vector<std::thread> threads_;
  Job* active_head_ = nullptr;      // intrusive list of jobs wanting helpers
  bool stopping_ = false;
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> inline_runs_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> spawned_{0};
};

}  // namespace bfce::util
