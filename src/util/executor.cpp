#include "util/executor.hpp"

#include <algorithm>
#include <exception>

namespace bfce::util {
namespace {

thread_local bool tl_pool_worker = false;

// Backstop on pool growth under oversubscription; far above any sane
// request, just bounds the damage of parallel_for(…, huge_thread_count).
constexpr unsigned kMaxWorkers = 256;

// A lane is one contiguous index range packed into a single atomic word:
// (lo << 32) | hi, both relative to the job base. Every transition —
// owner pop, thief split, cancel drain — is a CAS on the packed word, so
// there is no ABA and no separate top/bottom race to reason about.
constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) noexcept {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}
constexpr std::uint32_t lo_of(std::uint64_t r) noexcept {
  return static_cast<std::uint32_t>(r >> 32);
}
constexpr std::uint32_t hi_of(std::uint64_t r) noexcept {
  return static_cast<std::uint32_t>(r);
}

}  // namespace

struct Executor::Job {
  static constexpr unsigned kMaxLanes = 64;

  struct alignas(64) Lane {
    std::atomic<std::uint64_t> range{0};
  };

  Lane lanes[kMaxLanes];
  unsigned lane_count = 0;
  std::size_t base = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  unsigned max_helpers = 0;                 // pool-side participant budget
  std::atomic<std::uint32_t> next_slot{1};  // slot 0 is the run() caller
  std::atomic<std::uint64_t> remaining{0};  // indices not yet run or drained
  std::atomic<std::uint32_t> helpers{0};    // pool workers inside participate
  std::atomic<bool> cancelled{false};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // guarded by done_mu; first exception wins
  Job* next = nullptr;       // intrusive active list, guarded by Executor::mu_
  Job* prev = nullptr;
  bool listed = false;

  static std::uint64_t drain_lane(Lane& lane);
  void finish_items(std::uint64_t k);
};

/// Empties one lane via CAS and returns how many indices it held.
std::uint64_t Executor::Job::drain_lane(Lane& lane) {
  std::uint64_t r = lane.range.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t lo = lo_of(r);
    const std::uint32_t hi = hi_of(r);
    if (lo >= hi) return 0;
    if (lane.range.compare_exchange_weak(r, pack(hi, hi),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      return hi - lo;
    }
  }
}

/// Credits `k` finished (or cancelled) indices and signals the caller when
/// the job is complete. The acq_rel RMW chain is what publishes every
/// worker's fn side effects to the thread that observes remaining == 0.
void Executor::Job::finish_items(std::uint64_t k) {
  if (remaining.fetch_sub(k, std::memory_order_acq_rel) == k) {
    std::lock_guard<std::mutex> lk(done_mu);
    done_cv.notify_all();
  }
}

void Executor::participate(Job& job, unsigned slot, std::uint64_t* steals) {
  const unsigned lanes = job.lane_count;
  // Unique lane ownership: slots beyond the lane count are pure thieves
  // (they pop single indices but never install a stolen range, so no two
  // participants ever install into the same lane).
  const unsigned own = slot < lanes ? slot : lanes;

  auto run_index = [&](std::uint32_t idx) {
    try {
      (*job.fn)(job.base + idx);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(job.done_mu);
        if (!job.error) job.error = std::current_exception();
      }
      job.cancelled.store(true, std::memory_order_release);
      // Drain every untaken index so `remaining` can reach zero and the
      // caller can rethrow. CAS-based, so concurrent drains never
      // double-count.
      std::uint64_t drained = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        drained += Job::drain_lane(job.lanes[l]);
      }
      if (drained != 0) job.finish_items(drained);
    }
    job.finish_items(1);
  };

  for (;;) {
    if (job.cancelled.load(std::memory_order_acquire)) return;

    // 1. Pop from the owned lane's low end.
    bool got = false;
    std::uint32_t idx = 0;
    if (own < lanes) {
      std::uint64_t r = job.lanes[own].range.load(std::memory_order_relaxed);
      while (lo_of(r) < hi_of(r)) {
        if (job.lanes[own].range.compare_exchange_weak(
                r, pack(lo_of(r) + 1, hi_of(r)), std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          idx = lo_of(r);
          got = true;
          break;
        }
      }
    }

    if (!got) {
      // 2. Steal: find the fullest other lane.
      unsigned victim = lanes;
      std::uint32_t best = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        if (l == own) continue;
        const std::uint64_t r = job.lanes[l].range.load(std::memory_order_relaxed);
        const std::uint32_t lo = lo_of(r);
        const std::uint32_t hi = hi_of(r);
        if (hi > lo && hi - lo > best) {
          best = hi - lo;
          victim = l;
        }
      }
      if (victim == lanes) return;  // every lane drained: job is finishing

      std::uint64_t r = job.lanes[victim].range.load(std::memory_order_relaxed);
      for (;;) {
        const std::uint32_t lo = lo_of(r);
        const std::uint32_t hi = hi_of(r);
        if (lo >= hi) break;  // contended away; rescan
        if (hi - lo == 1 || own >= lanes) {
          // Single index (or no lane to install into): plain pop.
          if (job.lanes[victim].range.compare_exchange_weak(
                  r, pack(lo + 1, hi), std::memory_order_acq_rel,
                  std::memory_order_relaxed)) {
            idx = lo;
            got = true;
            break;
          }
        } else {
          // Split: victim keeps the low half [lo, mid); we run `mid` now
          // and install [mid+1, hi) into our own (empty) lane, where other
          // thieves can steal from it in turn.
          const std::uint32_t mid = lo + (hi - lo + 1) / 2;
          if (job.lanes[victim].range.compare_exchange_weak(
                  r, pack(lo, mid), std::memory_order_acq_rel,
                  std::memory_order_relaxed)) {
            if (mid + 1 < hi) {
              std::uint64_t mine =
                  job.lanes[own].range.load(std::memory_order_relaxed);
              while (!job.lanes[own].range.compare_exchange_weak(
                  mine, pack(mid + 1, hi), std::memory_order_acq_rel,
                  std::memory_order_relaxed)) {
              }
              // A cancel drain may have swept our lane before the install
              // landed; re-drain so the cancelled indices are credited.
              if (job.cancelled.load(std::memory_order_acquire)) {
                const std::uint64_t d = Job::drain_lane(job.lanes[own]);
                if (d != 0) job.finish_items(d);
              }
            }
            idx = mid;
            got = true;
            break;
          }
        }
      }
      if (!got) continue;
      ++*steals;
    }

    run_index(idx);
  }
}

Executor& Executor::instance() {
  static Executor pool;
  return pool;
}

bool Executor::on_worker_thread() noexcept { return tl_pool_worker; }

unsigned Executor::live_workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<unsigned>(threads_.size());
}

Executor::Stats Executor::stats() const {
  Stats s;
  s.dispatches = dispatches_.load(std::memory_order_relaxed);
  s.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.spawned = spawned_.load(std::memory_order_relaxed);
  return s;
}

void Executor::ensure_workers(unsigned wanted) {
  wanted = std::min(wanted, kMaxWorkers);
  if (wanted == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_) return;  // shutdown in flight; the caller runs alone
  while (threads_.size() < wanted) {
    threads_.emplace_back([this] { worker_loop(); });
    spawned_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Executor::worker_loop() {
  tl_pool_worker = true;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        if (stopping_) return true;
        for (Job* j = active_head_; j != nullptr; j = j->next) {
          if (j->cancelled.load(std::memory_order_relaxed)) continue;
          if (j->helpers.load(std::memory_order_relaxed) >= j->max_helpers) {
            continue;
          }
          // Only adopt a job that still has untaken lane work: once every
          // lane is empty no new lane work can appear (splits only move
          // existing ranges), so joining would be a busy no-op.
          bool has_work = false;
          for (unsigned l = 0; l < j->lane_count && !has_work; ++l) {
            const std::uint64_t r =
                j->lanes[l].range.load(std::memory_order_relaxed);
            has_work = lo_of(r) < hi_of(r);
          }
          if (!has_work) continue;
          job = j;
          return true;
        }
        return false;
      });
      if (stopping_) return;
      job->helpers.fetch_add(1, std::memory_order_relaxed);
    }
    const unsigned slot = job->next_slot.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t steals = 0;
    participate(*job, slot, &steals);
    if (steals != 0) steals_.fetch_add(steals, std::memory_order_relaxed);
    {
      // Leave under done_mu: run_bounded destroys the Job once it sees
      // helpers == 0, so the decrement must be this thread's last touch
      // and the caller must not see it before the notify is done.
      std::lock_guard<std::mutex> lk(job->done_mu);
      if (job->helpers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        job->done_cv.notify_all();
      }
    }
  }
}

void Executor::run_bounded(std::size_t begin, std::size_t count,
                           const std::function<void(std::size_t)>& fn,
                           unsigned threads) {
  Job job;
  const unsigned lanes = static_cast<unsigned>(std::min<std::size_t>(
      std::min<std::size_t>(Job::kMaxLanes, threads), count));
  job.lane_count = lanes;
  job.base = begin;
  job.fn = &fn;
  job.max_helpers = threads - 1;
  job.remaining.store(count, std::memory_order_relaxed);
  // Contiguous initial partition: participant s starts on the s-th slice of
  // the index range, which is what keys first-touch page placement to
  // tag-range ownership in the FrameEngine's sharded walks.
  std::size_t start = 0;
  for (unsigned l = 0; l < lanes; ++l) {
    const std::size_t stop = count * (l + 1) / lanes;
    job.lanes[l].range.store(
        pack(static_cast<std::uint32_t>(start), static_cast<std::uint32_t>(stop)),
        std::memory_order_relaxed);
    start = stop;
  }

  ensure_workers(threads - 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job.next = active_head_;
    if (active_head_ != nullptr) active_head_->prev = &job;
    active_head_ = &job;
    job.listed = true;
  }
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();

  std::uint64_t steals = 0;
  participate(job, /*slot=*/0, &steals);
  if (steals != 0) steals_.fetch_add(steals, std::memory_order_relaxed);

  // Completion protocol: wait for every index to finish, unlink so no new
  // worker can adopt the job, then wait out adopters already inside — only
  // then may the stack-allocated Job die.
  {
    std::unique_lock<std::mutex> lk(job.done_mu);
    job.done_cv.wait(lk, [&] {
      return job.remaining.load(std::memory_order_acquire) == 0;
    });
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job.listed) {
      if (job.prev != nullptr) {
        job.prev->next = job.next;
      } else {
        active_head_ = job.next;
      }
      if (job.next != nullptr) job.next->prev = job.prev;
      job.listed = false;
    }
  }
  {
    std::unique_lock<std::mutex> lk(job.done_mu);
    job.done_cv.wait(lk, [&] {
      return job.helpers.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

void Executor::run(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn,
                   unsigned threads) {
  if (begin >= end) return;
  std::size_t count = end - begin;
  if (threads > count) threads = static_cast<unsigned>(count);
  if (threads <= 1 || count == 1) {
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Lane ranges are packed 32-bit pairs; split astronomically large ranges
  // into bounded sub-jobs (never hit by real workloads).
  constexpr std::size_t kMaxChunk = std::size_t{1} << 31;
  while (count != 0) {
    const std::size_t chunk = std::min(count, kMaxChunk);
    run_bounded(begin, chunk, fn, threads);
    begin += chunk;
    count -= chunk;
  }
}

void Executor::shutdown() {
  std::vector<std::thread> doomed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (threads_.empty()) return;
    stopping_ = true;
    doomed.swap(threads_);
  }
  cv_.notify_all();
  for (auto& t : doomed) t.join();
  std::lock_guard<std::mutex> lk(mu_);
  stopping_ = false;
}

Executor::~Executor() { shutdown(); }

}  // namespace bfce::util
