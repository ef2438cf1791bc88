#include "util/executor.hpp"

#include <algorithm>
#include <exception>

namespace bfce::util {
namespace {

thread_local bool tl_pool_worker = false;

// Backstop on pool growth under oversubscription; far above any sane
// request, just bounds the damage of parallel_for(…, huge_thread_count).
constexpr unsigned kMaxWorkers = 256;

}  // namespace

struct Executor::Job {
  std::size_t begin = 0;
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  unsigned max_helpers = 0;                // pool-side participant budget
  std::atomic<std::size_t> cursor{0};      // next untaken offset from begin
  std::atomic<std::uint32_t> helpers{0};   // pool workers inside participate
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // guarded by done_mu; first exception wins
  Job* next = nullptr;       // intrusive active list, guarded by Executor::mu_
  Job* prev = nullptr;
};

void Executor::participate(Job& job) {
  for (;;) {
    const std::size_t i = job.cursor.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    try {
      (*job.fn)(job.begin + i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(job.done_mu);
        if (!job.error) job.error = std::current_exception();
      }
      // Cancel: every participant's next fetch_add now lands past the end,
      // so the untaken indices are never handed out.
      job.cursor.store(job.count, std::memory_order_relaxed);
    }
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
          if (j->helpers.load(std::memory_order_relaxed) < j->max_helpers &&
              j->cursor.load(std::memory_order_relaxed) < j->count) {
            job = j;
            return true;
          }
        }
        return false;
      });
      if (stopping_) return;
      // Counted under mu_, so a caller that has unlinked its job knows
      // every helper that will ever enter it.
      job->helpers.fetch_add(1, std::memory_order_relaxed);
    }
    participate(*job);
    {
      // Leave under done_mu: run() destroys the Job once it sees
      // helpers == 0, so the decrement must be this thread's last touch
      // and the caller must not see it before the notify is done.
      std::lock_guard<std::mutex> lk(job->done_mu);
      if (job->helpers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        job->done_cv.notify_all();
      }
    }
  }
}

void Executor::run(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn,
                   unsigned threads) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (threads > count) threads = static_cast<unsigned>(count);
  if (threads <= 1) {
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  Job job;
  job.begin = begin;
  job.count = count;
  job.fn = &fn;
  job.max_helpers = threads - 1;

  ensure_workers(threads - 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job.next = active_head_;
    if (active_head_ != nullptr) active_head_->prev = &job;
    active_head_ = &job;
  }
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();

  participate(job);

  // Completion protocol: the caller's own loop ends only once every index
  // has been handed out, so after unlinking (no worker can adopt the job
  // any more) the indices still running belong to counted helpers. Once
  // the last of them leaves, every index has run and the stack-allocated
  // Job may die; the helpers' acq_rel decrements publish their fn side
  // effects to this thread.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job.prev != nullptr) {
      job.prev->next = job.next;
    } else {
      active_head_ = job.next;
    }
    if (job.next != nullptr) job.next->prev = job.prev;
  }
  {
    std::unique_lock<std::mutex> lk(job.done_mu);
    job.done_cv.wait(lk, [&] {
      return job.helpers.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
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
