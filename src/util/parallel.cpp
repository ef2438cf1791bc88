#include "util/parallel.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/executor.hpp"

namespace bfce::util {

unsigned default_thread_count() {
  // hardware_concurrency() re-reads /sys/devices/system/cpu on every
  // call (~1 µs) — far too slow for a function every sharded frame
  // consults. The count cannot change for a running process,
  // so resolve it once; the BFCE_THREADS override below stays dynamic.
  static const unsigned hw = [] {
    const unsigned raw = std::thread::hardware_concurrency();
    return raw == 0 ? 1u : raw;
  }();
  if (const char* env = std::getenv("BFCE_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    const bool clean = end != env && *end == '\0' && errno == 0 &&
                       parsed >= 1 && parsed <= 4096;
    if (clean) return static_cast<unsigned>(parsed);
    // One warning per distinct process, not per call: default_thread_count
    // sits on the dispatch path of every parallel_for.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "bfce: ignoring invalid BFCE_THREADS=\"%s\" (expected an "
                   "integer in [1, 4096]); using hardware concurrency (%u)\n",
                   env, hw);
    }
  }
  return hw;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (begin >= end) return;
  if (threads == 0) threads = default_thread_count();
  Executor::instance().run(begin, end, fn, threads);
}

}  // namespace bfce::util
