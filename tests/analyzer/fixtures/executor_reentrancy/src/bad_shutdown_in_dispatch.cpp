// Tearing down the executor from inside one of its own workers: the
// zero-argument shutdown() joins every worker thread, including the
// thread executing this lambda — a self-join.
#include <cstddef>
#include "util/executor.hpp"
#include "util/parallel.hpp"

namespace fx {

void drain_and_stop(std::size_t n) {
  util::parallel_for(std::size_t{0}, n, [](std::size_t i) {
    if (i == 0) {
      util::Executor::instance().shutdown();  // expect: executor-reentrancy
    }
  });
}

}  // namespace fx
