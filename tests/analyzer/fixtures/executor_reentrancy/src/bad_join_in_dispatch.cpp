// A blocking join inside a dispatched lambda: the worker thread running
// the lambda stalls until some other thread finishes — and deadlocks
// outright if that thread is waiting for this dispatch to drain.
#include <cstddef>
#include "util/parallel.hpp"

namespace fx {

class Collector {
 public:
  void gather(std::size_t n);

 private:
  Channel feed_;
};

void Collector::gather(std::size_t n) {
  util::parallel_for(std::size_t{0}, n, [&](std::size_t) {
    feed_.join();  // expect: executor-reentrancy
  });
}

}  // namespace fx
