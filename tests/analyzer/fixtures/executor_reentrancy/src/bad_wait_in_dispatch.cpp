// A condition-variable wait inside a dispatched lambda parks the
// worker thread until someone signals — with a one-worker pool (or when
// the signaller is queued behind this dispatch) nobody ever does.
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include "util/parallel.hpp"

namespace fx {

class Gate {
 public:
  void run(std::size_t n);

 private:
  std::condition_variable cv_;
  std::mutex m_;
};

void Gate::run(std::size_t n) {
  util::parallel_for(std::size_t{0}, n, [&](std::size_t) {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk);  // expect: executor-reentrancy
  });
}

}  // namespace fx
