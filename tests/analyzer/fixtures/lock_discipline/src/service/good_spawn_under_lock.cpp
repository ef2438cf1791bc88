// Spawning a worker under the pool lock does not call it: a callable
// handed to a std::thread — by its constructor, or by emplace_back into
// a container of threads — runs later, on the new thread. The worker
// takes the lock itself and fans out only after releasing it.
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>
#include "util/parallel.hpp"

namespace fx {

class Pool {
 public:
  void grow(std::size_t wanted) {
    std::lock_guard<std::mutex> lk(mu_);
    while (threads_.size() < wanted) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  void start_watcher() {
    std::lock_guard<std::mutex> lk(mu_);
    watcher_ = std::thread([this] { worker_loop(); });
  }

  void spawn_detached() {
    std::lock_guard<std::mutex> lk(mu_);
    std::thread t([this] { worker_loop(); });
    t.detach();
  }

 private:
  void worker_loop() {
    std::size_t n = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      n = pending_;
    }
    util::parallel_for(std::size_t{0}, n, [](std::size_t) {});
  }

  std::mutex mu_;
  std::size_t pending_ = 0;
  std::vector<std::thread> threads_;
  std::thread watcher_;
};

}  // namespace fx
