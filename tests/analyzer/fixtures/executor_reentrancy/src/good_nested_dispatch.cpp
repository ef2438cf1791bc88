// Nested parallel_for inside a dispatched lambda is the sanctioned
// path: the executor is nesting-safe (the worker takes the inner
// dispatch's indices itself), so this must stay quiet.
#include <cstddef>
#include "util/parallel.hpp"

namespace fx {

inline std::size_t square(std::size_t v) { return v * v; }

void tile_sweep(std::size_t rows, std::size_t cols) {
  util::parallel_for(std::size_t{0}, rows, [&](std::size_t r) {
    util::parallel_for(std::size_t{0}, cols, [&](std::size_t c) {
      volatile std::size_t sink = square(r) + square(c);
      (void)sink;
    });
  });
}

}  // namespace fx
