// A loop bound is not a seed. The range start is stored in a field that
// shares its name with a stream's splitmix_at base, but only parameters
// that flow into a Xoshiro256ss or a splitmix_at base are seed
// parameters, so a caller may pass a literal 0 as the bound.
#include <cstddef>
#include <cstdint>
#include "util/rng.hpp"

namespace fx {

struct Range {
  std::size_t base = 0;
  std::size_t end = 0;
};

struct Stream {
  std::uint64_t base = 0;
};

Range make_range(std::size_t begin, std::size_t end) {
  Range r;
  r.base = begin;
  r.end = end;
  return r;
}

Range whole(std::size_t begin, std::size_t end) {
  return make_range(begin, end);
}

double draw(const Stream& s, std::uint64_t i) {
  return static_cast<double>(util::splitmix_at(s.base, i));
}

void drive(double* out, std::size_t n, std::uint64_t seed) {
  Stream s;
  s.base = util::derive_seed(seed, 1);
  const Range r = whole(0, n);
  for (std::size_t i = r.base; i < r.end; ++i) {
    out[i] = draw(s, i);
  }
}

}  // namespace fx
