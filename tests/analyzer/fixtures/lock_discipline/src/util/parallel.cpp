// Stand-in for the repo's dispatch front-end, so the lock rules can
// follow a call chain into util::parallel_for inside this fixture
// family. Nothing may fire here.
#include <cstddef>
#include <functional>

namespace fx::util {

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = begin; i < end; ++i) {
    fn(i);
  }
}

}  // namespace fx::util
