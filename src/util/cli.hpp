#pragma once
// Tiny command-line option parser shared by benches and examples.
//
// Accepts `--key=value` and `--flag` forms only; anything unrecognised is a
// hard error so typos in sweep parameters cannot silently fall back to
// defaults. The numeric getters parse the whole value or exit 2 as well.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bfce::util {

/// Parsed command line.
class Cli {
 public:
  /// Parses argv. `allowed` is the closed set of option names (without the
  /// leading dashes); an unknown option aborts with a usage message listing
  /// the allowed names.
  Cli(int argc, const char* const* argv, std::vector<std::string> allowed);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Common to every bench: emit CSV instead of the aligned table.
  [[nodiscard]] bool csv() const { return has("csv"); }
  /// Common to every bench: master seed for the Monte-Carlo streams.
  [[nodiscard]] std::uint64_t seed() const { return get_u64("seed", 20150701); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace bfce::util
