#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace bfce::util {

namespace {

/// Parses all of `value` as a T, or exits 2 naming the option: a numeric
/// prefix followed by anything else ("5x", "1e4" for an integer,
/// "0.05,0.1"), a sign on an unsigned option and an out-of-range value
/// are typos, not values.
template <typename T>
T parse_whole(const std::string& key, const std::string& value) {
  T out{};
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "invalid value '%s' for option '--%s'\n",
                 value.c_str(), key.c_str());
    std::exit(2);
  }
  return out;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv,
         std::vector<std::string> allowed) {
  // Options shared by every binary.
  allowed.emplace_back("csv");
  allowed.emplace_back("seed");
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n", argv[i]);
      std::exit(2);
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    const std::string key(arg.substr(0, eq));
    const std::string value(eq == std::string_view::npos
                                ? std::string_view("1")
                                : arg.substr(eq + 1));
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::fprintf(stderr, "unknown option '--%s'; allowed:", key.c_str());
      for (const auto& a : allowed) std::fprintf(stderr, " --%s", a.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    values_[key] = value;
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) != 0; }

std::string Cli::get(const std::string& key,
                     const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<std::int64_t>(key, it->second);
}

std::uint64_t Cli::get_u64(const std::string& key,
                           std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<std::uint64_t>(key, it->second);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<double>(key, it->second);
}

}  // namespace bfce::util
