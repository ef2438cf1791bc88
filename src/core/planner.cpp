#include "core/planner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <tuple>

#include "math/erf.hpp"
#include "util/rng.hpp"

namespace bfce::core {

PersistencePlanner::PersistencePlanner(Options options) : options_(options) {}

PersistenceChoice PersistencePlanner::search(double n_low, std::uint32_t w,
                                             std::uint32_t k, double eps,
                                             double delta,
                                             const PersistenceLaw& law) {
  const double d = math::confidence_d(delta);
  PersistenceChoice best;  // margin-maximising fallback
  bool have_best = false;
  for (std::uint32_t p_n = 1; p_n <= 1023; ++p_n) {
    // The broadcast grid stays p = p_n/1024; Theorem 3's edges see the
    // per-slot load λ = k·g(p)·n/w.
    const double p = static_cast<double>(p_n) / 1024.0;
    const double g = law ? law(p) : p;
    const double lo = f1(n_low, w, k, g, eps);
    const double hi = f2(n_low, w, k, g, eps);
    const double margin = std::fmin(-lo, hi) - d;
    if (margin >= 0.0) {
      // Minimal satisfying p: the paper takes the first hit (p_o small).
      return PersistenceChoice{p_n, p, true, margin};
    }
    if (!have_best || margin > best.margin) {
      best = PersistenceChoice{p_n, p, false, margin};
      have_best = true;
    }
  }
  return best;
}

Feasibility PersistencePlanner::feasibility(std::uint32_t w, double eps,
                                            double delta) {
  // min(−f1, f2) at load λ: Theorem 3's edges with n = λ·w, k = p = 1.
  const double wd = static_cast<double>(w);
  const auto edge = [&](double lambda) {
    return std::fmin(-f1(lambda * wd, w, 1, 1.0, eps),
                     f2(lambda * wd, w, 1, 1.0, eps));
  };
  // The edge rises from 0 at λ = 0 to one peak and decays to 0 again
  // (near λ = 1.6 for small ε): golden-section search for it.
  const double inv_phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = 0.0, hi = 20.0;
  double x1 = hi - inv_phi * (hi - lo), x2 = lo + inv_phi * (hi - lo);
  double e1 = edge(x1), e2 = edge(x2);
  for (int i = 0; i < 80; ++i) {
    if (e1 < e2) {
      lo = x1;
      x1 = x2;
      e1 = e2;
      x2 = lo + inv_phi * (hi - lo);
      e2 = edge(x2);
    } else {
      hi = x2;
      x2 = x1;
      e2 = e1;
      x1 = hi - inv_phi * (hi - lo);
      e1 = edge(x1);
    }
  }
  Feasibility f;
  f.m_star = std::fmax(e1, e2);
  const double d = math::confidence_d(delta);
  f.feasible = f.m_star >= d;
  if (!f.feasible) {
    // m* = 0 (ε = 0) needs unboundedly many rounds: saturate.
    constexpr std::uint32_t kMaxRounds =
        std::numeric_limits<std::uint32_t>::max();
    const double r = std::ceil((d / f.m_star) * (d / f.m_star));
    f.rounds = r < kMaxRounds ? static_cast<std::uint32_t>(r) : kMaxRounds;
  }
  return f;
}

double PersistencePlanner::bucket(double n_low) const noexcept {
  const std::uint32_t bits = options_.n_low_mantissa_bits;
  if (bits >= 52 || !std::isfinite(n_low)) return n_low;
  const std::uint64_t mask = ~((std::uint64_t{1} << (52 - bits)) - 1);
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(n_low) & mask);
}

PersistenceChoice PersistencePlanner::choose(double n_low, std::uint32_t w,
                                             std::uint32_t k, double eps,
                                             double delta) {
  const double snapped = bucket(n_low);
  if (!options_.cache) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return search(snapped, w, k, eps, delta);
  }

  const Key key{std::bit_cast<std::uint64_t>(snapped), w, k,
                std::bit_cast<std::uint64_t>(eps),
                std::bit_cast<std::uint64_t>(delta)};
  {
    std::shared_lock lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  const PersistenceChoice choice = search(snapped, w, k, eps, delta);
  {
    std::unique_lock lock(mutex_);
    if (cache_.size() < options_.max_entries) cache_.emplace(key, choice);
  }
  return choice;
}

PlannerCacheStats PersistencePlanner::stats() const {
  PlannerCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  std::shared_lock lock(mutex_);
  s.entries = cache_.size();
  return s;
}

std::vector<PlannerEntry> PersistencePlanner::export_entries() const {
  std::vector<PlannerEntry> entries;
  {
    std::shared_lock lock(mutex_);
    entries.reserve(cache_.size());
    for (const auto& [key, choice] : cache_) {
      entries.push_back(PlannerEntry{key.n_low_bits, key.w, key.k,
                                     key.eps_bits, key.delta_bits, choice});
    }
  }
  // unordered_map iteration order is not deterministic; snapshots must
  // be byte-stable, so sort by the full key tuple.
  std::sort(entries.begin(), entries.end(),
            [](const PlannerEntry& a, const PlannerEntry& b) {
              return std::tie(a.n_low_bits, a.w, a.k, a.eps_bits,
                              a.delta_bits) <
                     std::tie(b.n_low_bits, b.w, b.k, b.eps_bits,
                              b.delta_bits);
            });
  return entries;
}

std::size_t PersistencePlanner::import_entries(
    const std::vector<PlannerEntry>& entries) {
  std::size_t inserted = 0;
  std::unique_lock lock(mutex_);
  for (const PlannerEntry& e : entries) {
    if (cache_.size() >= options_.max_entries) break;
    const Key key{e.n_low_bits, e.w, e.k, e.eps_bits, e.delta_bits};
    if (cache_.emplace(key, e.choice).second) ++inserted;
  }
  return inserted;
}

void PersistencePlanner::clear() {
  std::unique_lock lock(mutex_);
  cache_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

std::size_t PersistencePlanner::KeyHash::operator()(
    const Key& key) const noexcept {
  return static_cast<std::size_t>(util::SeedMixer(0x706C616E6E657200ULL)
                                      .absorb(key.n_low_bits)
                                      .absorb(std::uint64_t{key.w})
                                      .absorb(std::uint64_t{key.k})
                                      .absorb(key.eps_bits)
                                      .absorb(key.delta_bits)
                                      .value());
}

}  // namespace bfce::core
