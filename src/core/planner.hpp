#pragma once
// Theorem-4 persistence planning as a standalone, shareable component.
//
// BFCE's accurate phase needs the minimal persistence probability
// p_o = p_n/1024 whose CLT edge functions satisfy Theorem 3 at the rough
// lower bound n̂_low. The search scans up to 1023 grid candidates with
// erfinv-based bounds per candidate — cheap for one estimate, but a
// fleet serving millions of requests repeats the *same* search over and
// over: n̂_low is a discrete function of (busy count, p_s) and the
// (ε, δ, w, k) mix of a deployment is small. PersistencePlanner keeps
// the search as a pure static function (bit-identical to the historical
// in-estimator loop) and layers a thread-safe memo cache on top, keyed
// on (bucketed n̂_low, ε, δ, w, k).
//
// Contract: choose() returns exactly search(bucket(n_low), w, k, ε, δ),
// whether the answer came from the cache or from a fresh scan — the
// bucketing happens *before* the search in both paths, so caching can
// never change an estimate. With the default exact bucketing,
// bucket(n_low) == n_low and choose() is bit-identical to search().

#include <atomic>
#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/analysis.hpp"

namespace bfce::core {

/// The effective persistence g(p) at which a bitmap broadcast with
/// persistence p is inverted. One reader's is the identity (an empty
/// law); an overlapping reader fleet sets slots more often, g(p) > p.
using PersistenceLaw = std::function<double(double)>;

/// Whether a requirement can be met at frame length w by any population.
/// Theorem 3's f1 and f2 depend on n only through the load
/// λ = k·g(p)·n/w, so m* = max over λ of min(−f1, f2) decides every n,
/// k and persistence law at once.
struct Feasibility {
  bool feasible = true;     ///< m* ≥ d(δ)
  double m_star = 0.0;      ///< best standardised edge over all loads
  /// ⌈(d/m*)²⌉: the rounds AveragedBfceEstimator would need, since the
  /// mean of r independent frames scales every edge by √r (1 if feasible).
  std::uint32_t rounds = 1;
};

/// One memoized Theorem-4 search result, in exportable form: the key's
/// raw bit patterns plus the cached choice. The service snapshot
/// (service/snapshot.hpp) persists these so a restored service starts
/// with the same warm cache — and therefore the same hit pattern — as
/// the service it replaces.
struct PlannerEntry {
  std::uint64_t n_low_bits = 0;  ///< bucketed n̂_low, by bit pattern
  std::uint32_t w = 0;
  std::uint32_t k = 0;
  std::uint64_t eps_bits = 0;    ///< ε by bit pattern
  std::uint64_t delta_bits = 0;  ///< δ by bit pattern
  PersistenceChoice choice;

  bool operator==(const PlannerEntry&) const = default;
};

/// Snapshot of the planner cache's effectiveness counters.
struct PlannerCacheStats {
  std::uint64_t hits = 0;    ///< lookups answered from the cache
  std::uint64_t misses = 0;  ///< lookups that ran the full search
  std::size_t entries = 0;   ///< distinct keys currently stored

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Memoizing front end to the Theorem-4 p_o search. Thread-safe: one
/// instance may be shared by every worker of an estimation service
/// (lookups take a shared lock; only a miss takes the exclusive one).
class PersistencePlanner {
 public:
  struct Options {
    /// false ⇒ every choose() runs the search (still counted as a miss);
    /// useful for cache-on/off equivalence checks.
    bool cache = true;
    /// Mantissa bits of n̂_low kept when forming the bucket. 52 (the
    /// full double mantissa) means exact keys; smaller values coarsen
    /// the key grid — the searched value is coarsened identically, so
    /// results remain a pure function of the key.
    std::uint32_t n_low_mantissa_bits = 52;
    /// Insertion stops once the table holds this many entries (lookups
    /// and correctness are unaffected; further misses just stay cold).
    std::size_t max_entries = std::size_t{1} << 20;
  };

  PersistencePlanner() = default;
  explicit PersistencePlanner(Options options);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// The Theorem-4 search: the minimal p = p_n/1024 (p_n ∈ [1, 1023])
  /// whose CLT edge functions, evaluated at the effective persistence
  /// law(p), satisfy Theorem 3 at the rough lower bound `n_low`. When no
  /// grid point does (tiny populations), returns the margin-maximising
  /// p with `satisfies == false` so the caller can proceed on a
  /// best-effort basis. Uncached; the empty law is the plain search.
  static PersistenceChoice search(double n_low, std::uint32_t w,
                                  std::uint32_t k, double eps, double delta,
                                  const PersistenceLaw& law = {});

  /// Decides (ε, δ) at frame length w for every n before any airtime is
  /// spent. Pure and uncached.
  static Feasibility feasibility(std::uint32_t w, double eps, double delta);

  /// n̂_low with its low mantissa bits cleared per the options (identity
  /// at the default 52 bits).
  double bucket(double n_low) const noexcept;

  /// Memoized search: exactly search(bucket(n_low), w, k, eps, delta).
  PersistenceChoice choose(double n_low, std::uint32_t w, std::uint32_t k,
                           double eps, double delta);

  PlannerCacheStats stats() const;

  /// Drops every cached entry and zeroes the hit/miss counters.
  void clear();

  /// The cache contents in a deterministic order (sorted by key), for
  /// snapshotting. Hit/miss counters are telemetry, not state, and are
  /// deliberately not exported.
  std::vector<PlannerEntry> export_entries() const;

  /// Seeds the cache with `entries` (existing keys win; insertion stops
  /// at max_entries, exactly like a miss). Returns the number actually
  /// inserted. Imported entries are served as ordinary hits; because
  /// choose() is a pure function of the key, a snapshot taken from any
  /// planner seeds bit-identical answers.
  std::size_t import_entries(const std::vector<PlannerEntry>& entries);

 private:
  struct Key {
    std::uint64_t n_low_bits = 0;
    std::uint32_t w = 0;
    std::uint32_t k = 0;
    std::uint64_t eps_bits = 0;
    std::uint64_t delta_bits = 0;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  // ---- Locking discipline (hammered by tests/race_stress_test.cpp
  // under the tsan preset) ---------------------------------------------
  //
  //  * mutex_ is a strict leaf: no other lock is ever acquired while it
  //    is held, and choose()/stats()/clear() never call out under it —
  //    the search runs before the exclusive lock is taken.
  //  * A miss is double-checked by design: two threads may both run the
  //    search for the same key and race to insert; the loser's value is
  //    dropped. Benign because search() is a pure function of the key,
  //    so both values are bit-identical.
  //  * hits_/misses_ are atomics so the read path can count under the
  //    shared lock; they are monotone telemetry, not invariants.
  Options options_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<Key, PersistenceChoice, KeyHash> cache_;
  // Atomic so hits can be counted under the shared (reader) lock.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace bfce::core
