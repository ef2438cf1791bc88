#pragma once
// Fleet-federated BFCE: one coordinated estimate over many readers.
//
// §III-A of the paper assumes a back-end that synchronises its readers
// so they act as "one logical reader". This module is that back-end's
// estimation path made concrete:
//
//   * the coordinator broadcasts one BFCE frame configuration (hash
//     seeds, persistence numerator) to every reader;
//   * each reader runs the frame against the tags *it* covers through
//     its own FrameEngine (sharded/batched per rfid::ExecutionPolicy);
//   * per-reader busy maps merge up an aggregation tree of word-wide
//     ORs (federation/aggregation.hpp);
//   * the merged bitmap is inverted with an overlap-corrected effective
//     persistence g(p): a tag covered by c readers sets its slots more
//     often than a singly-covered one, so the fleet's per-slot load is
//     λ = k·g(p)·n_union/w instead of k·p·n/w. Theorem 2's inversion,
//     Theorem 3's variance and the Theorem-4 plan all go through with
//     p → g(p); the g law depends on how per-reader sessions correlate
//     (SessionCorrelation below + CoverageProfile's histogram).
//
// The protocol itself is core::run_bfce: the fleet is one more
// core::BloomFrameSource, whose frames are the merged per-reader busy
// maps and whose persistence law is g(p).
//
// Determinism contract: a FederatedOutcome is a pure function of
// (FederationConfig, Fleet, Requirement) — bit-identical across service
// worker counts and aggregation-tree fanouts. Reader 0's context is
// seeded exactly like a plain service job's context and coordinates the
// run, so a 1-reader fleet is bit-identical to a plain BFCE job —
// estimate, airtime, planner-cache key and RNG stream position included
// (rng_fingerprint exposes the position for tests).

#include <cstddef>
#include <cstdint>

#include "core/bfce.hpp"
#include "estimators/estimator.hpp"
#include "federation/aggregation.hpp"
#include "federation/fleet.hpp"
#include "rfid/channel.hpp"
#include "rfid/frame.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/timing.hpp"

namespace bfce::federation {

/// How per-reader tag decisions relate across readers covering the same
/// tag — this picks the overlap-correction law.
enum class SessionCorrelation : std::uint8_t {
  /// Every reader session draws its own randomness: a tag covered by c
  /// readers responds through c independent channels. This is the truth
  /// for sampled-mode frames (independent per-reader binomials) and for
  /// exact-mode kIdealBernoulli/kSharedDraw persistence. Needs the g(p)
  /// correction.
  kIndependent = 0,
  /// Tag decisions are a pure function of (RN, slot, broadcast seed,
  /// p_n) — exact mode with hash::PersistenceMode::kRnBits. A tag makes
  /// the *same* decision at every reader that covers it, so the merged
  /// bitmap IS the logical-union reader's bitmap and no correction is
  /// needed (g = p).
  kCoherent = 1,
};

/// Short lowercase label ("independent" / "coherent").
const char* to_cstring(SessionCorrelation correlation) noexcept;

/// The effective persistence g(p) of the OR-merged fleet bitmap:
///   coherent or disjoint coverage → p (exactly; no FP detour through
///     the area quadrature, so the degenerate cases share the plain
///     planner's cache keys);
///   independent + exact mode      → CoverageProfile::saturating_persistence
///     (E_c[1 − (1−p)^c], all inclusion–exclusion orders);
///   independent + sampled mode    → CoverageProfile::linear_persistence
///     (p·A₁/A_cov: per-reader binomial loads add).
double effective_persistence(const CoverageProfile& profile,
                             SessionCorrelation correlation,
                             rfid::FrameMode mode, double p) noexcept;

/// Everything a federated estimate depends on. Mirrors the service's
/// per-job substrate (mode/channel/timing/policy) plus the federation
/// knobs.
struct FederationConfig {
  core::BfceParams params;  ///< protocol constants + optional shared planner
  SessionCorrelation correlation = SessionCorrelation::kIndependent;
  /// Aggregation-tree fanout. Any value produces the same bitmap (OR is
  /// associative); it only shapes MergeStats.
  std::uint32_t fanout = 8;
  rfid::FrameMode mode = rfid::FrameMode::kSampled;
  rfid::ChannelModel channel{};
  rfid::TimingModel timing{};
  rfid::ExecutionPolicy policy{};
  /// Seed of the whole fleet estimate. Reader 0 is seeded with exactly
  /// this value (the degenerate-case guarantee); reader r ≥ 1 derives
  /// SeedMixer(seed)·"federation/reader"·r.
  std::uint64_t seed = 0;
};

/// One fleet estimate, fully accounted.
struct FederatedOutcome {
  /// The union estimate. `outcome.airtime`/`time_us` are ONE
  /// interference round's ledger (every reader runs the same slot
  /// schedule; colliding readers serialise into rounds — see
  /// fleet_airtime_s). tag_tx_bits sums over every reader.
  estimators::EstimateOutcome outcome;
  core::BfceTrace trace;  ///< per-phase diagnostics, as in plain BFCE

  std::size_t readers = 0;
  /// Interference colouring of the deployment: readers whose discs
  /// overlap cannot interrogate simultaneously, so the fleet needs this
  /// many sequential rounds (rfid::MultiReaderSystem::schedule_rounds).
  std::uint32_t schedule_rounds = 0;
  /// schedule_rounds × one round's airtime — the floor's wall-clock
  /// estimation time.
  double fleet_airtime_s = 0.0;

  double correction_g = 0.0;      ///< g(p_o) applied in the accurate phase
  double overlap_fraction = 0.0;  ///< the fleet profile's realised overlap
  MergeStats merge;               ///< aggregation-tree work, all phases
  rfid::EngineCounters counters;  ///< frame-engine counters, all readers

  /// The next draw of reader 0's RNG stream after the protocol ended —
  /// equal to ctx.next_seed() after a plain BFCE run with the same seed
  /// when the fleet is degenerate (stream-position assertion hook).
  std::uint64_t rng_fingerprint = 0;
};

/// The federated estimator. Stateless between calls except for its
/// configuration, like every estimator in the repository.
class FederatedBfceEstimator {
 public:
  FederatedBfceEstimator() = default;
  explicit FederatedBfceEstimator(FederationConfig config)
      : config_(config) {}

  [[nodiscard]] const FederationConfig& config() const noexcept {
    return config_;
  }

  /// Runs the full two-phase protocol across the fleet.
  FederatedOutcome estimate(const Fleet& fleet,
                            const estimators::Requirement& req) const;

 private:
  FederationConfig config_;
};

}  // namespace bfce::federation
