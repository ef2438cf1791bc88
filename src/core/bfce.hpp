#pragma once
// BFCE — the paper's primary contribution (§IV).

#include <cstdint>
#include <string>

#include "core/analysis.hpp"
#include "core/planner.hpp"
#include "estimators/estimator.hpp"
#include "hash/persistence.hpp"
#include "rfid/reader.hpp"
#include "util/bitvector.hpp"

namespace bfce::core {

/// Tunable parameters of BFCE. Defaults are the paper's published
/// settings; anything else is for the ablation benches.
struct BfceParams {
  std::uint32_t w = 8192;  ///< Bloom vector length (§IV-B)
  std::uint32_t k = 3;     ///< hash functions per tag (§IV-B)
  double c = 0.5;          ///< rough lower-bound coefficient (§IV-C)

  /// Slots observed before truncating the rough-phase frame (§IV-C);
  /// must exceed probe_slots, whose window opens the same frame.
  std::uint32_t rough_prefix = 1024;
  /// Probe window: slots observed per persistence-probe attempt (§IV-C).
  std::uint32_t probe_slots = 32;
  /// Probe start/step numerators over 1024: p_s = 8/1024 initially,
  /// doubled (capped at 1023/1024) after an all-idle window, −1/1024
  /// after an all-busy one.
  std::uint32_t probe_start_pn = 8;
  std::uint32_t probe_down_step = 1;
  /// Safety valve on the probe loop (the paper expects "several tests").
  std::uint32_t max_probe_iters = 64;

  /// Tag-side realisation knobs (ablations; paper analysis = ideal).
  rfid::HashScheme hash = rfid::HashScheme::kIdeal;
  hash::PersistenceMode persistence =
      hash::PersistenceMode::kIdealBernoulli;

  /// Broadcast field widths for the airtime ledger (§IV-E.1 uses 32+32).
  std::uint32_t seed_bits = 32;
  std::uint32_t p_bits = 32;

  /// Optional Theorem-4 planner (non-owning; must outlive the
  /// estimator). When set, the p_o selection goes through it — the
  /// estimation service points every BFCE job at one shared memoizing
  /// planner. When null, each estimate runs the plain search.
  PersistencePlanner* planner = nullptr;
};

/// Step-by-step diagnostics of one BFCE run; surfaced by examples and
/// asserted on by tests.
struct BfceTrace {
  std::uint32_t probe_iterations = 0;  ///< probe frames, the rough one included
  std::uint32_t p_s_numerator = 0;   ///< probe result, p_s = p_s_n/1024
  double rho_rough = 0.0;  ///< phase-1 idle ratio after the probe window
  /// Slots heard on the rough frame, probe window included: 1024, or
  /// extended if degenerate.
  std::uint32_t rough_slots_observed = 0;
  double n_rough = 0.0;              ///< n̂_r
  double n_low = 0.0;                ///< c · n̂_r
  PersistenceChoice p_choice;        ///< Theorem 4 search outcome
  double rho_accurate = 0.0;         ///< idle ratio observed in phase 2
  bool rho_clamped = false;          ///< phase-2 bitmap was degenerate
};

/// Where BFCE's frames come from. A source runs one Bloom frame
/// configuration and returns the busy map. It owns the coordinator
/// context, whose stream draws every broadcast seed, whose timing model
/// prices the airtime ledger and whose frame log records the run. It
/// also supplies the effective persistence g(p) at which its bitmaps
/// are inverted: the identity for one reader, an overlap correction for
/// a fleet whose busy maps are OR-merged (federation/federated_bfce.hpp).
class BloomFrameSource {
 public:
  virtual ~BloomFrameSource() = default;

  virtual rfid::ReaderContext& coordinator() = 0;

  /// Runs one frame; adds its individual tag transmissions to `tx`.
  virtual util::BitVector run(const rfid::BloomFrameConfig& cfg,
                              std::uint64_t& tx) = 0;

  /// g(p). Empty (the default) is the identity, and the Theorem-4 plan
  /// then goes through BfceParams::planner.
  virtual PersistenceLaw law() const { return {}; }
};

/// The §IV protocol over any frame source: persistence probe, rough
/// lower-bound phase (1024 bit-slots, heard on the last probe's frame),
/// Theorem-4 selection of p_o, and the accurate phase (8192 bit-slots),
/// charging every broadcast and bit-slot to the airtime ledger and
/// recording each phase in `trace`. A one-probe estimate costs §IV-E's
/// closed form: two broadcasts, three gaps and 9216 slots. When the plan
/// misses Theorem 3 at a requirement no n can meet at w, the outcome is
/// flagged `infeasible`.
estimators::EstimateOutcome run_bfce(BloomFrameSource& source,
                                     const BfceParams& params,
                                     const estimators::Requirement& req,
                                     BfceTrace& trace);

/// The Bloom Filter based Cardinality Estimator: run_bfce over one
/// reader's context.
class BfceEstimator final : public estimators::CardinalityEstimator {
 public:
  BfceEstimator() = default;
  explicit BfceEstimator(BfceParams params) : params_(params) {}

  std::string name() const override { return "BFCE"; }
  [[nodiscard]] const BfceParams& params() const noexcept { return params_; }

  estimators::EstimateOutcome estimate(
      rfid::ReaderContext& ctx, const estimators::Requirement& req) override;

  /// Like estimate() but also exposes the per-phase trace.
  estimators::EstimateOutcome estimate_traced(
      rfid::ReaderContext& ctx, const estimators::Requirement& req,
      BfceTrace& trace);

 private:
  BfceParams params_;
};

/// Multi-round BFCE: runs the two-phase protocol `rounds` times and
/// averages — the paper's Fig 8 observation that BFCE "offers more
/// accurate estimation after multiple runs" turned into an estimator.
/// Error shrinks ~1/√rounds; airtime grows linearly (each round is the
/// constant ~0.19 s), so this trades the constant-time headline for
/// precision beyond what a single 8192-slot frame can deliver. The
/// reported confidence interval is the empirical CLT interval over the
/// round estimates (for rounds ≥ 2).
class AveragedBfceEstimator final : public estimators::CardinalityEstimator {
 public:
  explicit AveragedBfceEstimator(std::uint32_t rounds = 10,
                                 BfceParams params = {})
      : inner_(params), rounds_(rounds) {}

  std::string name() const override { return "BFCE-avg"; }
  [[nodiscard]] std::uint32_t rounds() const noexcept { return rounds_; }

  estimators::EstimateOutcome estimate(
      rfid::ReaderContext& ctx, const estimators::Requirement& req) override;

 private:
  BfceEstimator inner_;
  std::uint32_t rounds_;
};

}  // namespace bfce::core
