#pragma once
// Monte-Carlo experiment harness: runs an estimator repeatedly against a
// population and aggregates the paper's metrics.
//
// Determinism contract: trial t uses the RNG stream derived from
// (config.seed, t), so results are bit-identical for any thread count.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "estimators/estimator.hpp"
#include "math/stats.hpp"
#include "rfid/channel.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/population.hpp"
#include "rfid/timing.hpp"

namespace bfce::sim {

/// Everything that parameterises a batch of trials.
struct ExperimentConfig {
  std::size_t trials = 20;
  estimators::Requirement req{};
  rfid::FrameMode mode = rfid::FrameMode::kExact;
  rfid::ChannelModel channel{};
  rfid::TimingModel timing{};
  std::uint64_t seed = 20150701;  ///< master seed; trial t uses stream t
  unsigned threads = 0;           ///< 0 ⇒ util::default_thread_count()
  /// Per-trial FrameEngine policy. The sharded pipeline — the exact
  /// plan/render/reduce walk and the sampled batched sampler alike — is
  /// bit-identical for any shard count, so this composes with
  /// trial-level parallelism without weakening the determinism contract
  /// above.
  rfid::ExecutionPolicy engine_policy{};
};

/// One trial's outcome, reduced to the metrics the figures report.
struct TrialRecord {
  double n_hat = 0.0;
  double accuracy = 0.0;  ///< |n̂ − n|/n, the paper's §V-A metric
  double time_s = 0.0;    ///< protocol execution time under the C1G2 model
  std::uint32_t rounds = 0;
  bool met_by_design = true;
  /// This trial's FrameEngine counters (frames executed, slots
  /// simulated, tag transmissions, host wall-clock) — pure
  /// instrumentation, never part of the estimate.
  rfid::EngineCounters counters;
};

/// Aggregate over a batch of trials.
struct ExperimentSummary {
  math::Summary accuracy;
  math::Summary time_s;
  /// Fraction of trials whose relative error exceeded ε — the empirical
  /// δ. The requirement holds iff this is ≤ δ (up to sampling noise).
  double violation_rate = 0.0;
  /// 95% Wilson interval around violation_rate; the requirement is
  /// statistically rejected only when violation_ci_lo > δ.
  double violation_ci_lo = 0.0;
  double violation_ci_hi = 1.0;
  std::size_t trials = 0;
  /// Engine counters summed over all trials (what was actually simulated
  /// to produce this summary); benches print them via core/monitor.
  rfid::EngineCounters counters;
};

/// Builds a fresh estimator per trial (estimators are cheap to construct;
/// a fresh instance per trial keeps the parallel runner trivially safe).
using EstimatorFactory =
    std::function<std::unique_ptr<estimators::CardinalityEstimator>()>;

/// Runs `config.trials` independent estimations of `population`.
std::vector<TrialRecord> run_experiment(const rfid::TagPopulation& population,
                                        const EstimatorFactory& factory,
                                        const ExperimentConfig& config);

/// Aggregates records against the true cardinality and ε.
ExperimentSummary summarize_records(const std::vector<TrialRecord>& records,
                                    double epsilon);

}  // namespace bfce::sim
