#pragma once
// TrackingSession — continuous BFCE estimation over a churning
// population, fused by the scalar Kalman tracker.
//
// One session owns a sim::PopulationTimeline (the ground truth), and
// per round: advances the churn one period, runs a full BFCE estimate
// against the current population through rfid::FrameEngine (via a
// fresh ReaderContext), and folds the round's estimate into the
// tracker. The tracker's process model is the round's churn model and
// its measurement variance comes from the round's actual Theorem-4
// p_o choice (tracking/tracker.hpp) — nothing is hand-tuned.
//
// Determinism contract (the service's bit-identical-across-worker-
// counts guarantee extends to trajectories): the timeline is seeded
// with derive_seed(seed, kTimelineStream) and round r's ReaderContext
// with derive_seed(seed, r), so the whole trajectory — every TrackPoint
// field — is a pure function of (SessionConfig, schedule), independent
// of threads, queue order or planner-cache state (the shared planner
// memoizes a pure function; see core/planner.hpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bfce.hpp"
#include "estimators/estimator.hpp"
#include "rfid/channel.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/timing.hpp"
#include "sim/churn.hpp"
#include "tracking/tracker.hpp"

namespace bfce::tracking {

/// `rounds` churn periods under one churn model; schedules concatenate
/// phases (steady → burst → steady, …).
struct ChurnPhase {
  std::size_t rounds = 0;
  sim::ChurnModel model{};

  bool operator==(const ChurnPhase&) const = default;
};
using ChurnSchedule = std::vector<ChurnPhase>;

/// Canonical scenarios used by the bench, the demo and the tests.
/// `steady`: stationary churn around n0 (arrivals balance departures).
/// `ramp`:   arrivals overshoot departures so the population climbs
///           toward `factor`·n0 over the run.
/// `step`:   steady at n0, a short heavy-arrival burst that jumps the
///           population by ~`factor`, then steady at the new level.
ChurnSchedule steady_scenario(std::size_t rounds, double departure_prob,
                              double n0);
ChurnSchedule ramp_scenario(std::size_t rounds, double departure_prob,
                            double n0, double factor);
ChurnSchedule step_scenario(std::size_t rounds, double departure_prob,
                            double n0, double factor);

/// Everything that parameterises a session. Mirrors the split the
/// service uses: protocol knobs (params/req), simulation substrate
/// (mode/channel/timing) and the master seed.
struct SessionConfig {
  std::size_t initial_population = 10000;
  core::BfceParams params{};        ///< (w, k, …); planner may be shared
  estimators::Requirement req{};
  rfid::FrameMode mode = rfid::FrameMode::kSampled;
  rfid::ChannelModel channel{};
  rfid::TimingModel timing{};
  /// FrameEngine policy for every round's ReaderContext. The sharded
  /// pipeline is bit-identical for any shard count, so trajectories
  /// stay a pure function of (SessionConfig, schedule).
  rfid::ExecutionPolicy policy{};
  std::uint64_t seed = 20150701;
};

/// One fused round of a session's trajectory.
struct TrackPoint {
  std::size_t round = 0;
  std::size_t true_n = 0;        ///< timeline ground truth after churn
  double raw_n_hat = 0.0;        ///< this round's BFCE estimate
  double tracked_n = 0.0;        ///< fused state after the update
  double predicted_n = 0.0;      ///< prior mean x⁻ (= raw on round 0)
  double innovation = 0.0;       ///< z − x⁻
  double residual = 0.0;         ///< z − x
  double gain = 0.0;             ///< Kalman gain
  double variance = 0.0;         ///< posterior variance P
  double measurement_sd = 0.0;   ///< √R of this round's observation
  double p_o = 0.0;              ///< accurate-phase persistence used
  bool met_by_design = true;     ///< the round's BFCE design-point flag
  double airtime_s = 0.0;        ///< simulated airtime of the round
};

/// Trajectory-level quality metrics against the timeline ground truth.
struct TrackSummary {
  std::size_t rounds = 0;
  double raw_rmse = 0.0;          ///< RMSE of per-round BFCE estimates
  double tracked_rmse = 0.0;      ///< RMSE of the fused trajectory
  double raw_rel_rmse = 0.0;      ///< relative (|err|/n) RMS versions
  double tracked_rel_rmse = 0.0;
  double innovation_rms = 0.0;
  double residual_rms = 0.0;
  double airtime_s = 0.0;         ///< total simulated airtime
  std::size_t design_misses = 0;  ///< rounds with met_by_design == false

  /// raw/tracked RMSE ratio; > 1 means fusion beat the raw rounds.
  double improvement() const noexcept {
    return tracked_rmse > 0.0 ? raw_rmse / tracked_rmse : 0.0;
  }
};

/// The trajectory plus its summary — what a tracking job returns.
struct TrackResult {
  std::uint64_t reader_id = 0;  ///< logical reader (service job routing)
  std::vector<TrackPoint> trajectory;
  TrackSummary summary;
};

class TrackingSession {
 public:
  explicit TrackingSession(SessionConfig config);

  /// Advances one churn period, estimates, fuses; returns the round's
  /// TrackPoint (also appended to trajectory()).
  TrackPoint step(const sim::ChurnModel& model);

  /// Runs every phase of `schedule` in order.
  void run(const ChurnSchedule& schedule);

  [[nodiscard]] const SessionConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<TrackPoint>& trajectory() const noexcept {
    return trajectory_;
  }
  [[nodiscard]] const PopulationTracker& tracker() const noexcept {
    return tracker_;
  }
  /// Current ground-truth population size.
  [[nodiscard]] std::size_t true_population() const noexcept {
    return timeline_.size();
  }
  /// FrameEngine counters summed over every round so far.
  [[nodiscard]] const rfid::EngineCounters& counters() const noexcept {
    return counters_;
  }

  TrackSummary summary() const;

 private:
  SessionConfig config_;
  sim::PopulationTimeline timeline_;
  PopulationTracker tracker_;
  std::vector<TrackPoint> trajectory_;
  rfid::EngineCounters counters_;
  std::size_t round_ = 0;
};

/// Summary over any trajectory (exposed for the bench's windowed
/// steady-state analysis).
TrackSummary summarize_trajectory(const std::vector<TrackPoint>& trajectory);

}  // namespace bfce::tracking
