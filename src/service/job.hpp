#pragma once
// Job types for the estimation service.
//
// A job is one complete estimation request: which population to count,
// with which protocol, to which (ε, δ) requirement, from which seed.
// Results follow the same determinism contract as sim::run_experiment —
// attempt a of a job executes against a ReaderContext seeded with
// derive_seed(spec.seed, a), so every field of the JobResult outcome is
// a pure function of the spec, regardless of worker count, queue order
// or which other jobs share the service.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "estimators/estimator.hpp"
#include "federation/federated_bfce.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/population.hpp"
#include "tracking/session.hpp"

namespace bfce::service {

/// Service-assigned job handle. 0 is never a valid id; submit() returns
/// it when the service is shutting down.
using JobId = std::uint64_t;
inline constexpr JobId kInvalidJob = 0;

/// Builds a fresh estimator per attempt (same rationale as the
/// experiment harness: fresh instances keep the worker pool trivially
/// safe). Must be callable concurrently.
using EstimatorFactory =
    std::function<std::unique_ptr<estimators::CardinalityEstimator>()>;

/// Continuous-tracking request payload. When JobSpec::tracking is set
/// the job runs a tracking::TrackingSession instead of a single
/// estimate: the session owns its own churning ground-truth population
/// (seeded from the job seed), runs one BFCE round per churn period and
/// fuses the rounds with the Kalman tracker. The service keeps one
/// tracker state per `reader_id` in its metrics.
struct TrackingJobSpec {
  /// Logical reader this trajectory belongs to; jobs sharing a
  /// reader_id update the same ServiceMetrics tracker row.
  std::uint64_t reader_id = 0;
  std::size_t initial_population = 10000;
  tracking::ChurnSchedule schedule;

  bool operator==(const TrackingJobSpec&) const = default;
};

/// Fleet-federation request payload. When JobSpec::federation is set the
/// job runs one coordinated federation::FederatedBfceEstimator estimate
/// over the fleet instead of a single-reader protocol: per-reader frames
/// on the service substrate (mode/channel/timing/engine policy), busy
/// maps merged up the aggregation tree, the union inverted under the
/// overlap-corrected persistence. `population` and `factory` are
/// ignored; `estimator` is only a label. Attempt a seeds the whole fleet
/// from derive_seed(seed, a), so results keep the bit-identical-across-
/// worker-counts (and merge-fanouts) contract.
struct FederationJobSpec {
  /// The fleet to estimate; not owned, must outlive the job.
  const federation::Fleet* fleet = nullptr;
  federation::SessionCorrelation correlation =
      federation::SessionCorrelation::kIndependent;
  /// Aggregation-tree fanout (cannot change the estimate; see
  /// federation/aggregation.hpp).
  std::uint32_t fanout = 8;
};

/// One estimation request.
struct JobSpec {
  /// The population to estimate; not owned, must outlive the job.
  const rfid::TagPopulation* population = nullptr;

  /// Registry name ("BFCE", "ZOE", ...). BFCE and BFCE-avg jobs share
  /// the service's persistence planner when one is configured.
  std::string estimator = "BFCE";
  /// Optional override: when set, `estimator` is only a label.
  EstimatorFactory factory;

  estimators::Requirement req{};

  /// Seed of this job's RNG streams (attempt a uses derive_seed(seed, a)).
  std::uint64_t seed = 0;

  /// Deterministic deadline on *simulated airtime*: an attempt whose
  /// protocol execution time exceeds this budget fails (and is retried
  /// while attempts remain). Infinity disables the check.
  double airtime_budget_s = std::numeric_limits<double>::infinity();

  /// Wall-clock admission deadline, in seconds from submit(): a job
  /// still queued past it expires without executing. Infinity disables
  /// the check. (Wall-clock, so it depends on load and worker count —
  /// keep it infinite where bit-identical replay matters.)
  double deadline_s = std::numeric_limits<double>::infinity();

  /// Total attempt budget. An attempt fails when the outcome misses its
  /// design point (met_by_design == false) or blows airtime_budget_s;
  /// each retry runs the next derived RNG stream.
  std::uint32_t max_attempts = 1;

  /// When set, this is a tracking job: `population` and `factory` are
  /// ignored (the session builds its own timeline), `estimator` is only
  /// a label, and the outcome carries the final fused state. Attempt a
  /// seeds its session with derive_seed(seed, a), so trajectories keep
  /// the bit-identical-across-worker-counts contract.
  std::optional<TrackingJobSpec> tracking;

  /// When set, this is a federation job (see FederationJobSpec). The
  /// job's airtime_budget_s applies to the *fleet* airtime — the
  /// interference-scheduled wall-clock of the whole floor.
  std::optional<FederationJobSpec> federation;
};

enum class JobStatus : std::uint8_t {
  kQueued = 0,    ///< admitted, waiting for a worker
  kRunning,       ///< executing on a worker
  kDone,          ///< terminal: outcome recorded (inspect met_by_design)
  kDeadlineMissed,///< terminal: every attempt exceeded airtime_budget_s
  kExpired,       ///< terminal: wall deadline passed while queued
  kCancelled,     ///< terminal: cancelled before execution
  kFailed,        ///< terminal: could not run (unknown estimator, ...)
};

/// Short lowercase label ("done", "deadline_missed", ...).
const char* to_cstring(JobStatus status) noexcept;

/// True for every status a job can no longer leave.
constexpr bool is_terminal(JobStatus status) noexcept {
  return status != JobStatus::kQueued && status != JobStatus::kRunning;
}

/// Federation jobs only: fleet-level accounting of the final attempt
/// (the union estimate itself lands in JobResult::outcome).
struct FederationResult {
  std::size_t readers = 0;
  std::uint32_t schedule_rounds = 0;   ///< interference colouring rounds
  double fleet_airtime_s = 0.0;        ///< rounds × per-round airtime
  double correction_g = 0.0;           ///< g(p_o) used in the inversion
  double overlap_fraction = 0.0;       ///< realised coverage overlap
  federation::MergeStats merge;        ///< aggregation-tree work
  std::uint64_t rng_fingerprint = 0;   ///< coordinator stream position
};

/// Everything the service records about one job.
struct JobResult {
  JobId id = kInvalidJob;
  JobStatus status = JobStatus::kQueued;

  /// Last attempt's outcome; meaningful for kDone and kDeadlineMissed.
  estimators::EstimateOutcome outcome;
  /// Simulated airtime of that outcome under the service timing model.
  double airtime_s = 0.0;

  std::uint32_t attempts = 0;   ///< attempts actually executed
  double queue_wait_s = 0.0;    ///< wall time from submit to first run
  double exec_s = 0.0;          ///< wall time spent executing attempts
  double latency_s = 0.0;       ///< wall time from submit to terminal

  /// FrameEngine counters summed over every attempt of this job.
  rfid::EngineCounters counters;

  /// Tracking jobs only: the final attempt's full trajectory + summary.
  std::optional<tracking::TrackResult> tracking;

  /// Federation jobs only: fleet accounting of the final attempt.
  std::optional<FederationResult> federation;
};

}  // namespace bfce::service
