#pragma once
// EstimationService — the servable front end of the repository.
//
// Everything below sim::run_experiment answers "what does one estimate
// cost?"; the service answers the ROADMAP's production question: how do
// many concurrent estimation requests get admitted, scheduled, executed
// and accounted for. It is a bounded-queue worker pool over the same
// primitives the experiment harness uses:
//
//  * admission — submit() blocks while the queue is full (backpressure);
//    try_submit() returns nullopt instead. The queue bound is the only
//    memory the fleet can force on the service.
//  * scheduling — FIFO over a worker pool (default size from
//    util::default_thread_count(), so BFCE_THREADS caps it like every
//    other parallel path in the repo).
//  * execution — attempt a of a job runs a fresh estimator against a
//    fresh ReaderContext seeded with derive_seed(spec.seed, a): results
//    are bit-identical for any worker count, exactly like
//    sim::run_experiment's (master seed, trial index) contract. BFCE
//    jobs share the service's PersistencePlanner when one is attached;
//    the planner memoizes the bucketed Theorem-4 search, which cannot
//    change any result (see core/planner.hpp).
//  * deadlines & retries — an attempt fails when the outcome misses its
//    design point or exceeds the job's simulated-airtime budget; failed
//    attempts are retried on the next derived stream while the budget
//    lasts. A wall-clock admission deadline expires jobs that waited
//    too long in the queue; cancel() withdraws a job that has not
//    started.
//  * accounting — metrics() snapshots admission/outcome counts, exact
//    latency percentiles, planner-cache hit rate and the aggregated
//    FrameEngine counters (service/metrics.hpp renders text and JSON).
//  * tracking — a JobSpec with `tracking` set runs a continuous
//    tracking::TrackingSession instead of a single estimate; the
//    service keeps one Kalman-tracker row per logical reader_id and
//    surfaces innovation/residual statistics through metrics().

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/planner.hpp"
#include "rfid/channel.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/timing.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "service/portable.hpp"
#include "service/snapshot.hpp"

namespace bfce::service {

struct ServiceConfig {
  /// Worker threads; 0 ⇒ util::default_thread_count() (BFCE_THREADS).
  unsigned workers = 0;
  /// Bound on jobs admitted but not yet running.
  std::size_t queue_capacity = 1024;

  /// Simulation substrate every job runs on.
  rfid::FrameMode mode = rfid::FrameMode::kSampled;
  rfid::ChannelModel channel{};
  rfid::TimingModel timing{};
  /// FrameEngine policy for every job's reader context — single
  /// estimates and tracking sessions alike. Sharding (the exact-mode
  /// walk or the sampled-mode batched sampler) is safe under
  /// worker-level parallelism: results are a pure function of the job
  /// seed for any shard count.
  rfid::ExecutionPolicy engine_policy{};

  /// Shared Theorem-4 planner for BFCE jobs (non-owning; must outlive
  /// the service). Null ⇒ every estimate runs the plain search.
  core::PersistencePlanner* planner = nullptr;
};

class EstimationService {
 public:
  explicit EstimationService(ServiceConfig config = {});
  ~EstimationService();  // drains the queue, then joins the workers

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  /// Admits a job, blocking while the queue is at capacity. Returns
  /// kInvalidJob only when the service is shutting down.
  JobId submit(JobSpec spec);

  /// Non-blocking admission: nullopt when the queue is full (counted
  /// as a rejection) or the service is shutting down.
  std::optional<JobId> try_submit(JobSpec spec);

  /// Admits a self-contained job (service/portable.hpp): the spec is
  /// validated and materialized (population built, owned by the job)
  /// outside the lock, then admitted like submit(). Portable jobs are
  /// the crash-safe ones — snapshot() captures them queued or running.
  /// Returns kInvalidJob for an invalid spec (counted as a rejection)
  /// or during shutdown.
  JobId submit_portable(const PortableJobSpec& spec);

  /// Non-blocking flavour of submit_portable (the wire front door's
  /// admission path): nullopt on a full queue, invalid spec or shutdown.
  std::optional<JobId> try_submit_portable(const PortableJobSpec& spec);

  /// Point-in-time crash image (service/snapshot.hpp): every terminal
  /// result verbatim, every queued/running portable job as a pending
  /// re-run, the planner cache when one is attached. Safe to call
  /// concurrently with everything; jobs running while the snapshot is
  /// cut appear as pending (their re-run is bit-identical by the seed
  /// contract). Non-portable in-flight jobs are counted in
  /// non_portable_skipped and dropped.
  ServiceSnapshot snapshot() const;

  /// Rebuilds service state from a snapshot. Only a fresh service (no
  /// job ever admitted) accepts one — returns kBadState otherwise, and
  /// kConfigMismatch when the snapshot's substrate fingerprint does not
  /// match this service's config. Terminal results are re-accounted
  /// through the normal metrics path; pending jobs are re-admitted
  /// under their original ids (their wall-clock deadlines restart at
  /// restore time) and start executing immediately. The planner cache
  /// is seeded before any of them runs.
  SnapshotError restore(const ServiceSnapshot& snap);

  /// Attaches a wire front door's stats sampler; metrics() includes its
  /// counters from then on. Pass nullptr to detach (the WireServer does
  /// on destruction — the callback must not outlive its server).
  void set_wire_stats_source(std::function<WireStats()> source);

  /// Withdraws a job that has not started; returns false once it is
  /// running or terminal (a running estimate is never torn down).
  bool cancel(JobId id);

  /// Blocks until the job is terminal and returns its result. Unknown
  /// ids return a default JobResult with status kFailed.
  JobResult wait(JobId id);

  /// Non-blocking result snapshot; nullopt for unknown ids.
  std::optional<JobResult> poll(JobId id) const;

  /// Blocks until every admitted job is terminal.
  void drain();

  /// Drains, then stops and joins the workers. Idempotent; called by
  /// the destructor.
  void shutdown();

  std::size_t queue_depth() const;

  /// Point-in-time snapshot; safe to call concurrently with everything.
  ServiceMetrics metrics() const;

 private:
  // ---- Locking discipline (checked by tests/race_stress_test.cpp
  // under the tsan preset; asserts below back the claims) -------------
  //
  //  * mutex_ is the service's only lock. It guards every field below
  //    it: the queue, the job table, the aggregate counters and pool_.
  //  * mutex_ is NEVER held across job execution (worker_loop unlocks
  //    around execute_job) or across any blocking wait other than the
  //    three condition variables — so submit/cancel/poll/metrics can
  //    never be starved by a long estimate.
  //  * Lock order: mutex_ → PersistencePlanner::mutex_ is the only
  //    nesting that could arise (metrics() reading planner stats), and
  //    it is avoided entirely: planner calls are made with mutex_
  //    released, so the planner's shared_mutex is a strict leaf and no
  //    cycle exists.
  //  * pool_ teardown: shutdown() swaps pool_ out under mutex_ and
  //    joins the swapped vector unlocked; joined_ lets concurrent
  //    callers wait for the owner instead of double-joining.
  using Clock = std::chrono::steady_clock;

  struct JobState {
    JobSpec spec;
    JobResult result;
    Clock::time_point submitted;
    /// Population materialized from a portable spec; keeps spec.population
    /// alive for the job's lifetime (null for pointer-spec jobs).
    std::shared_ptr<const rfid::TagPopulation> owned_population;
    /// The value form this job was admitted from, kept so snapshot() can
    /// re-emit it while the job is still queued or running.
    std::optional<PortableJobSpec> portable;
  };

  void worker_loop();
  /// Creates, queues and counts a job (lock held, capacity checked).
  JobId admit_locked(JobSpec&& spec);
  /// Executes every attempt of `spec` (no lock held). `retries` returns
  /// the attempts beyond the first.
  JobResult execute_job(const JobSpec& spec, std::uint64_t& retries) const;
  /// Tracking flavour of execute_job: runs a TrackingSession per
  /// attempt instead of a single estimate (no lock held).
  JobResult execute_tracking(const JobSpec& spec,
                             std::uint64_t& retries) const;
  /// Federation flavour of execute_job: one coordinated fleet estimate
  /// per attempt through the FederatedBfceEstimator (no lock held).
  JobResult execute_federation(const JobSpec& spec,
                               std::uint64_t& retries) const;
  /// Folds a terminal result into the aggregate counters (lock held).
  void account_terminal(const JobResult& result);

  ServiceConfig config_;
  unsigned workers_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable queue_space_;  ///< submitters waiting on a slot
  std::condition_variable work_ready_;   ///< workers waiting for jobs
  std::condition_variable job_done_;     ///< wait()/drain() waiters
  std::deque<JobId> queue_;
  std::unordered_map<JobId, JobState> jobs_;
  JobId next_id_ = 1;
  bool stopping_ = false;
  bool joined_ = false;  ///< workers joined; set by the shutdown owner
  std::size_t running_ = 0;

  // Aggregates (guarded by mutex_).
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t deadline_missed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  /// In-flight non-portable jobs dropped by snapshots, carried across
  /// restores (see ServiceSnapshot::non_portable_skipped).
  std::uint64_t non_portable_skipped_ = 0;
  std::vector<double> latency_s_;
  std::vector<double> queue_wait_s_;
  rfid::EngineCounters engine_;
  Clock::time_point started_;

  // Tracking-job aggregates (guarded by mutex_). The pooled RMS fields
  // keep sums of squares so metrics() can report fleet-level RMS over
  // every fused round, not a mean of per-job RMS values.
  std::uint64_t tracking_jobs_ = 0;
  std::uint64_t tracking_rounds_ = 0;
  double tracking_innovation_sq_ = 0.0;
  double tracking_residual_sq_ = 0.0;
  double tracking_raw_rmse_sum_ = 0.0;
  double tracking_tracked_rmse_sum_ = 0.0;
  std::unordered_map<std::uint64_t, ReaderTrackerState> trackers_;

  // Federation-job aggregates (guarded by mutex_).
  std::uint64_t federation_jobs_ = 0;
  std::uint64_t federation_readers_ = 0;
  std::uint64_t federation_rounds_ = 0;
  std::uint64_t federation_merges_ = 0;
  std::uint64_t federation_word_ors_ = 0;
  double federation_airtime_s_ = 0.0;
  double federation_overlap_sum_ = 0.0;

  /// Wire front-door stats sampler (guarded by mutex_ for the pointer;
  /// invoked with mutex_ released — it takes the server's own lock).
  std::function<WireStats()> wire_stats_source_;

  std::vector<std::thread> pool_;
};

}  // namespace bfce::service
