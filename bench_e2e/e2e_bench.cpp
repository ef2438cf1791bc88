// End-to-end wire benchmark for the estimation service.
//
// The process hosts an EstimationService behind a WireServer on an
// AF_UNIX socket and drives it the way remote clients would: every job
// is a SUBMIT frame carrying a PortableJobSpec, every answer a RESULT
// frame. The generator is four threads on four WireClient connections —
// three submit connections and one observer (the main thread), which
// sends METRICS at a fixed rate and cuts a checkpoint (snapshot() +
// encode_snapshot(), no fsync) at a fixed period throughout.
//
// A run, for one named workload, is five rounds. Each round starts a
// fresh service and runs:
//
//   set-up     planner + service + wire server + 4 connections, built
//              several times; setup_s is the median build
//   warm-up    up to 1 s of open-loop traffic, not measured
//   open loop  a fixed number of jobs due at the workload's fixed rate;
//              each round trip is timed from when it was *due*, so a
//              stall counts against every request queued behind it
//   capacity   a fixed number of jobs, closed loop over the 3 submit
//              connections; jobs/s is the service's capacity
//
// Each end-to-end timing is the mean of the round values without the
// highest and the lowest; every other metric pools the rounds. A service
// never releases a job's population, so memory — and with it the cost
// and the noise of every allocation — grows with jobs served; fresh
// rounds keep peak RSS near a fifth of one long run's.
//
// Job i is a pure function of (--seed, i) and the phase job counts are
// a pure function of (--workload, --seconds), so two runs with the same
// flags submit identical jobs and produce identical estimates.
//
// Output checks, run by every invocation (any failure exits 1):
//   * every submit gets a RESULT or a BUSY; anything but kDone counts as
//     failed and as an SLO miss; each service accounts for every job;
//   * every 50th job, replayed through submit_portable on a second
//     service with no wire and no planner, is bit-identical to its wire
//     result (n̂, CI, airtime, attempts);
//   * each (estimator, ε, δ) class's share of estimates with
//     |n̂ − n| > ε·n is consistent with δ (99% Clopper–Pearson lower
//     bound ≤ δ, over met-by-design estimates, classes of ≥ 50).
//
// --trace=<file> adds the per-layer view: spans recorded in memory around
// the bench's calls into each module (plus the per-job intervals the
// server returns in JobResult), direct service.metrics() calls beside
// every METRICS frame, and *layer probes* after the timed phases that
// time materialize, decode_portable_job, BfceEstimator::estimate_traced
// and the Theorem-4 planner on the workload's own inputs. The spans are
// written as Chrome trace-event JSON when the run ends.
//
//   $ e2e_bench --workload=sampled_small --seed=1 --seconds=20
//               [--trace=trace.json] [--out=result.json]
//               [--socket=e2e.sock] [--commit=<sha>]
//
// run.py builds this binary and turns its result file into a one-line
// JSON summary; README.md documents every metric and workload.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/bfce.hpp"
#include "core/planner.hpp"
#include "math/hypothesis.hpp"
#include "math/stats.hpp"
#include "rfid/reader.hpp"
#include "service/portable.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "util/cli.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "util/table.hpp"

using namespace bfce;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Workloads

/// The paper's claim: one BFCE estimate costs < 0.19 s of airtime.
constexpr double kAirtimeClaimS = 0.19;

/// Each estimator's (ε, δ) requirement cycles over a prefix of these.
constexpr estimators::Requirement kRequirements[] = {
    {0.05, 0.05}, {0.03, 0.05}, {0.1, 0.1}, {0.02, 0.01}};

/// One estimator of a workload's mix and how many of kRequirements its
/// jobs cycle over.
struct MixEntry {
  const char* estimator;
  std::size_t requirements;
};

constexpr MixEntry kBfce{"BFCE", 4};
constexpr MixEntry kSrc{"SRC", 4};
// Sampled ZOE at (0.02, 0.01) runs ~18 000 single-slot frames, about 100x
// a BFCE job: 6% of the jobs would hold most of the worker time and set
// the tail alone. Like exact ZOE, it is a pathology rather than traffic.
constexpr MixEntry kZoe{"ZOE", 3};

/// Population seeds per size: jobs share populations the way a fleet of
/// readers re-counting the same floors would.
constexpr std::uint64_t kPopulationSeedsPerSize = 16;

constexpr unsigned kSubmitConnections = 3;
constexpr unsigned kServiceWorkers = 2;
constexpr std::size_t kQueueCapacity = 64;
constexpr unsigned kIoThreads = 4;
constexpr std::uint64_t kReplayEvery = 50;
constexpr std::size_t kRounds = 5;
constexpr int kSetupRepeats = 9;
constexpr double kWarmupS = 1.0;

struct Workload {
  const char* name;
  rfid::FrameMode mode;
  std::vector<std::uint64_t> sizes;
  /// Estimator mix, cycled job by job.
  std::vector<MixEntry> mix;
  /// Open-loop offered load, jobs/s, frozen so later commits face the
  /// same load: 20-30% of the seed commit's capacity on the reference
  /// host, so that a busy host (which halved capacity at times) still
  /// leaves the service short of saturation and rtt_p50_ms measures the
  /// request path rather than queueing.
  double rate_per_s;
  /// Seed-commit capacity, jobs/s. Only sizes the capacity phase's job
  /// count, so that it lasts about its share of the round.
  double nominal_capacity_per_s;
  /// Shares of a round given to the open-loop and capacity phases.
  double open_share;
  double capacity_share;
  /// RTT limit for slo.miss_share, about 3x the seed commit's p99.
  double slo_ms;
  double metrics_hz;
  double checkpoint_s;
};

// Why each workload exists is in README.md; in short:
//  * sampled_small — no layer dominates, so fixed per-request costs show;
//  * materialize_heavy — population build is nearly all of the RTT;
//  * exact_frames — the FrameEngine walk is nearly all of exec_s and the
//    two workers are the bottleneck;
//  * reads_beside_writes — sampled_small's writes under 5x the METRICS
//    rate and 4x the checkpoint rate.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"sampled_small", rfid::FrameMode::kSampled, {1000, 5000, 20000},
       {kBfce, kBfce, kBfce, kZoe}, 300.0, 1100.0, 0.5, 0.4, 25.0, 40.0,
       0.125},
      {"materialize_heavy", rfid::FrameMode::kSampled, {50000, 100000, 200000},
       {kBfce, kBfce, kBfce, kZoe}, 30.0, 120.0, 0.6, 0.3, 150.0, 40.0,
       0.125},
      {"exact_frames", rfid::FrameMode::kExact, {20000, 30000, 50000},
       {kBfce, kSrc}, 80.0, 300.0, 0.5, 0.3, 50.0, 40.0, 0.125},
      {"reads_beside_writes", rfid::FrameMode::kSampled, {1000, 5000, 20000},
       {kBfce, kBfce, kBfce, kZoe}, 300.0, 1100.0, 0.5, 0.4, 25.0, 200.0,
       0.03125},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Job i of a run: a pure function of (seed, i). Estimator, size and
/// requirement cycle through every combination in a fixed order, so each
/// phase carries the same mix of work whatever the seed; the seed picks
/// the job's RNG stream and which of the populations it counts.
service::PortableJobSpec make_job(const Workload& w, std::uint64_t seed,
                                  std::uint64_t i) {
  const std::uint64_t draw = util::SeedMixer(seed)
                                 .absorb(std::string_view{"e2e-job"})
                                 .absorb(i)
                                 .value();
  const std::uint64_t m = w.mix.size();
  const std::uint64_t s = w.sizes.size();
  const MixEntry& entry = w.mix[i % m];
  service::PortableJobSpec spec;
  spec.estimator = entry.estimator;
  spec.req = kRequirements[(i / (m * s)) % entry.requirements];
  spec.seed = util::splitmix_at(draw, 0);
  spec.max_attempts = 2;
  const std::uint64_t size = w.sizes[(i / m) % s];
  spec.population.kind = service::PortablePopulation::Kind::kSynthetic;
  spec.population.size = size;
  spec.population.distribution = rfid::TagIdDistribution::kT1Uniform;
  spec.population.seed = util::SeedMixer(seed)
                             .absorb(std::string_view{"e2e-population"})
                             .absorb(size)
                             .absorb(draw % kPopulationSeedsPerSize)
                             .value();
  return spec;
}

enum Phase : int { kWarmup = 0, kOpenLoop = 1, kCapacity = 2, kDone = 3 };
constexpr const char* kPhaseNames[] = {"warmup", "open_loop", "capacity"};

/// Every job of the run, round after round; within a round, the warm-up,
/// open-loop and capacity jobs in that order.
struct Plan {
  std::vector<service::PortableJobSpec> jobs;
  std::array<std::size_t, 3> per_phase{};  ///< jobs of each phase, per round

  [[nodiscard]] std::size_t per_round() const {
    return per_phase[0] + per_phase[1] + per_phase[2];
  }
  [[nodiscard]] std::size_t count(int phase) const {
    return per_phase[static_cast<std::size_t>(phase)];
  }
  /// Index of the first job of `phase` in `round`.
  [[nodiscard]] std::size_t first(std::size_t round, int phase) const {
    std::size_t i = round * per_round();
    for (int p = 0; p < phase; ++p) i += count(p);
    return i;
  }
  [[nodiscard]] int phase_of(std::size_t job) const {
    std::size_t k = job % per_round();
    for (int p = kWarmup; p < kDone; ++p) {
      if (k < count(p)) return p;
      k -= count(p);
    }
    return kDone;
  }
};

Plan build_plan(const Workload& w, std::uint64_t seed, double seconds) {
  const double round_s = seconds / static_cast<double>(kRounds);
  const auto jobs_for = [](double rate, double s) {
    return std::max<std::size_t>(
        kSubmitConnections, static_cast<std::size_t>(std::llround(rate * s)));
  };
  Plan plan;
  plan.per_phase[kWarmup] =
      jobs_for(w.rate_per_s, std::min(kWarmupS, 0.1 * round_s));
  plan.per_phase[kOpenLoop] = jobs_for(w.rate_per_s, w.open_share * round_s);
  plan.per_phase[kCapacity] =
      jobs_for(w.nominal_capacity_per_s, w.capacity_share * round_s);
  const std::size_t total = kRounds * plan.per_round();
  plan.jobs.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    plan.jobs.push_back(make_job(w, seed, i));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Host fingerprint

struct Fingerprint {
  unsigned nproc = 0;
  std::string bfce_threads;
  std::string avx512;
  std::string compiler = E2E_COMPILER;
  std::string build_type = E2E_BUILD_TYPE;
  std::string commit;
};

Fingerprint host_fingerprint(std::string commit) {
  Fingerprint f;
  f.nproc = std::thread::hardware_concurrency();
  const char* threads = std::getenv("BFCE_THREADS");
  f.bfce_threads = threads != nullptr ? threads : "unset";
  __builtin_cpu_init();
  const std::pair<const char*, bool> features[] = {
      {"avx512f", __builtin_cpu_supports("avx512f")},
      {"avx512bw", __builtin_cpu_supports("avx512bw")},
      {"avx512dq", __builtin_cpu_supports("avx512dq")},
      {"avx512vl", __builtin_cpu_supports("avx512vl")},
      {"avx512vbmi", __builtin_cpu_supports("avx512vbmi")},
      {"avx512vbmi2", __builtin_cpu_supports("avx512vbmi2")},
  };
  for (const auto& [name, present] : features) {
    if (!present) continue;
    if (!f.avx512.empty()) f.avx512 += ",";
    f.avx512 += name;
  }
  if (f.avx512.empty()) f.avx512 = "none";
  f.commit = std::move(commit);
  return f;
}

// ---------------------------------------------------------------------------
// Span recorder (only when --trace is given)

/// Trace tracks: one per generator thread plus one for phases and probes.
/// Each track has one writer at a time: a submit thread, the observer, or
/// (for `bench`) the main thread between rounds and the barrier's
/// completion step within one.
enum Track : unsigned {
  kTrackSubmit0 = 0,  // .. kTrackSubmit0 + kSubmitConnections - 1
  kTrackObserver = kSubmitConnections,
  kTrackBench = kSubmitConnections + 1,
  kTrackCount = kSubmitConnections + 2,
};

/// In-memory spans, one vector per track so each generator thread
/// appends to its own without locking. Times are seconds since `origin`.
class Tracer {
 public:
  static constexpr std::uint64_t kNoJob = ~std::uint64_t{0};

  Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  /// `layer` is the module name (the Chrome "cat"); both strings must be
  /// literals.
  void span(unsigned track, const char* layer, const char* name, double t0_s,
            double t1_s, std::uint64_t job = kNoJob) {
    if (!on_) return;
    tracks_[track].push_back(Span{layer, name, t0_s, t1_s, job});
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& t : tracks_) n += t.size();
    return n;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\": \"ms\",\n\"otherData\": %s,\n"
                 "\"traceEvents\": [\n",
                 metadata_json.c_str());
    for (unsigned t = 0; t < kTrackCount; ++t) {
      const std::string name =
          t == kTrackObserver ? "observer"
          : t == kTrackBench  ? "bench"
                              : "submit-" + std::to_string(t - kTrackSubmit0);
      std::fprintf(f,
                   "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                   "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                   t == 0 ? "" : ",\n", t, name.c_str());
    }
    for (unsigned t = 0; t < kTrackCount; ++t) {
      for (const Span& s : tracks_[t]) {
        std::fprintf(f,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f",
                     s.name, s.layer, t, s.t0_s * 1e6,
                     std::max(0.0, s.t1_s - s.t0_s) * 1e6);
        if (s.job != kNoJob) {
          std::fprintf(f, ", \"args\": {\"job\": %llu}",
                       static_cast<unsigned long long>(s.job));
        }
        std::fputc('}', f);
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* layer;
    const char* name;
    double t0_s;
    double t1_s;
    std::uint64_t job;
  };
  bool on_;
  Clock::time_point origin_;
  std::array<std::vector<Span>, kTrackCount> tracks_;
};

// ---------------------------------------------------------------------------
// The system under test

/// Planner, service, wire server and the generator's connections. The
/// destructor closes the connections, then stops the server; members
/// then go in reverse order, so the service drains before the planner
/// it points at is destroyed.
struct Rig {
  core::PersistencePlanner planner;
  std::unique_ptr<service::EstimationService> svc;
  std::unique_ptr<service::WireServer> server;
  std::vector<service::WireClient> submitters;
  std::optional<service::WireClient> observer;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    submitters.clear();
    observer.reset();
    if (server) server->stop();
  }
};

service::ServiceConfig service_config(const Workload& w,
                                      core::PersistencePlanner* planner) {
  service::ServiceConfig cfg;
  cfg.workers = kServiceWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.mode = w.mode;
  cfg.planner = planner;
  return cfg;
}

std::unique_ptr<Rig> build_rig(const Workload& w, const std::string& socket) {
  auto rig = std::make_unique<Rig>();
  rig->svc = std::make_unique<service::EstimationService>(
      service_config(w, &rig->planner));
  service::WireConfig wire;
  wire.socket_path = socket;
  wire.io_threads = kIoThreads;
  rig->server = std::make_unique<service::WireServer>(*rig->svc, wire);
  if (!rig->server->running()) return nullptr;
  for (unsigned c = 0; c <= kSubmitConnections; ++c) {
    std::optional<service::WireClient> client =
        service::WireClient::connect(socket);
    if (!client.has_value() || !client->ping()) return nullptr;
    if (c < kSubmitConnections) {
      rig->submitters.push_back(std::move(*client));
    } else {
      rig->observer = std::move(*client);
    }
  }
  return rig;
}

// ---------------------------------------------------------------------------
// Measurements

struct JobRecord {
  double due_s = 0.0;   ///< when the job was due (open loop) or taken (closed)
  double send_s = 0.0;  ///< SUBMIT written
  double recv_s = 0.0;  ///< reply read
  bool replied = false; ///< RESULT or BUSY arrived
  bool busy = false;
  service::JobResult result;

  [[nodiscard]] bool done() const {
    return replied && !busy && result.status == service::JobStatus::kDone;
  }
};

struct ObserverSample {
  std::size_t round = 0;
  int phase = 0;
  double value_s = 0.0;  ///< round trip or call duration
};

struct CheckpointSample {
  std::size_t round = 0;
  int phase = 0;
  double cut_s = 0.0;
  double encode_s = 0.0;
};

/// Counters read at each phase boundary of a round.
struct CounterPoint {
  service::ServiceMetrics metrics;
  core::PlannerCacheStats planner;
  util::Executor::Stats executor;
};

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return math::quantile_sorted(v, q);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The process's peak resident set (VmHWM).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Keeps the optimizer from eliding a probed call.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// ns per call of `body`, repeated until at least `min_s` elapses.
template <typename F>
double ns_per_call(F&& body, double min_s = 0.002) {
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    const double s = seconds_between(t0, Clock::now());
    if (s >= min_s) return s * 1e9 / static_cast<double>(reps);
    reps *= 4;
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "\n  }";
  return out;
}

bool same_outcome(const service::JobResult& a, const service::JobResult& b) {
  return a.status == b.status && a.attempts == b.attempts &&
         a.outcome.n_hat == b.outcome.n_hat &&
         a.outcome.ci_low == b.outcome.ci_low &&
         a.outcome.ci_high == b.outcome.ci_high && a.airtime_s == b.airtime_s;
}

// ---------------------------------------------------------------------------
// The run

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  std::string trace_path;
  std::string out_path;
  std::string socket_path;
  std::string commit;
};

/// What one round leaves behind for the run's metrics.
struct RoundStats {
  std::array<double, 4> phase_start_s{};
  std::array<CounterPoint, 4> counters{};
  std::size_t jobs_held = 0;
  std::size_t snapshot_bytes = 0;
  double capacity_wall_s = 0.0;
  double capacity_exec_s = 0.0;
};

class Run {
 public:
  Run(const Options& opt, Clock::time_point origin)
      : opt_(opt),
        w_(*opt.workload),
        origin_(origin),
        tracer_(!opt.trace_path.empty(), origin) {}

  int execute();

 private:
  double now_s() const { return seconds_between(origin_, Clock::now()); }
  void setup();
  void drive(std::size_t round);
  void submit_open_loop(unsigned conn, std::size_t round, int phase);
  void submit_closed_loop(unsigned conn, std::size_t round);
  void record_submit(unsigned conn, std::size_t job, double due_s);
  void observe(std::size_t round);
  CounterPoint read_counters() const;
  void finish_round(std::size_t round);
  void verify();
  void probe_layers();
  void compute_metrics();
  int report();

  const Options& opt_;
  const Workload& w_;
  Clock::time_point origin_;
  Tracer tracer_;

  Plan plan_;
  std::unique_ptr<Rig> rig_;
  std::vector<double> setup_builds_s_;
  std::vector<JobRecord> records_;
  std::vector<RoundStats> rounds_;

  // Current round's generator state.
  std::atomic<int> phase_{kWarmup};
  std::array<std::atomic<std::size_t>, 3> next_job_{};  ///< per phase

  std::vector<ObserverSample> metrics_rtt_;
  std::vector<ObserverSample> metrics_call_;  // traced only
  std::vector<CheckpointSample> checkpoints_;
  std::size_t observer_bytes_in_ = 0;   // client→server, timed phases
  std::size_t observer_bytes_out_ = 0;  // server→client, timed phases
  bool observer_ok_ = true;
  double peak_rss_mb_ = 0.0;

  // Checks.
  std::size_t replayed_ = 0;
  std::size_t replay_mismatches_ = 0;
  std::vector<std::string> check_failures_;
  std::string class_report_;

  // Probes (traced only).
  std::vector<double> probe_materialize_ms_, probe_decode_us_, probe_bfce_us_,
      probe_search_ns_, probe_choose_ns_, probe_ping_us_;
  std::vector<double> probe_iterations_, probe_rough_slots_;

  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::string series_json_;
  std::string rounds_json_;
  util::Table series_table_{{"n", "bfce_jobs", "airtime_p50_s",
                             "airtime_max_s", "over_0.19s"}};
};

void Run::setup() {
  // Built several times: the median is steadier than one build, and work
  // moved into set-up shows in it. The last build is the one used.
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig_.reset();
    const auto t0 = Clock::now();
    rig_ = build_rig(w_, opt_.socket_path);
    const auto t1 = Clock::now();
    if (rig_ == nullptr) {
      std::fprintf(stderr,
                   "e2e_bench: could not start the wire server on %s\n",
                   opt_.socket_path.c_str());
      std::exit(2);
    }
    setup_builds_s_.push_back(seconds_between(t0, t1));
    tracer_.span(kTrackBench, "bench", "setup", tracer_.at(t0),
                 tracer_.at(t1));
  }
}

void Run::record_submit(unsigned conn, std::size_t job, double due_s) {
  JobRecord& rec = records_[job];
  rec.due_s = due_s;
  rec.send_s = now_s();
  std::optional<service::JobResult> result =
      rig_->submitters[conn].submit(plan_.jobs[job], &rec.busy);
  rec.recv_s = now_s();
  rec.replied = result.has_value() || rec.busy;
  if (result.has_value()) rec.result = std::move(*result);
  if (!tracer_.on()) return;

  // The client sees [send, recv]; the server reports how long the job
  // spent admitted (latency_s = queue wait + execution). The admitted
  // interval is anchored at the reply, so everything else — framing,
  // decode, materialize, admission, reply encode — lands in pre_admit.
  const unsigned track = kTrackSubmit0 + conn;
  const auto id = static_cast<std::uint64_t>(job);
  if (rec.send_s > due_s) {
    tracer_.span(track, "bench.generator", "late", due_s, rec.send_s, id);
  }
  tracer_.span(track, "service.wire", "submit", rec.send_s, rec.recv_s, id);
  if (!result.has_value()) return;
  const service::JobResult& r = rec.result;
  const double admitted = std::max(rec.send_s, rec.recv_s - r.latency_s);
  tracer_.span(track, "service.wire", "pre_admit", rec.send_s, admitted, id);
  tracer_.span(track, "service", "queue_wait", admitted,
               admitted + r.queue_wait_s, id);
  const double exec0 = admitted + r.queue_wait_s;
  tracer_.span(track, "service", "exec", exec0, exec0 + r.exec_s, id);
  const double engine_s = r.counters.total().wall_us * 1e-6;
  tracer_.span(track, "rfid.frame_engine", "frames", exec0, exec0 + engine_s,
               id);
}

void Run::submit_open_loop(unsigned conn, std::size_t round, int phase) {
  // Whichever connection is free takes the next due job, so a job is
  // late only when all three connections are still waiting on replies.
  const std::size_t begin = plan_.first(round, phase);
  const std::size_t count = plan_.count(phase);
  const double start_s =
      rounds_[round].phase_start_s[static_cast<std::size_t>(phase)];
  for (;;) {
    const std::size_t k = next_job_[static_cast<std::size_t>(phase)]++;
    if (k >= count) return;
    const double due_s = start_s + static_cast<double>(k) / w_.rate_per_s;
    std::this_thread::sleep_until(
        origin_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s)));
    record_submit(conn, begin + k, due_s);
  }
}

void Run::submit_closed_loop(unsigned conn, std::size_t round) {
  const std::size_t begin = plan_.first(round, kCapacity);
  const std::size_t count = plan_.count(kCapacity);
  for (;;) {
    const std::size_t k = next_job_[kCapacity]++;
    if (k >= count) return;
    record_submit(conn, begin + k, now_s());
  }
}

CounterPoint Run::read_counters() const {
  CounterPoint p;
  p.metrics = rig_->svc->metrics();
  p.planner = rig_->planner.stats();
  p.executor = util::Executor::instance().stats();
  return p;
}

void Run::observe(std::size_t round) {
  const double metrics_period = 1.0 / w_.metrics_hz;
  double next_metrics = rounds_[round].phase_start_s[kWarmup];
  double next_checkpoint = next_metrics;
  service::WireClient& client = *rig_->observer;
  for (;;) {
    const double next = std::min(next_metrics, next_checkpoint);
    std::this_thread::sleep_until(
        origin_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(next)));
    const int phase = phase_.load();
    if (phase == kDone) return;
    const double t = now_s();
    if (t >= next_metrics) {
      std::optional<std::string> json = client.metrics_json();
      const double t1 = now_s();
      if (!json.has_value() || json->empty() || json->front() != '{') {
        observer_ok_ = false;
      } else {
        metrics_rtt_.push_back({round, phase, t1 - t});
        if (phase != kWarmup) {
          observer_bytes_in_ += 4 + 1;                    // METRICS frame
          observer_bytes_out_ += 4 + 1 + 4 + json->size();  // METRICS_JSON
        }
      }
      tracer_.span(kTrackObserver, "service.wire", "metrics_rtt", t, t1);
      if (tracer_.on()) {
        const double c0 = now_s();
        keep(rig_->svc->metrics());
        const double c1 = now_s();
        metrics_call_.push_back({round, phase, c1 - c0});
        tracer_.span(kTrackObserver, "service", "metrics_call", c0, c1);
      }
      next_metrics = std::max(next_metrics + metrics_period, t);
    }
    if (t >= next_checkpoint) {
      const double c0 = now_s();
      const service::ServiceSnapshot snap = rig_->svc->snapshot();
      const double c1 = now_s();
      keep(service::encode_snapshot(snap));
      const double c2 = now_s();
      checkpoints_.push_back({round, phase, c1 - c0, c2 - c1});
      tracer_.span(kTrackObserver, "service.snapshot", "cut", c0, c1);
      tracer_.span(kTrackObserver, "service.snapshot", "encode", c1, c2);
      next_checkpoint = std::max(next_checkpoint + w_.checkpoint_s, t);
    }
  }
}

void Run::drive(std::size_t round) {
  // Phase boundaries: the last submitter to finish a phase records the
  // counters and the next phase's start, so every phase begins with an
  // idle service.
  constexpr double kLeadS = 0.005;
  RoundStats& stats = rounds_[round];
  phase_.store(kWarmup);
  for (auto& next : next_job_) next.store(0);
  stats.phase_start_s[kWarmup] = now_s() + kLeadS;
  stats.counters[kWarmup] = read_counters();
  auto advance = [this, &stats]() noexcept {
    const int finished = phase_.load();
    const auto next = static_cast<std::size_t>(finished + 1);
    stats.counters[next] = read_counters();
    stats.phase_start_s[next] = now_s() + kLeadS;
    tracer_.span(kTrackBench, "bench", kPhaseNames[finished],
                 stats.phase_start_s[static_cast<std::size_t>(finished)],
                 stats.phase_start_s[next]);
    phase_.store(finished + 1);
  };
  std::barrier sync(kSubmitConnections, advance);

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitConnections);
  for (unsigned c = 0; c < kSubmitConnections; ++c) {
    submitters.emplace_back([this, c, round, &sync] {
      submit_open_loop(c, round, kWarmup);
      sync.arrive_and_wait();
      submit_open_loop(c, round, kOpenLoop);
      sync.arrive_and_wait();
      submit_closed_loop(c, round);
      sync.arrive_and_wait();
    });
  }
  observe(round);  // returns once the capacity phase has ended
  for (std::thread& t : submitters) t.join();
}

void Run::finish_round(std::size_t round) {
  RoundStats& stats = rounds_[round];
  const bool last = round + 1 == kRounds;
  if (tracer_.on() && last) {
    // Bare wire round trips, before the connections close.
    for (int i = 0; i < 200; ++i) {
      const double a = now_s();
      const bool ok = rig_->observer->ping();
      const double b = now_s();
      if (ok) probe_ping_us_.push_back((b - a) * 1e6);
    }
  }
  // The server times out idle connections; close them before the checks.
  rig_->submitters.clear();
  rig_->observer.reset();

  service::EstimationService& svc = *rig_->svc;
  svc.drain();
  const service::ServiceSnapshot snap = svc.snapshot();
  stats.snapshot_bytes = service::encode_snapshot(snap).size();
  stats.jobs_held = snap.completed.size();
  const service::ServiceMetrics m = svc.metrics();
  if (m.admitted != m.completed || m.completed != stats.jobs_held) {
    check_failures_.push_back("round " + std::to_string(round) +
                              ": the service lost track of a job");
  }

  const std::size_t begin = plan_.first(round, kCapacity);
  const std::size_t end = begin + plan_.count(kCapacity);
  double first = records_[begin].send_s, last_recv = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    first = std::min(first, records_[i].send_s);
    last_recv = std::max(last_recv, records_[i].recv_s);
    stats.capacity_exec_s += records_[i].result.exec_s;
  }
  stats.capacity_wall_s = last_recv - first;
  peak_rss_mb_ = peak_rss_mb();
  // The last round's planner stays warm for the layer probes. Earlier
  // rounds' services go, and their populations' pages go back to the
  // kernel, so each round starts from the same footprint.
  if (!last) {
    rig_.reset();
    malloc_trim(0);
  }
}

void Run::verify() {
  std::size_t unanswered = 0;
  for (const JobRecord& rec : records_) {
    if (!rec.replied) ++unanswered;
  }
  if (unanswered > 0) {
    check_failures_.push_back(std::to_string(unanswered) +
                              " submits got neither RESULT nor BUSY");
  }
  if (!observer_ok_) check_failures_.push_back("a METRICS reply was malformed");

  // Replay: a second service, no wire and no planner, must reproduce
  // every 50th wire result bit for bit.
  {
    service::EstimationService replay(service_config(w_, nullptr));
    std::vector<std::pair<std::size_t, service::JobId>> ids;
    for (std::size_t i = 0; i < plan_.jobs.size(); i += kReplayEvery) {
      if (!records_[i].done()) continue;
      ids.emplace_back(i, replay.submit_portable(plan_.jobs[i]));
    }
    for (const auto& [job, id] : ids) {
      ++replayed_;
      if (!same_outcome(replay.wait(id), records_[job].result)) {
        ++replay_mismatches_;
        std::fprintf(stderr, "e2e_bench: job %zu differs on replay\n", job);
      }
    }
    if (replay_mismatches_ > 0) {
      check_failures_.push_back(std::to_string(replay_mismatches_) +
                                " replayed jobs differ from their wire result");
    }
  }

  // (ε, δ) conformance per (estimator, ε, δ) class.
  struct ClassCount {
    std::size_t designed = 0;
    std::size_t misses = 0;
  };
  std::map<std::tuple<std::string, double, double>, ClassCount> classes;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const JobRecord& rec = records_[i];
    if (!rec.done() || !rec.result.outcome.met_by_design) continue;
    const service::PortableJobSpec& spec = plan_.jobs[i];
    ClassCount& c =
        classes[{spec.estimator, spec.req.epsilon, spec.req.delta}];
    ++c.designed;
    const double n = static_cast<double>(spec.population.size);
    if (rec.result.outcome.relative_error(n) > spec.req.epsilon) ++c.misses;
  }
  char buf[256];
  for (const auto& [key, c] : classes) {
    const auto& [estimator, eps, delta] = key;
    const math::ProportionInterval ci =
        math::clopper_pearson_interval(c.misses, c.designed, 0.99);
    const bool checked = c.designed >= 50;
    const bool ok = !checked || ci.lo <= delta;
    std::snprintf(buf, sizeof(buf),
                  "  %-5s eps=%.2f delta=%.2f: %zu/%zu miss (%.4f), 99%% CP "
                  "lower bound %.4f %s\n",
                  estimator.c_str(), eps, delta, c.misses, c.designed,
                  ratio(static_cast<double>(c.misses),
                        static_cast<double>(c.designed)),
                  ci.lo, !checked ? "(too few to check)" : ok ? "ok" : "FAIL");
    class_report_ += buf;
    if (!ok) {
      check_failures_.push_back(estimator + " misses its (eps, delta) class");
    }
  }
}

void Run::probe_layers() {
  // Direct calls into each layer on the workload's own inputs: the first
  // open-loop jobs, with a time cap per layer.
  constexpr std::size_t kMaxProbes = 48;
  constexpr double kMaxProbeS = 1.5;
  const std::size_t first = plan_.first(0, kOpenLoop);
  const std::size_t last = first + plan_.count(kOpenLoop);

  const double t0 = now_s();
  for (std::size_t i = first; i < std::min(last, first + kMaxProbes) &&
                              now_s() - t0 < kMaxProbeS;
       ++i) {
    const double a = now_s();
    const std::optional<service::MaterializedJob> job =
        service::materialize(plan_.jobs[i]);
    const double b = now_s();
    keep(job);
    probe_materialize_ms_.push_back((b - a) * 1e3);
    tracer_.span(kTrackBench, "service.portable", "materialize", a, b, i);
  }

  for (std::size_t i = first; i < std::min(last, first + kMaxProbes); ++i) {
    util::ByteWriter w;
    service::encode_portable_job(w, plan_.jobs[i]);
    const std::vector<std::uint8_t> bytes = w.take();
    probe_decode_us_.push_back(1e-3 * ns_per_call(
                                          [&] {
                                            util::ByteReader r(bytes.data(),
                                                               bytes.size());
                                            keep(service::decode_portable_job(
                                                r));
                                          },
                                          0.0005));
  }

  const double bfce_t0 = now_s();
  const core::BfceParams params;
  for (std::size_t i = first; i < last && probe_bfce_us_.size() < kMaxProbes &&
                              now_s() - bfce_t0 < kMaxProbeS;
       ++i) {
    const service::PortableJobSpec& spec = plan_.jobs[i];
    if (spec.estimator != std::string_view{"BFCE"}) continue;
    const std::optional<service::MaterializedJob> job =
        service::materialize(spec);
    // Attempt 0 of the job exactly as a service worker runs it.
    rfid::ReaderContext ctx(*job->population, util::derive_seed(spec.seed, 0),
                            w_.mode);
    core::BfceEstimator bfce;
    core::BfceTrace trace;
    const double a = now_s();
    keep(bfce.estimate_traced(ctx, spec.req, trace));
    const double b = now_s();
    probe_bfce_us_.push_back((b - a) * 1e6);
    probe_iterations_.push_back(trace.probe_iterations);
    probe_rough_slots_.push_back(trace.rough_slots_observed);
    tracer_.span(kTrackBench, "core.bfce", "estimate_traced", a, b, i);

    probe_search_ns_.push_back(ns_per_call([&] {
      keep(core::PersistencePlanner::search(trace.n_low, params.w, params.k,
                                            spec.req.epsilon, spec.req.delta));
    }));
    // The last round's planner is warm with every key of its own jobs;
    // choose() on a key it holds is the cache-hit path.
    rig_->planner.choose(trace.n_low, params.w, params.k, spec.req.epsilon,
                         spec.req.delta);
    probe_choose_ns_.push_back(ns_per_call([&] {
      keep(rig_->planner.choose(trace.n_low, params.w, params.k,
                                spec.req.epsilon, spec.req.delta));
    }));
  }
}

void Run::compute_metrics() {
  // Each end-to-end timing is taken per round, and the run reports the
  // mean of the round values without the highest and the lowest. The host
  // takes CPUs away in bursts of seconds: one burst moved a median pooled
  // over the rounds by up to 3x, and one lucky round moved the best round
  // by 20%. The record keeps every round's value.
  using PerRound = std::array<std::vector<double>, kRounds>;
  const auto medians = [](const PerRound& per_round) {
    std::vector<double> out;
    for (const std::vector<double>& v : per_round) {
      out.push_back(v.empty() ? 0.0 : quantile(v, 0.5));
    }
    return out;
  };
  const auto trimmed = [this](const char* name, const char* unit,
                              std::vector<double> rounds) {
    char buf[64];
    rounds_json_ += std::string(rounds_json_.empty() ? "" : ", ") + "\"" +
                    name + "\": [";
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", r == 0 ? "" : ", ",
                    rounds[r]);
      rounds_json_ += buf;
    }
    rounds_json_ += "]";
    std::sort(rounds.begin(), rounds.end());
    const std::vector<double> middle(rounds.begin() + 1, rounds.end() - 1);
    return Metric{name, mean(middle), unit};
  };

  // ---- Open-loop round trips ---------------------------------------------
  PerRound round_rtt_ms;
  std::vector<double> rtt_ms, late_ms, pre_admit_ms, queue_ms, exec_ms;
  double pre_admit_sum = 0.0, client_rtt_sum = 0.0;
  std::size_t slo_miss = 0, open_sent = 0;
  std::size_t timed_jobs = 0;
  rfid::EngineCounters engine;
  double exec_total_s = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const int phase = plan_.phase_of(i);
    if (phase == kWarmup) continue;
    const JobRecord& rec = records_[i];
    ++timed_jobs;
    engine += rec.result.counters;
    exec_total_s += rec.result.exec_s;
    if (phase != kOpenLoop) continue;
    ++open_sent;
    late_ms.push_back((rec.send_s - rec.due_s) * 1e3);
    const double rtt = (rec.recv_s - rec.due_s) * 1e3;
    if (!rec.done()) {
      ++slo_miss;
      continue;
    }
    rtt_ms.push_back(rtt);
    round_rtt_ms[i / plan_.per_round()].push_back(rtt);
    if (rtt > w_.slo_ms) ++slo_miss;
    const service::JobResult& r = rec.result;
    const double client_rtt = rec.recv_s - rec.send_s;
    const double pre_admit = std::max(0.0, client_rtt - r.latency_s);
    pre_admit_ms.push_back(pre_admit * 1e3);
    pre_admit_sum += pre_admit;
    client_rtt_sum += client_rtt;
    queue_ms.push_back(r.queue_wait_s * 1e3);
    exec_ms.push_back(r.exec_s * 1e3);
  }

  // ---- Capacity, per round -----------------------------------------------
  std::vector<double> round_capacity;
  double capacity_wall_s = 0.0, capacity_exec_s = 0.0;
  const auto capacity_jobs = static_cast<double>(plan_.count(kCapacity));
  for (const RoundStats& r : rounds_) {
    capacity_wall_s += r.capacity_wall_s;
    capacity_exec_s += r.capacity_exec_s;
    round_capacity.push_back(capacity_jobs / std::max(1e-9, r.capacity_wall_s));
  }

  // ---- Observer: open loop only. Jobs held grow at a fixed rate there,
  // so every run reads and checkpoints the same service sizes; in the
  // saturated capacity phase a read mostly measures the CPU run queue. ----
  PerRound round_metrics_rtt_ms, round_checkpoint_ms;
  std::vector<double> metrics_rtt_ms, metrics_call_ms, cut_ms, encode_ms;
  for (const ObserverSample& s : metrics_rtt_) {
    if (s.phase != kOpenLoop) continue;
    metrics_rtt_ms.push_back(s.value_s * 1e3);
    round_metrics_rtt_ms[s.round].push_back(s.value_s * 1e3);
  }
  for (const ObserverSample& s : metrics_call_) {
    if (s.phase == kOpenLoop) metrics_call_ms.push_back(s.value_s * 1e3);
  }
  for (const CheckpointSample& c : checkpoints_) {
    if (c.phase != kOpenLoop) continue;
    round_checkpoint_ms[c.round].push_back((c.cut_s + c.encode_s) * 1e3);
    cut_ms.push_back(c.cut_s * 1e3);
    encode_ms.push_back(c.encode_s * 1e3);
  }
  // metrics() cost against jobs held: within each round, the last tenth
  // of its calls over the first tenth; the median over rounds.
  std::vector<double> call_growth;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<double> calls;
    for (const ObserverSample& s : metrics_call_) {
      if (s.round == round) calls.push_back(s.value_s);
    }
    const std::size_t tenth = calls.size() / 10;
    if (tenth == 0) continue;
    const std::vector<double> early(calls.begin(),
                                    calls.begin() +
                                        static_cast<std::ptrdiff_t>(tenth));
    const std::vector<double> late(calls.end() -
                                       static_cast<std::ptrdiff_t>(tenth),
                                   calls.end());
    call_growth.push_back(ratio(quantile(late, 0.5), quantile(early, 0.5)));
  }

  // ---- Estimates: the paper's metric and (ε, δ) quality ------------------
  std::vector<double> bfce_airtime;
  std::map<std::uint64_t, std::vector<double>> airtime_by_n;
  std::size_t eps_miss = 0, estimates = 0, over_claim = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const JobRecord& rec = records_[i];
    if (plan_.phase_of(i) == kWarmup || !rec.done()) continue;
    const service::PortableJobSpec& spec = plan_.jobs[i];
    ++estimates;
    if (rec.result.outcome.relative_error(
            static_cast<double>(spec.population.size)) > spec.req.epsilon) {
      ++eps_miss;
    }
    if (spec.estimator == std::string_view{"BFCE"}) {
      bfce_airtime.push_back(rec.result.airtime_s);
      airtime_by_n[spec.population.size].push_back(rec.result.airtime_s);
      if (rec.result.airtime_s > kAirtimeClaimS) ++over_claim;
    }
  }
  series_json_ = "[";
  for (const auto& [n, samples] : airtime_by_n) {
    const double p50 = quantile(samples, 0.5);
    const double max = *std::max_element(samples.begin(), samples.end());
    std::size_t over = 0;
    for (const double a : samples) over += a > kAirtimeClaimS ? 1 : 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"n\": %llu, \"bfce_jobs\": %zu, \"airtime_p50_s\": "
                  "%.17g, \"airtime_max_s\": %.17g, \"over_claim\": %zu}",
                  series_json_.size() > 1 ? ", " : "",
                  static_cast<unsigned long long>(n), samples.size(), p50, max,
                  over);
    series_json_ += buf;
    series_table_.add_row({std::to_string(n), std::to_string(samples.size()),
                           util::Table::num(p50), util::Table::num(max),
                           std::to_string(over)});
  }
  series_json_ += "]";

  std::size_t snapshot_bytes = 0, jobs_held = 0;
  for (const RoundStats& r : rounds_) {
    snapshot_bytes += r.snapshot_bytes;
    jobs_held += r.jobs_held;
  }

  // Tails are per-layer (slo.*) metrics, not bounded ones: on a shared
  // host they mostly count how often the hypervisor took the run's CPUs
  // away. Over ten seeds the spread of p90 reached 0.3-3.5 of its median
  // while the host was busy, against 0.1-0.5 for p50.
  end_to_end_ = {
      {"setup_s", quantile(setup_builds_s_, 0.5), "s"},
      trimmed("rtt_p50_ms", "ms", medians(round_rtt_ms)),
      trimmed("capacity_jobs_per_s", "1/s", round_capacity),
      trimmed("metrics_rtt_p50_ms", "ms", medians(round_metrics_rtt_ms)),
      trimmed("checkpoint_ms_p50", "ms", medians(round_checkpoint_ms)),
      {"snapshot_bytes_per_job",
       ratio(static_cast<double>(snapshot_bytes),
             static_cast<double>(jobs_held)),
       "B"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
      {"bfce_airtime_mean_s", mean(bfce_airtime), "s"},
  };
  if (!tracer_.on()) return;

  // ---- Per-layer (traced run); counter deltas summed over the rounds -----
  service::WireStats wire;
  double completed = 0.0, retries = 0.0, hits = 0.0, misses = 0.0;
  double planner_entries = 0.0;
  util::Executor::Stats exec_delta;
  for (const RoundStats& r : rounds_) {
    const CounterPoint& a = r.counters[kOpenLoop];
    const CounterPoint& b = r.counters[kDone];
    wire.submits += b.metrics.wire.submits - a.metrics.wire.submits;
    wire.bytes_in += b.metrics.wire.bytes_in - a.metrics.wire.bytes_in;
    wire.bytes_out += b.metrics.wire.bytes_out - a.metrics.wire.bytes_out;
    wire.jobs_shed += b.metrics.wire.jobs_shed - a.metrics.wire.jobs_shed;
    wire.timeouts += b.metrics.wire.timeouts - a.metrics.wire.timeouts;
    wire.malformed += b.metrics.wire.malformed - a.metrics.wire.malformed;
    wire.disconnects +=
        b.metrics.wire.disconnects - a.metrics.wire.disconnects;
    completed +=
        static_cast<double>(b.metrics.completed - a.metrics.completed);
    retries += static_cast<double>(b.metrics.retries - a.metrics.retries);
    hits += static_cast<double>(b.planner.hits - a.planner.hits);
    misses += static_cast<double>(b.planner.misses - a.planner.misses);
    planner_entries += static_cast<double>(b.planner.entries);
    exec_delta.dispatches += b.executor.dispatches - a.executor.dispatches;
    exec_delta.inline_runs += b.executor.inline_runs - a.executor.inline_runs;
    exec_delta.steals += b.executor.steals - a.executor.steals;
    exec_delta.wakeups += b.executor.wakeups - a.executor.wakeups;
  }
  const double timed = static_cast<double>(timed_jobs);
  const double submits = static_cast<double>(wire.submits);
  const double hit_rate = ratio(hits, hits + misses);
  const double search_ns = quantile(probe_search_ns_, 0.5);
  const double choose_ns = quantile(probe_choose_ns_, 0.5);
  const double bfce_us = quantile(probe_bfce_us_, 0.5);
  const double materialize_ms = quantile(probe_materialize_ms_, 0.5);
  const double per_job = 1.0 / std::max(1.0, timed);

  per_layer_ = {
      {"generator.late_ms_p99", quantile(late_ms, 0.99), "ms"},
      {"wire.pre_admit_ms_p50", quantile(pre_admit_ms, 0.5), "ms"},
      {"wire.pre_admit_share", ratio(pre_admit_sum, client_rtt_sum), "ratio"},
      {"wire.ping_rtt_us_p50", quantile(probe_ping_us_, 0.5), "us"},
      {"wire.bytes_in_per_job",
       ratio(static_cast<double>(wire.bytes_in - observer_bytes_in_), submits),
       "B"},
      {"wire.bytes_out_per_job",
       ratio(static_cast<double>(wire.bytes_out - observer_bytes_out_),
             submits),
       "B"},
      {"wire.jobs_shed", static_cast<double>(wire.jobs_shed), "count"},
      {"wire.timeouts", static_cast<double>(wire.timeouts), "count"},
      {"wire.malformed", static_cast<double>(wire.malformed), "count"},
      {"wire.disconnects", static_cast<double>(wire.disconnects), "count"},
      {"portable.materialize_ms_p50", materialize_ms, "ms"},
      {"portable.materialize_share",
       ratio(materialize_ms, quantile(rtt_ms, 0.5)), "ratio"},
      {"portable.decode_us_p50", quantile(probe_decode_us_, 0.5), "us"},
      {"service.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms"},
      {"service.queue_wait_ms_p99", quantile(queue_ms, 0.99), "ms"},
      {"service.exec_ms_p50", quantile(exec_ms, 0.5), "ms"},
      {"service.exec_ms_p99", quantile(exec_ms, 0.99), "ms"},
      {"service.worker_busy_share",
       ratio(capacity_exec_s, capacity_wall_s * kServiceWorkers), "ratio"},
      {"service.useful_attempt_ratio", ratio(completed, completed + retries),
       "ratio"},
      {"service.metrics_call_ms_p50", quantile(metrics_call_ms, 0.5), "ms"},
      {"service.metrics_call_growth", quantile(call_growth, 0.5), "ratio"},
      {"snapshot.cut_ms_p50", quantile(cut_ms, 0.5), "ms"},
      {"snapshot.encode_ms_p50", quantile(encode_ms, 0.5), "ms"},
      {"snapshot.bytes", static_cast<double>(snapshot_bytes) / kRounds, "B"},
      {"planner.hit_rate", hit_rate, "ratio"},
      {"planner.entries", planner_entries / kRounds, "count"},
      {"planner.search_ns_p50", search_ns, "ns"},
      {"planner.choose_hit_ns_p50", choose_ns, "ns"},
      {"planner.share_of_bfce",
       ratio(hit_rate * choose_ns + (1.0 - hit_rate) * search_ns,
             bfce_us * 1e3),
       "ratio"},
      {"bfce.estimate_us_p50", bfce_us, "us"},
      {"bfce.probe_iterations_mean", mean(probe_iterations_), "count"},
      {"bfce.rough_slots_mean", mean(probe_rough_slots_), "count"},
      {"bfce.airtime_max_share_of_claim",
       bfce_airtime.empty()
           ? 0.0
           : *std::max_element(bfce_airtime.begin(), bfce_airtime.end()) /
                 kAirtimeClaimS,
       "ratio"},
      {"bfce.airtime_over_claim_share",
       ratio(static_cast<double>(over_claim),
             static_cast<double>(bfce_airtime.size())),
       "ratio"},
      {"estimate.eps_miss_share",
       ratio(static_cast<double>(eps_miss), static_cast<double>(estimates)),
       "ratio"},
      {"slo.rtt_p90_ms", quantile(rtt_ms, 0.90), "ms"},
      {"slo.rtt_p99_ms", quantile(rtt_ms, 0.99), "ms"},
      {"slo.metrics_rtt_p90_ms", quantile(metrics_rtt_ms, 0.90), "ms"},
      {"slo.metrics_rtt_p95_ms", quantile(metrics_rtt_ms, 0.95), "ms"},
      {"slo.miss_share",
       ratio(static_cast<double>(slo_miss), static_cast<double>(open_sent)),
       "ratio"},
  };
  for (std::size_t s = 0; s < rfid::kFrameShapeCount; ++s) {
    const rfid::ShapeCounters& sc = engine.by_shape[s];
    const std::string prefix =
        std::string("engine.") +
        rfid::to_cstring(static_cast<rfid::FrameShape>(s)) + ".";
    per_layer_.push_back(
        {prefix + "frames_per_job", static_cast<double>(sc.frames) * per_job,
         "count"});
    per_layer_.push_back(
        {prefix + "tag_tx_per_job", static_cast<double>(sc.tag_tx) * per_job,
         "count"});
    per_layer_.push_back(
        {prefix + "wall_ms_per_job", sc.wall_us * 1e-3 * per_job, "ms"});
    per_layer_.push_back(
        {prefix + "ns_per_tag_tx",
         ratio(sc.wall_us * 1e3, static_cast<double>(sc.tag_tx)), "ns"});
  }
  // Every shape's times over all shapes too: a shape a workload never runs
  // reads 0 ms on every run, so only these are listed in BENCHMARK.json.
  const rfid::ShapeCounters all_shapes = engine.total();
  const double auto_total =
      static_cast<double>(engine.auto_sharded + engine.auto_sequential);
  const std::vector<Metric> tail = {
      {"engine.wall_ms_per_job", all_shapes.wall_us * 1e-3 * per_job, "ms"},
      {"engine.ns_per_tag_tx",
       ratio(all_shapes.wall_us * 1e3, static_cast<double>(all_shapes.tag_tx)),
       "ns"},
      {"engine.share_of_exec", ratio(all_shapes.wall_us * 1e-6, exec_total_s),
       "ratio"},
      {"engine.sharded_walks_per_job",
       static_cast<double>(engine.sharded_walks) * per_job, "count"},
      {"engine.blocked_batches_per_job",
       static_cast<double>(engine.blocked_batches) * per_job, "count"},
      {"engine.auto_sharded_share",
       ratio(static_cast<double>(engine.auto_sharded), auto_total), "ratio"},
      {"executor.dispatches_per_job",
       static_cast<double>(exec_delta.dispatches) * per_job, "count"},
      {"executor.inline_runs_per_job",
       static_cast<double>(exec_delta.inline_runs) * per_job, "count"},
      {"executor.steals_per_job",
       static_cast<double>(exec_delta.steals) * per_job, "count"},
      {"executor.wakeups_per_job",
       static_cast<double>(exec_delta.wakeups) * per_job, "count"},
      {"trace.spans", static_cast<double>(tracer_.size()), "count"},
  };
  per_layer_.insert(per_layer_.end(), tail.begin(), tail.end());
}

int Run::report() {
  const Fingerprint fp = host_fingerprint(opt_.commit);
  const bool correct = check_failures_.empty();
  std::size_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (plan_.phase_of(i) == kWarmup) continue;
    ++attempted;
    if (!records_[i].done()) ++failed;
  }

  std::printf("== e2e_bench %s: seed %llu, %.0f s, %s ==\n", w_.name,
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              tracer_.on() ? "traced" : "untraced");
  std::printf(
      "host: nproc=%u BFCE_THREADS=%s avx512=%s compiler=%s build=%s "
      "commit=%s\n",
      fp.nproc, fp.bfce_threads.c_str(), fp.avx512.c_str(), fp.compiler.c_str(),
      fp.build_type.c_str(), fp.commit.c_str());
  std::printf(
      "%zu rounds of: warm-up %zu jobs, open loop %zu at %.0f/s, capacity %zu "
      "(closed, %u connections)\n",
      kRounds, plan_.count(kWarmup), plan_.count(kOpenLoop), w_.rate_per_s,
      plan_.count(kCapacity), kSubmitConnections);
  util::Table table({"metric", "value", "unit"});
  for (const Metric& m : end_to_end_) {
    table.add_row({m.name, util::Table::num(m.value), m.unit});
  }
  for (const Metric& m : per_layer_) {
    table.add_row({m.name, util::Table::num(m.value), m.unit});
  }
  table.print(std::cout);
  std::printf("\nBFCE airtime by population size (paper: < %.2f s for any n)\n",
              kAirtimeClaimS);
  series_table_.print(std::cout);
  std::printf("\n(eps, delta) classes:\n%s", class_report_.c_str());
  std::printf("replayed %zu jobs without wire or planner: %zu differ\n",
              replayed_, replay_mismatches_);
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");
  for (const std::string& f : check_failures_) {
    std::printf("  - %s\n", f.c_str());
  }

  // The string fields come from the environment and the command line, so
  // they are escaped and concatenated rather than formatted into a buffer.
  const std::string fingerprint_json =
      "{\"nproc\": " + std::to_string(fp.nproc) + ", \"bfce_threads\": \"" +
      json_escape(fp.bfce_threads) + "\", \"avx512\": \"" + fp.avx512 +
      "\", \"compiler\": \"" + json_escape(fp.compiler) +
      "\", \"build_type\": \"" + json_escape(fp.build_type) +
      "\", \"commit\": \"" + json_escape(fp.commit) + "\"}";

  char buf[1024];
  if (tracer_.on()) {
    const std::string metadata =
        std::string("{\"workload\": \"") + w_.name +
        "\", \"seed\": " + std::to_string(opt_.seed) +
        ", \"host\": " + fingerprint_json + "}";
    if (!tracer_.write_chrome_json(opt_.trace_path, metadata)) {
      std::fprintf(stderr, "e2e_bench: could not write %s\n",
                   opt_.trace_path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", tracer_.size(),
                opt_.trace_path.c_str());
  }
  if (opt_.out_path.empty()) return correct ? 0 : 1;

  std::string json = "{\n  \"bench\": \"e2e_bench\",\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %.17g,\n"
      "  \"traced\": %s,\n",
      w_.name, static_cast<unsigned long long>(opt_.seed), opt_.seconds,
      tracer_.on() ? "true" : "false");
  json += buf;
  json += "  \"host\": " + fingerprint_json + ",\n";
  std::snprintf(
      buf, sizeof(buf),
      "  \"config\": {\"rounds\": %zu, \"workers\": %u, "
      "\"queue_capacity\": %zu, \"io_threads\": %u, "
      "\"submit_connections\": %u, \"mode\": \"%s\", \"rate_per_s\": %.17g, "
      "\"slo_ms\": %.17g, \"metrics_hz\": %.17g, \"checkpoint_s\": %.17g, "
      "\"jobs_per_round\": {\"warmup\": %zu, \"open_loop\": %zu, "
      "\"capacity\": %zu}},\n",
      kRounds, kServiceWorkers, kQueueCapacity, kIoThreads, kSubmitConnections,
      w_.mode == rfid::FrameMode::kExact ? "exact" : "sampled", w_.rate_per_s,
      w_.slo_ms, w_.metrics_hz, w_.checkpoint_s, plan_.count(kWarmup),
      plan_.count(kOpenLoop), plan_.count(kCapacity));
  json += buf;
  std::string failures = "[";
  for (const std::string& f : check_failures_) {
    failures += (failures.size() > 1 ? ", \"" : "\"") + json_escape(f) + "\"";
  }
  failures += "]";
  std::snprintf(buf, sizeof(buf),
                "  \"correct\": %s,\n  \"attempted\": %zu,\n"
                "  \"failed\": %zu,\n  \"replayed\": %zu,\n",
                correct ? "true" : "false", attempted, failed, replayed_);
  json += buf;
  json += "  \"check_failures\": " + failures + ",\n";
  json += "  \"end_to_end\": " + metrics_json(end_to_end_) + ",\n";
  json += "  \"per_layer\": " + metrics_json(per_layer_) + ",\n";
  json += "  \"round_medians\": {" + rounds_json_ + "},\n";
  json += "  \"series\": {\"bfce_airtime_by_n\": " + series_json_ + "}\n}\n";
  std::FILE* f = std::fopen(opt_.out_path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "e2e_bench: could not write %s\n",
                 opt_.out_path.c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

int Run::execute() {
  plan_ = build_plan(w_, opt_.seed, opt_.seconds);
  records_.resize(plan_.jobs.size());
  rounds_.resize(kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    setup();
    drive(round);
    finish_round(round);
  }
  verify();
  if (tracer_.on()) probe_layers();
  compute_metrics();
  rig_.reset();
  return report();
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  const util::Cli cli(argc, argv,
                      {"workload", "seed", "seconds", "trace", "out", "socket",
                       "commit"});
  Options opt;
  const std::string name = cli.get("workload", "");
  opt.workload = find_workload(name);
  if (opt.workload == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown --workload '%s'; one of:",
                 name.c_str());
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  opt.seed = cli.get_u64("seed", 1);
  opt.seconds = cli.get_double("seconds", 20.0);
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
    std::fprintf(stderr, "e2e_bench: --seconds must be in [1, 600]\n");
    return 2;
  }
  opt.trace_path = cli.get("trace", "");
  opt.out_path = cli.get("out", "");
  opt.socket_path =
      cli.get("socket", "e2e_bench." + std::to_string(::getpid()) + ".sock");
  opt.commit = cli.get("commit", "unknown");

  Run run(opt, origin);
  return run.execute();
}
