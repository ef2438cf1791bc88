// Race-stress suite: hammers every concurrent seam of the service layer
// from many threads at once. Run under the `tsan` preset (ThreadSanitizer
// instruments every access, so a race that never corrupts memory — and
// would sail through ASan — still fails loudly). The tests also run
// plain as a ctest `stress`-labelled binary; assertions keep them
// meaningful without instrumentation.
//
// Surfaces covered, mirroring the lock-discipline blocks in
// service/service.hpp and core/planner.hpp:
//   * submit / try_submit vs a full queue (backpressure cv)
//   * cancel racing workers dequeuing the same ids
//   * wall-clock expiry racing execution
//   * metrics() / queue_depth() / poll() snapshots during the storm
//   * concurrent shutdown() callers (double-join on the pool)
//   * PersistencePlanner::choose / stats / clear from many threads
//   * the sharded exact-mode FrameEngine walk: every worker spins up
//     its own parallel_for shard team; scratch must stay private and
//     duplicate-seed jobs bit-identical
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "hash/persistence.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/population.hpp"
#include "rfid/reader.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"
#include "util/executor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bfce::service {
namespace {

// Small enough that a single BFCE estimate is cheap, large enough that
// workers genuinely overlap.
const rfid::TagPopulation& stress_pop() {
  static const auto pop =
      rfid::make_population(5000, rfid::TagIdDistribution::kT1Uniform, 7);
  return pop;
}

/// Cheap estimator so the stress loops turn over quickly; the returned
/// estimate is a pure function of nothing, which is fine — these tests
/// assert on liveness and race-freedom, not accuracy.
class NoopEstimator final : public estimators::CardinalityEstimator {
 public:
  std::string name() const override { return "noop"; }
  estimators::EstimateOutcome estimate(
      rfid::ReaderContext&, const estimators::Requirement&) override {
    estimators::EstimateOutcome out;
    out.n_hat = 42.0;
    out.met_by_design = true;
    return out;
  }
};

EstimatorFactory noop_factory() {
  return [] { return std::make_unique<NoopEstimator>(); };
}

JobSpec noop_spec(std::uint64_t seed) {
  JobSpec spec;
  spec.population = &stress_pop();
  spec.factory = noop_factory();
  spec.seed = seed;
  return spec;
}

TEST(RaceStress, SubmitCancelExpireMetricsStorm) {
  constexpr unsigned kSubmitters = 4;
  constexpr unsigned kCancellers = 2;
  constexpr unsigned kObservers = 2;
  constexpr std::uint64_t kJobsPerSubmitter = 300;

  core::PersistencePlanner planner;
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 32;  // small: keeps the backpressure cv hot
  cfg.planner = &planner;
  EstimationService svc(cfg);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> bounced{0};

  // Recent ids ring shared with the cancellers; slots are atomics so a
  // torn read is impossible and a stale id is merely a failed cancel.
  constexpr std::size_t kRing = 64;
  std::array<std::atomic<JobId>, kRing> recent{};

  std::vector<std::thread> threads;
  for (unsigned s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      util::Xoshiro256ss rng(1000 + s);
      for (std::uint64_t i = 0; i < kJobsPerSubmitter; ++i) {
        JobSpec spec = noop_spec(s * kJobsPerSubmitter + i);
        const std::uint64_t roll = rng() % 8;
        if (roll == 0) spec.deadline_s = 0.0;  // expires unless run instantly
        if (roll == 1) {
          // Non-blocking path: full queue bounces are expected and counted.
          const auto id = svc.try_submit(spec);
          if (id.has_value()) {
            submitted.fetch_add(1);
            recent[(s * kJobsPerSubmitter + i) % kRing].store(*id);
          } else {
            bounced.fetch_add(1);
          }
        } else {
          const JobId id = svc.submit(spec);
          ASSERT_NE(id, kInvalidJob);
          submitted.fetch_add(1);
          recent[(s * kJobsPerSubmitter + i) % kRing].store(id);
        }
      }
    });
  }
  for (unsigned c = 0; c < kCancellers; ++c) {
    threads.emplace_back([&, c] {
      util::Xoshiro256ss rng(2000 + c);
      while (!done.load()) {
        const JobId id = recent[rng() % kRing].load();
        if (id != kInvalidJob) svc.cancel(id);  // any outcome is legal
        std::this_thread::yield();
      }
    });
  }
  for (unsigned o = 0; o < kObservers; ++o) {
    threads.emplace_back([&, o] {
      util::Xoshiro256ss rng(3000 + o);
      while (!done.load()) {
        const ServiceMetrics m = svc.metrics();
        // Terminal counts must never exceed admissions, even mid-storm.
        EXPECT_LE(m.completed, m.admitted);
        EXPECT_LE(m.queue_depth, m.queue_capacity);
        (void)svc.queue_depth();
        (void)svc.poll(recent[rng() % kRing].load());
        std::this_thread::yield();
      }
    });
  }

  for (unsigned s = 0; s < kSubmitters; ++s) threads[s].join();
  svc.drain();
  done.store(true);
  for (unsigned t = kSubmitters; t < threads.size(); ++t) threads[t].join();

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.admitted, submitted.load());
  EXPECT_EQ(m.completed, m.admitted);  // drained: every job is terminal
  EXPECT_EQ(m.rejected, bounced.load());
  EXPECT_EQ(m.done + m.expired + m.cancelled + m.deadline_missed + m.failed,
            m.completed);
}

TEST(RaceStress, RealEstimatorJobsShareThePlannerCache) {
  core::PersistencePlanner planner;
  ServiceConfig cfg;
  cfg.workers = 8;
  cfg.planner = &planner;
  EstimationService svc(cfg);

  // Identical (ε, δ) across jobs makes every worker collide on the same
  // cache keys — the worst case for the shared_mutex path.
  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 48; ++i) {
    JobSpec spec;
    spec.population = &stress_pop();
    spec.estimator = "BFCE";
    spec.req = {0.1, 0.1};
    spec.seed = 500 + i;
    ids.push_back(svc.submit(spec));
  }
  for (const JobId id : ids) {
    EXPECT_EQ(svc.wait(id).status, JobStatus::kDone);
  }
  const core::PlannerCacheStats stats = planner.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(RaceStress, ConcurrentShutdownCallersAllObserveTheJoin) {
  for (int round = 0; round < 8; ++round) {
    EstimationService svc({.workers = 4});
    for (std::uint64_t i = 0; i < 16; ++i) {
      (void)svc.submit(noop_spec(i));
    }
    std::vector<std::thread> closers;
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&] { svc.shutdown(); });
    }
    for (std::thread& t : closers) t.join();
    // Post-shutdown the service must refuse admissions, not crash.
    EXPECT_EQ(svc.submit(noop_spec(99)), kInvalidJob);
  }
}

/// Runs a 4-frame exact Bloom batch through the context's engine — the
/// sharded walk when the service config asks for one — and folds busy
/// maps and transmission counts into a deterministic pseudo-estimate so
/// duplicate-seed jobs can be compared bit for bit.
class ShardedBloomEstimator final : public estimators::CardinalityEstimator {
 public:
  std::string name() const override { return "sharded-bloom-stress"; }
  estimators::EstimateOutcome estimate(
      rfid::ReaderContext& ctx, const estimators::Requirement&) override {
    std::vector<rfid::FrameRequest> batch;
    for (int f = 0; f < 4; ++f) {
      rfid::BloomFrameConfig cfg;
      cfg.w = 1024;
      cfg.set_p_numerator(256);
      cfg.persistence = hash::PersistenceMode::kIdealBernoulli;
      cfg.seeds = {ctx.next_seed(), ctx.next_seed(), ctx.next_seed()};
      batch.push_back(rfid::FrameRequest::bloom(cfg));
    }
    double acc = 0.0;
    for (const rfid::FrameResult& r : ctx.run_batch(batch)) {
      acc += static_cast<double>(r.busy.count_ones()) +
             1e-3 * static_cast<double>(r.tx);
    }
    estimators::EstimateOutcome out;
    out.n_hat = acc;
    out.met_by_design = true;
    return out;
  }
};

// The sharded exact walk inside the service worker pool: every worker's
// engine runs its own parallel_for shard team concurrently with the
// other workers'. TSan checks the shard scratch really is private; the
// assertions check the determinism contract end to end — duplicate-seed
// jobs must agree bit for bit no matter which worker ran them or how
// the shard teams interleaved.
TEST(RaceStress, ShardedWalkUnderServiceWorkers) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.mode = rfid::FrameMode::kExact;
  rfid::ExecutionPolicy policy = rfid::ExecutionPolicy::sharded(4);
  policy.min_tags_per_shard = 1;  // the 5000-tag pool really splits 4 ways
  cfg.engine_policy = policy;
  EstimationService svc(cfg);

  constexpr std::uint64_t kDistinctSeeds = 8;
  constexpr std::uint64_t kReplicas = 4;
  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < kDistinctSeeds * kReplicas; ++i) {
    JobSpec spec;
    spec.population = &stress_pop();
    spec.factory = [] { return std::make_unique<ShardedBloomEstimator>(); };
    spec.seed = 100 + i % kDistinctSeeds;
    ids.push_back(svc.submit(spec));
  }

  std::array<double, kDistinctSeeds> first{};
  std::array<bool, kDistinctSeeds> seen{};
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    const JobResult r = svc.wait(ids[i]);
    ASSERT_EQ(r.status, JobStatus::kDone);
    const std::size_t group = i % kDistinctSeeds;
    if (!seen[group]) {
      seen[group] = true;
      first[group] = r.outcome.n_hat;
    } else {
      EXPECT_EQ(r.outcome.n_hat, first[group]) << "seed group " << group;
    }
  }
  EXPECT_EQ(svc.metrics().engine.sharded_walks, kDistinctSeeds * kReplicas);
}

// The batched sampler inside the service worker pool: sampled-mode ZOE
// sweeps submit thousands of single-slot frames (plus LOF lottery
// batches) per job, and a sharded policy routes every one through
// execute_sampled_batch's parallel scatter stage. TSan checks the
// sampler's shard count planes really are private while four workers'
// shard teams interleave; the assertions check determinism end to end —
// duplicate-seed jobs bit-identical, and the sampler actually engaged.
TEST(RaceStress, SampledZoeSweepUnderShardedServiceWorkers) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.mode = rfid::FrameMode::kSampled;
  rfid::ExecutionPolicy policy = rfid::ExecutionPolicy::sharded(4);
  policy.min_tags_per_shard = 1;
  cfg.engine_policy = policy;
  EstimationService svc(cfg);

  constexpr std::uint64_t kDistinctSeeds = 4;
  constexpr std::uint64_t kReplicas = 3;
  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < kDistinctSeeds * kReplicas; ++i) {
    JobSpec spec;
    spec.population = &stress_pop();
    spec.estimator = "ZOE";
    spec.req = {0.2, 0.2};  // loose requirement: a short, cheap sweep
    spec.seed = 900 + i % kDistinctSeeds;
    ids.push_back(svc.submit(spec));
  }

  std::array<double, kDistinctSeeds> first{};
  std::array<bool, kDistinctSeeds> seen{};
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    const JobResult r = svc.wait(ids[i]);
    ASSERT_EQ(r.status, JobStatus::kDone);
    const std::size_t group = i % kDistinctSeeds;
    if (!seen[group]) {
      seen[group] = true;
      first[group] = r.outcome.n_hat;
    } else {
      EXPECT_EQ(r.outcome.n_hat, first[group]) << "seed group " << group;
    }
  }
  EXPECT_GT(svc.metrics().engine.sampled_batches, 0u);
  EXPECT_GT(svc.metrics().engine.sharded_walks, 0u);
}

// The persistent executor's reuse seams: two service generations run
// sharded jobs through the ONE process-wide pool back to back while a
// chaos thread repeatedly calls Executor::shutdown() — exercising the
// documented mid-run join ("workers leave once that job has no untaken
// index and exit; the run() caller completes normally") and the lazy
// respawn on the next dispatch. TSan watches the park/wake cv, the index
// cursor and the join/respawn handoff; the assertions check that
// results stay bit-identical across generations and pool lifecycles,
// and that every job still completes (liveness through shutdown storms).
TEST(RaceStress, ExecutorReuseUnderServiceStorm) {
  constexpr std::uint64_t kDistinctSeeds = 4;
  constexpr std::uint64_t kReplicas = 3;
  std::array<double, kDistinctSeeds> first{};
  std::array<bool, kDistinctSeeds> seen{};

  std::atomic<bool> done{false};
  std::thread chaos([&] {
    while (!done.load()) {
      util::Executor::instance().shutdown();
      std::this_thread::yield();
    }
  });

  for (int generation = 0; generation < 2; ++generation) {
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.mode = rfid::FrameMode::kExact;
    rfid::ExecutionPolicy policy = rfid::ExecutionPolicy::sharded(4);
    policy.min_tags_per_shard = 1;
    cfg.engine_policy = policy;
    EstimationService svc(cfg);

    std::vector<JobId> ids;
    for (std::uint64_t i = 0; i < kDistinctSeeds * kReplicas; ++i) {
      JobSpec spec;
      spec.population = &stress_pop();
      spec.factory = [] { return std::make_unique<ShardedBloomEstimator>(); };
      spec.seed = 700 + i % kDistinctSeeds;
      ids.push_back(svc.submit(spec));
    }
    for (std::uint64_t i = 0; i < ids.size(); ++i) {
      const JobResult r = svc.wait(ids[i]);
      ASSERT_EQ(r.status, JobStatus::kDone);
      const std::size_t group = i % kDistinctSeeds;
      if (!seen[group]) {
        seen[group] = true;
        first[group] = r.outcome.n_hat;
      } else {
        EXPECT_EQ(r.outcome.n_hat, first[group])
            << "seed group " << group << " generation " << generation;
      }
    }
    svc.shutdown();
  }

  done.store(true);
  chaos.join();

  // The pool survived the storm in a usable state: a fresh dispatch
  // after the last shutdown() must still run every index exactly once.
  std::atomic<std::uint64_t> hits{0};
  util::parallel_for(0, 64, [&](std::size_t) { ++hits; }, 4);
  EXPECT_EQ(hits.load(), 64u);
}

TEST(RaceStress, PlannerChooseStatsClearStorm) {
  constexpr unsigned kChoosers = 8;
  constexpr std::uint64_t kIters = 2000;

  core::PersistencePlanner planner;
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kChoosers; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256ss rng(4000 + t);
      for (std::uint64_t i = 0; i < kIters; ++i) {
        // 16 distinct n_low values: heavy key collision, so hot shared-
        // lock hits race cold exclusive-lock inserts constantly.
        const double n_low = 1000.0 + static_cast<double>(rng() % 16) * 250.0;
        const auto choice = planner.choose(n_low, 1024, 3, 0.05, 0.05);
        ASSERT_GE(choice.p_n, 1u);
        ASSERT_LE(choice.p_n, 1023u);
        // Purity: a second lookup of the same key must be bit-identical
        // no matter which thread computed it or whether clear() ran.
        const auto again = planner.choose(n_low, 1024, 3, 0.05, 0.05);
        ASSERT_EQ(choice.p_n, again.p_n);
        ASSERT_EQ(choice.p, again.p);
        ASSERT_EQ(choice.margin, again.margin);
      }
    });
  }
  std::thread churner([&] {
    util::Xoshiro256ss rng(5000);
    while (!done.load()) {
      const core::PlannerCacheStats s = planner.stats();
      EXPECT_LE(s.entries, planner.options().max_entries);
      if (rng() % 4 == 0) planner.clear();
      std::this_thread::yield();
    }
  });

  for (unsigned t = 0; t < kChoosers; ++t) threads[t].join();
  done.store(true);
  churner.join();
}

TEST(RaceStress, WireFrontDoorStorm) {
  // Hammers the wire server's concurrent seams: many clients mixing
  // well-formed traffic (ping / submit / metrics) with malformed frames
  // and mid-frame disconnects, then stop() racing live connections.
  // Surfaces: the conn queue cv, the stats mutex, the service admission
  // path from io threads, and teardown closing queued fds.
  const std::string path =
      "/tmp/bfce_wire_storm_" + std::to_string(::getpid()) + ".sock";
  EstimationService svc({.workers = 2, .queue_capacity = 64});
  auto server = std::make_unique<WireServer>(
      svc, WireConfig{.socket_path = path, .io_threads = 3,
                      .io_deadline_s = 1.0, .max_pending_connections = 8});
  ASSERT_TRUE(server->running());

  constexpr unsigned kClients = 6;
  constexpr std::uint64_t kItersPerClient = 30;
  std::atomic<std::uint64_t> submitted_ok{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      util::Xoshiro256ss rng(9000 + t);
      for (std::uint64_t i = 0; i < kItersPerClient; ++i) {
        auto client = WireClient::connect(path, 1.0);
        // Failures are expected once stop() lands or the conn queue
        // sheds — the assertion is that nothing crashes or deadlocks.
        if (!client.has_value()) continue;
        switch (rng() % 5) {
          case 0:
            (void)client->ping();
            break;
          case 1: {
            PortableJobSpec spec;
            spec.estimator = "BFCE";
            spec.req = {0.2, 0.2};
            spec.seed = rng();
            spec.population.kind = PortablePopulation::Kind::kSynthetic;
            spec.population.size = 2000;
            spec.population.seed = rng();
            if (client->submit(spec).has_value()) {
              submitted_ok.fetch_add(1);
            }
            break;
          }
          case 2:
            (void)client->metrics_json();
            break;
          case 3:
            // Malformed: unknown type byte, then reuse the connection.
            (void)client->send_frame({0x55});
            (void)client->recv_frame();
            (void)client->ping();
            break;
          default: {
            // Mid-frame disconnect.
            const std::uint8_t prefix[4] = {64, 0, 0, 0};
            (void)client->send_raw(prefix, sizeof(prefix));
            client->close();
            break;
          }
        }
      }
    });
  }

  // Stop the server while the storm is still running; clients keep
  // issuing requests against a dying socket and must fail cleanly.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server->stop();
  for (std::thread& th : threads) th.join();
  server.reset();

  // The service itself is unscathed: direct submission still works.
  const JobResult direct = svc.wait(svc.submit(noop_spec(1)));
  EXPECT_EQ(direct.status, JobStatus::kDone);
  EXPECT_GE(submitted_ok.load(), 0u);
  EXPECT_FALSE(svc.metrics().wire_attached);
}

TEST(RaceStress, SnapshotDuringStorm) {
  // snapshot() is advertised safe to call concurrently with everything:
  // cut snapshots continuously while submitters and workers churn, and
  // check each cut is internally consistent (sorted, unique, decodable).
  constexpr unsigned kSubmitters = 3;
  constexpr std::uint64_t kJobsPerSubmitter = 150;

  core::PersistencePlanner planner;
  EstimationService svc(
      {.workers = 4, .queue_capacity = 128, .planner = &planner});
  std::atomic<bool> done{false};

  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kJobsPerSubmitter; ++i) {
        if (i % 2 == 0) {
          PortableJobSpec spec;
          spec.estimator = "BFCE";
          spec.req = {0.2, 0.2};
          spec.seed = t * 1000 + i;
          spec.population.kind = PortablePopulation::Kind::kSynthetic;
          spec.population.size = 3000;
          spec.population.seed = i;
          (void)svc.try_submit_portable(spec);
        } else {
          (void)svc.try_submit(noop_spec(t * 1000 + i));
        }
      }
    });
  }
  std::thread cutter([&] {
    while (!done.load()) {
      const ServiceSnapshot snap = svc.snapshot();
      for (std::size_t i = 1; i < snap.completed.size(); ++i) {
        ASSERT_LT(snap.completed[i - 1].first, snap.completed[i].first);
      }
      for (std::size_t i = 1; i < snap.pending.size(); ++i) {
        ASSERT_LT(snap.pending[i - 1].first, snap.pending[i].first);
      }
      // Every cut must survive its own codec.
      ServiceSnapshot back;
      ASSERT_EQ(decode_snapshot(encode_snapshot(snap), back),
                SnapshotError::kNone);
      ASSERT_EQ(back.completed.size(), snap.completed.size());
      std::this_thread::yield();
    }
  });

  for (std::thread& th : submitters) th.join();
  svc.drain();
  done.store(true);
  cutter.join();

  const ServiceSnapshot final_cut = svc.snapshot();
  EXPECT_TRUE(final_cut.pending.empty());
  EXPECT_EQ(final_cut.completed.size() + final_cut.non_portable_skipped,
            svc.metrics().admitted);
}

}  // namespace
}  // namespace bfce::service
