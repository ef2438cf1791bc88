// Crash-safe estimation: snapshot a service mid-workload, "crash" it,
// restore from the file in a fresh process image, and verify the
// recovered run finishes with estimates bit-identical to a run that was
// never interrupted. Then serves the restored service over the wire
// front door to show the two halves compose.
//
//   $ service_recovery [--jobs=24] [--workers=0] [--seed=...]

#include <cstdio>
#include <vector>

#include "core/planner.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace bfce;

namespace {

/// The workload is pure value data (no pointers), so it can ride in a
/// snapshot: job i is a pure function of (seed, i).
std::vector<service::PortableJobSpec> build_jobs(std::size_t jobs,
                                                 std::uint64_t seed) {
  std::vector<service::PortableJobSpec> specs;
  specs.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    service::PortableJobSpec spec;
    spec.estimator = (i % 6 == 5) ? "ZOE" : "BFCE";
    spec.req = (i % 2 == 0) ? estimators::Requirement{0.05, 0.05}
                            : estimators::Requirement{0.1, 0.1};
    spec.seed = util::SeedMixer(seed).absorb(std::uint64_t{i}).value();
    spec.max_attempts = 2;
    if (i % 3 == 2) {
      // Tracking jobs are slow to run but instant to submit, so the
      // snapshot below reliably catches some of them still pending.
      spec.population.kind = service::PortablePopulation::Kind::kNone;
      service::TrackingJobSpec tracking;
      tracking.reader_id = i;
      tracking.initial_population = 60000;
      tracking.schedule.push_back({8, {0.05, 120.0}});
      spec.tracking = tracking;
    } else {
      spec.population.kind = service::PortablePopulation::Kind::kSynthetic;
      spec.population.size = 20000 + 5000 * (i % 4);
      spec.population.seed = seed + i;
    }
    specs.push_back(spec);
  }
  return specs;
}

bool same_estimate(const service::JobResult& a, const service::JobResult& b) {
  return a.status == b.status && a.outcome.n_hat == b.outcome.n_hat &&
         a.outcome.ci_low == b.outcome.ci_low &&
         a.outcome.ci_high == b.outcome.ci_high &&
         a.airtime_s == b.airtime_s;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"jobs", "workers", "seed"});
  const auto jobs = static_cast<std::size_t>(cli.get_int("jobs", 24));
  const auto workers = static_cast<unsigned>(cli.get_int("workers", 0));
  const auto specs = build_jobs(jobs, cli.seed());
  const std::string path = "/tmp/bfce_service_recovery.snapshot";

  // Reference: the same workload, never interrupted.
  std::vector<service::JobResult> reference;
  {
    core::PersistencePlanner planner;
    service::EstimationService svc(
        {.workers = workers, .planner = &planner});
    std::vector<service::JobId> ids;
    for (const auto& spec : specs) ids.push_back(svc.submit_portable(spec));
    svc.drain();
    for (const auto id : ids) reference.push_back(svc.wait(id));
  }

  // The "victim": submit everything, cut a snapshot while the second
  // half is still queued or running, and tear the process state down
  // without draining — as a crash would.
  core::PersistencePlanner victim_planner;
  std::uint64_t completed_at_cut = 0;
  {
    service::EstimationService svc(
        {.workers = workers, .planner = &victim_planner});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      svc.submit_portable(specs[i]);
      if (i == specs.size() / 2) svc.drain();  // make some work terminal
    }
    const service::ServiceSnapshot snap = svc.snapshot();
    completed_at_cut = snap.completed.size();
    const auto err = service::save_snapshot(snap, path);
    if (err != service::SnapshotError::kNone) {
      std::fprintf(stderr, "save failed: %s\n", service::to_cstring(err));
      return 1;
    }
    std::printf(
        "snapshot cut: %zu jobs terminal, %zu pending -> %s (crash now)\n",
        snap.completed.size(), snap.pending.size(), path.c_str());
  }  // <- the crash: destructor runs, in-flight progress is gone

  // Recovery: load the file (typed errors, never UB on a bad file),
  // restore into a fresh service, and let the pending jobs re-run from
  // their seeds.
  service::ServiceSnapshot snap;
  const auto load_err = service::load_snapshot(path, snap);
  std::remove(path.c_str());  // leave nothing behind in /tmp
  if (load_err != service::SnapshotError::kNone) {
    std::fprintf(stderr, "load failed: %s\n", service::to_cstring(load_err));
    return 1;
  }
  core::PersistencePlanner restored_planner;
  service::EstimationService svc(
      {.workers = workers, .planner = &restored_planner});
  if (const auto err = svc.restore(snap);
      err != service::SnapshotError::kNone) {
    std::fprintf(stderr, "restore failed: %s\n", service::to_cstring(err));
    return 1;
  }
  svc.drain();

  std::size_t matched = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto recovered = svc.poll(reference[i].id);
    if (recovered && same_estimate(*recovered, reference[i])) ++matched;
  }
  std::printf(
      "recovered run: %zu/%zu estimates bit-identical to the "
      "uninterrupted run (%llu were replayed from their seeds)\n",
      matched, reference.size(),
      static_cast<unsigned long long>(reference.size() - completed_at_cut));
  if (matched != reference.size()) {
    std::fprintf(stderr, "FAIL: recovery diverged\n");
    return 1;
  }

  // The restored service is a full citizen: put the wire front door on
  // it and serve one out-of-process-style request.
  const std::string sock = "/tmp/bfce_service_recovery.sock";
  service::WireServer server(svc, {.socket_path = sock});
  if (server.running()) {
    if (auto client = service::WireClient::connect(sock)) {
      const auto remote = client->submit(specs[0]);
      if (remote) {
        std::printf(
            "wire submit on the restored service: n_hat=%.0f [%s]\n",
            remote->outcome.n_hat, to_cstring(remote->status));
      }
    }
    server.stop();
  }

  std::printf("\n-- metrics after recovery ------------------------\n");
  std::printf("%s", render_service_metrics(svc.metrics()).c_str());
  return 0;
}
