// Golden-estimate corpus: pins estimate bits across commits.
//
// Every other bit-identity check compares two paths inside one build
// (wire vs direct, restored vs live, shard and worker counts). This one
// replays a fixed corpus of estimator, federation, tracking and service
// runs and compares every row with the committed
// tests/data/golden_estimates.tsv. Doubles are written as %a hex, so a
// row matches only when every bit matches. A change that moves estimates
// on purpose regenerates the file with BFCE_REGEN_GOLDEN=1 (the switch
// the snapshot fixture uses) and names the moved rows.
//
// Columns: id, n̂, CI low/high, the airtime ledger (reader bits, tag
// bits, intervals, tag transmissions, total seconds), attempts, the
// design point (1 met, 0 missed, 2 missed at an infeasible requirement),
// service status, the RNG fingerprint (the coordinator stream's next
// draw after the estimate) and kind-specific extras.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "estimators/registry.hpp"
#include "federation/federated_bfce.hpp"
#include "federation/fleet.hpp"
#include "hash/persistence.hpp"
#include "rfid/framelog.hpp"
#include "rfid/population.hpp"
#include "rfid/reader.hpp"
#include "service/service.hpp"
#include "tracking/session.hpp"
#include "util/rng.hpp"

namespace bfce {
namespace {

/// The four (ε, δ) requirements the end-to-end benchmark cycles over,
/// the infeasible (0.02, 0.01) included.
constexpr estimators::Requirement kRequirements[] = {
    {0.05, 0.05}, {0.03, 0.05}, {0.1, 0.1}, {0.02, 0.01}};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr std::size_t kSampledN[] = {100, 1000, 20000, 200000};
// Exact mode only where it is cheap. FNEB and ZOE take seconds per
// twelve estimates at n = 20 000, so they stop at n = 1 000 and the
// corpus stays under 3 s.
constexpr std::size_t kExactN[] = {100, 1000, 20000};
const char* const kExactEstimators[] = {"BFCE", "BFCE-avg", "SRC"};
const char* const kExactBaselines[] = {"A3",  "ART", "EZB", "LOF",
                                       "MLE", "PET", "UPE"};
constexpr std::size_t kSmallExactN[] = {100, 1000};
const char* const kSmallExactBaselines[] = {"FNEB", "ZOE"};

const rfid::TimingModel kTiming{};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string req_id(const estimators::Requirement& req) {
  std::ostringstream os;
  os << "eps=" << req.epsilon << "/delta=" << req.delta;
  return os.str();
}

const char* mode_id(rfid::FrameMode mode) {
  return mode == rfid::FrameMode::kExact ? "exact" : "sampled";
}

/// Every bit of a frame transcript folded into one word.
std::uint64_t log_digest(const rfid::FrameLog& log) {
  util::SeedMixer mix(0x107D16E57ULL);
  for (const rfid::FrameRecord& r : log.records()) {
    mix.absorb(static_cast<std::uint64_t>(r.kind))
        .absorb(std::uint64_t{r.slots_observed})
        .absorb(r.p)
        .absorb(std::uint64_t{r.busy})
        .absorb(r.duration_us);
  }
  return mix.value();
}

std::string counters_id(const rfid::EngineCounters& c) {
  const rfid::ShapeCounters t = c.total();
  std::ostringstream os;
  os << "frames=" << t.frames << " slots=" << t.slots
     << " tag_tx=" << t.tag_tx;
  return os.str();
}

std::string row(const std::string& id, const estimators::EstimateOutcome& o,
                double airtime_s, const std::string& attempts,
                const std::string& status, const std::string& fingerprint,
                const std::string& extra) {
  std::ostringstream os;
  os << id << '\t' << hex(o.n_hat) << '\t' << hex(o.ci_low) << '\t'
     << hex(o.ci_high) << '\t' << o.airtime.reader_bits << '\t'
     << o.airtime.tag_bits << '\t' << o.airtime.intervals << '\t'
     << o.airtime.tag_tx_bits << '\t' << hex(airtime_s) << '\t' << attempts
     << '\t' << (o.met_by_design ? 1 : o.infeasible ? 2 : 0) << '\t'
     << status << '\t' << fingerprint << '\t' << extra;
  return os.str();
}

rfid::TagPopulation population(std::size_t n) {
  return rfid::make_population(n, rfid::TagIdDistribution::kT1Uniform,
                               0x601DE57 + n);
}

void estimator_rows(std::vector<std::string>& rows, rfid::FrameMode mode,
                    const std::vector<std::string>& names,
                    const std::vector<std::size_t>& sizes) {
  for (const std::size_t n : sizes) {
    const rfid::TagPopulation pop = population(n);
    for (const std::string& name : names) {
      for (const estimators::Requirement& req : kRequirements) {
        for (const std::uint64_t seed : kSeeds) {
          const auto estimator = estimators::make_estimator(name);
          rfid::ReaderContext ctx(pop, seed, mode);
          rfid::FrameLog log;
          ctx.attach_log(&log);
          const estimators::EstimateOutcome out = estimator->estimate(ctx, req);
          const std::uint64_t fingerprint = ctx.next_seed();
          std::ostringstream id;
          id << "est/" << mode_id(mode) << '/' << name << "/n=" << n << '/'
             << req_id(req) << "/seed=" << seed;
          rows.push_back(row(id.str(), out, out.airtime.total_seconds(kTiming),
                             "1", "-", hex64(fingerprint),
                             "rounds=" + std::to_string(out.rounds) + ' ' +
                                 counters_id(ctx.engine().counters()) +
                                 " log=" + hex64(log_digest(log))));
        }
      }
    }
  }
}

struct FleetCase {
  const char* id;
  std::vector<rfid::ReaderPlacement> readers;
  federation::SessionCorrelation correlation;
  rfid::FrameMode mode;
  hash::PersistenceMode persistence;
};

std::vector<rfid::ReaderPlacement> three_readers() {
  return {rfid::ReaderPlacement{0.35, 0.4, 0.3},
          rfid::ReaderPlacement{0.65, 0.4, 0.3},
          rfid::ReaderPlacement{0.5, 0.65, 0.3}};
}

std::string fleet_extra(const federation::FederatedOutcome& fed) {
  std::ostringstream os;
  os << "readers=" << fed.readers << " rounds=" << fed.schedule_rounds
     << " fleet_airtime=" << hex(fed.fleet_airtime_s)
     << " g=" << hex(fed.correction_g)
     << " overlap=" << hex(fed.overlap_fraction)
     << " merges=" << fed.merge.merges << " word_ors=" << fed.merge.word_ors
     << ' ' << counters_id(fed.counters);
  return os.str();
}

void federation_rows(std::vector<std::string>& rows) {
  using federation::SessionCorrelation;
  const std::vector<FleetCase> cases = {
      {"1-reader/independent/sampled",
       {rfid::ReaderPlacement{0.5, 0.5, 1.5}},
       SessionCorrelation::kIndependent,
       rfid::FrameMode::kSampled,
       hash::PersistenceMode::kIdealBernoulli},
      {"1-reader/independent/exact",
       {rfid::ReaderPlacement{0.5, 0.5, 1.5}},
       SessionCorrelation::kIndependent,
       rfid::FrameMode::kExact,
       hash::PersistenceMode::kIdealBernoulli},
      {"3-reader/independent/exact", three_readers(),
       SessionCorrelation::kIndependent, rfid::FrameMode::kExact,
       hash::PersistenceMode::kIdealBernoulli},
      {"3-reader/independent/sampled", three_readers(),
       SessionCorrelation::kIndependent, rfid::FrameMode::kSampled,
       hash::PersistenceMode::kIdealBernoulli},
      {"3-reader/coherent-rnbits/exact", three_readers(),
       SessionCorrelation::kCoherent, rfid::FrameMode::kExact,
       hash::PersistenceMode::kRnBits},
  };
  for (const std::size_t n : {std::size_t{1000}, std::size_t{20000}}) {
    const rfid::TagPopulation pop = population(n);
    for (const FleetCase& fc : cases) {
      const federation::Fleet fleet(pop, fc.readers);
      for (const estimators::Requirement& req : kRequirements) {
        for (const std::uint64_t seed : kSeeds) {
          federation::FederationConfig cfg;
          cfg.params.persistence = fc.persistence;
          cfg.correlation = fc.correlation;
          cfg.mode = fc.mode;
          cfg.fanout = 2;
          cfg.seed = seed;
          const federation::FederatedOutcome fed =
              federation::FederatedBfceEstimator(cfg).estimate(fleet, req);
          std::ostringstream id;
          id << "fed/" << fc.id << "/n=" << n << '/' << req_id(req)
             << "/seed=" << seed;
          rows.push_back(row(id.str(), fed.outcome,
                             fed.outcome.airtime.total_seconds(kTiming), "1",
                             "-", hex64(fed.rng_fingerprint),
                             fleet_extra(fed)));
        }
      }
    }
  }
}

/// Service jobs: the tracking session and jobs whose first attempt
/// misses its design point (or its airtime budget), run through the
/// service's retry rule with a shared planner attached.
void service_rows(std::vector<std::string>& rows) {
  const rfid::TagPopulation empty = population(0);
  const rfid::TagPopulation small = population(1000);
  const rfid::TagPopulation medium = population(20000);
  const federation::Fleet fleet(medium, three_readers());

  core::PersistencePlanner planner;
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.planner = &planner;
  service::EstimationService svc(scfg);

  struct Job {
    std::string id;
    service::JobSpec spec;
  };
  std::vector<Job> jobs;
  const auto add = [&](std::string id, service::JobSpec spec) {
    jobs.push_back({std::move(id), std::move(spec)});
  };
  const estimators::Requirement infeasible{0.02, 0.01};
  {
    service::JobSpec spec;
    spec.population = &medium;
    spec.req = infeasible;
    spec.seed = 11;
    spec.max_attempts = 2;
    add("svc/BFCE/n=20000/infeasible", spec);
  }
  {
    service::JobSpec spec;
    spec.population = &small;
    spec.estimator = "BFCE-avg";
    spec.req = infeasible;
    spec.seed = 12;
    spec.max_attempts = 2;
    add("svc/BFCE-avg/n=1000/infeasible", spec);
  }
  {
    service::JobSpec spec;
    spec.population = &empty;
    spec.seed = 13;
    spec.max_attempts = 2;
    add("svc/BFCE/n=0/all-idle", spec);
  }
  {
    service::JobSpec spec;
    spec.population = &small;
    spec.seed = 14;
    spec.max_attempts = 2;
    spec.airtime_budget_s = 0.1;  // below every BFCE estimate's airtime
    add("svc/BFCE/n=1000/over-budget", spec);
  }
  {
    service::JobSpec spec;
    spec.population = &small;
    spec.estimator = "no-such-estimator";
    spec.seed = 15;
    spec.max_attempts = 2;
    add("svc/unknown-estimator", spec);
  }
  {
    service::JobSpec spec;
    spec.req = infeasible;
    spec.seed = 16;
    spec.max_attempts = 2;
    spec.federation = service::FederationJobSpec{
        &fleet, federation::SessionCorrelation::kIndependent, 2};
    add("svc/fed/3-reader/independent/n=20000/infeasible", spec);
  }
  {
    service::JobSpec spec;
    spec.seed = 17;
    spec.max_attempts = 2;
    spec.federation = service::FederationJobSpec{};
    add("svc/fed/no-fleet", spec);
  }
  {
    service::JobSpec spec;
    spec.seed = 18;
    spec.tracking = service::TrackingJobSpec{
        7, 10000, tracking::steady_scenario(5, 0.05, 10000.0)};
    add("svc/track/steady/n0=10000", spec);
  }
  {
    service::JobSpec spec;
    spec.req = infeasible;
    spec.seed = 19;
    spec.max_attempts = 2;
    spec.tracking = service::TrackingJobSpec{
        8, 10000, tracking::steady_scenario(5, 0.05, 10000.0)};
    add("svc/track/steady/n0=10000/infeasible", spec);
  }

  std::vector<service::JobId> ids;
  for (const Job& job : jobs) ids.push_back(svc.submit(job.spec));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const service::JobResult res = svc.wait(ids[j]);
    std::string fingerprint = "-";
    std::string extra = counters_id(res.counters);
    if (res.federation.has_value()) {
      fingerprint = hex64(res.federation->rng_fingerprint);
      extra += " g=" + hex(res.federation->correction_g) +
               " fleet_airtime=" + hex(res.federation->fleet_airtime_s);
    }
    rows.push_back(row(jobs[j].id, res.outcome, res.airtime_s,
                       std::to_string(res.attempts),
                       service::to_cstring(res.status), fingerprint, extra));
    if (!res.tracking.has_value()) continue;
    for (const tracking::TrackPoint& pt : res.tracking->trajectory) {
      estimators::EstimateOutcome round;
      round.n_hat = pt.raw_n_hat;
      round.met_by_design = pt.met_by_design;
      std::ostringstream extra_round;
      extra_round << "true_n=" << pt.true_n << " tracked=" << hex(pt.tracked_n)
                  << " variance=" << hex(pt.variance)
                  << " p_o=" << hex(pt.p_o);
      rows.push_back(row(jobs[j].id + "/round=" + std::to_string(pt.round),
                         round, pt.airtime_s, "-", "-", "-",
                         extra_round.str()));
    }
  }
}

std::vector<std::string> corpus() {
  std::vector<std::string> rows;
  estimator_rows(rows, rfid::FrameMode::kSampled,
                 estimators::estimator_names(),
                 {std::begin(kSampledN), std::end(kSampledN)});
  estimator_rows(rows, rfid::FrameMode::kExact,
                 {std::begin(kExactEstimators), std::end(kExactEstimators)},
                 {std::begin(kExactN), std::end(kExactN)});
  estimator_rows(rows, rfid::FrameMode::kExact,
                 {std::begin(kExactBaselines), std::end(kExactBaselines)},
                 {std::begin(kExactN), std::end(kExactN)});
  estimator_rows(rows, rfid::FrameMode::kExact,
                 {std::begin(kSmallExactBaselines),
                  std::end(kSmallExactBaselines)},
                 {std::begin(kSmallExactN), std::end(kSmallExactN)});
  federation_rows(rows);
  service_rows(rows);
  return rows;
}

constexpr const char* kHeader =
    "# id\tn_hat\tci_low\tci_high\treader_bits\ttag_bits\tintervals\t"
    "tag_tx_bits\tairtime_s\tattempts\tdesign\tstatus\t"
    "rng_fingerprint\textra";

TEST(GoldenEstimates, CorpusReplaysBitIdentically) {
  const std::string path =
      std::string(BFCE_TEST_DATA_DIR) + "/golden_estimates.tsv";
  const std::vector<std::string> rows = corpus();

  if (std::getenv("BFCE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << kHeader << '\n';
    for (const std::string& r : rows) out << r << '\n';
    GTEST_SKIP() << "regenerated " << path << " (" << rows.size()
                 << " rows)";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " — regenerate with BFCE_REGEN_GOLDEN=1";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }
  ASSERT_EQ(rows.size(), golden.size()) << "corpus row count drifted";
  std::size_t moved = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] == golden[i]) continue;
    if (++moved <= 10) {
      ADD_FAILURE() << "row " << i << " moved\n  golden: " << golden[i]
                    << "\n  now:    " << rows[i];
    }
  }
  EXPECT_EQ(moved, 0u) << "estimate bits moved in " << moved << " of "
                       << rows.size() << " rows";
}

}  // namespace
}  // namespace bfce
