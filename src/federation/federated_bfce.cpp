#include "federation/federated_bfce.hpp"

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "rfid/reader.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace bfce::federation {

const char* to_cstring(SessionCorrelation correlation) noexcept {
  switch (correlation) {
    case SessionCorrelation::kIndependent:
      return "independent";
    case SessionCorrelation::kCoherent:
      return "coherent";
  }
  return "?";
}

double effective_persistence(const CoverageProfile& profile,
                             SessionCorrelation correlation,
                             rfid::FrameMode mode, double p) noexcept {
  // Trivial corrections return p itself — bit-identical to the plain
  // protocol's arithmetic, not merely close to it.
  if (correlation == SessionCorrelation::kCoherent || !profile.has_overlap()) {
    return p;
  }
  // Independent sessions: a tag under c readers answers through c
  // channels. Exact-mode frames keep per-tag slot identity, so the
  // c chances at the *same* k slots saturate (1 − (1−p)^c per tag);
  // sampled-mode frames draw independent per-reader binomials whose
  // loads simply add (p · mean multiplicity).
  return mode == rfid::FrameMode::kExact ? profile.saturating_persistence(p)
                                         : profile.linear_persistence(p);
}

namespace {

/// The fleet as one frame source. Every reader session runs the
/// coordinator's broadcast configuration against the tags it covers and
/// the busy maps merge up the aggregation tree. Reader 0 is the
/// coordinator and is seeded with exactly the job seed, so a 1-reader
/// fleet consumes the same stream as a plain BFCE job. Readers r ≥ 1 get
/// independent derived streams, so no result can depend on how many
/// service workers (or merge fanouts) the back-end happens to run.
class FleetFrameSource final : public core::BloomFrameSource {
 public:
  FleetFrameSource(const Fleet& fleet, const FederationConfig& cfg,
                   MergeStats& merge)
      : cfg_(cfg), profile_(fleet.profile()), merge_(merge) {
    sessions_.reserve(fleet.reader_count());
    for (std::size_t r = 0; r < fleet.reader_count(); ++r) {
      const std::uint64_t seed =
          r == 0 ? cfg.seed
                 : util::SeedMixer(cfg.seed)
                       .absorb(std::string_view{"federation/reader"})
                       .absorb(static_cast<std::uint64_t>(r))
                       .value();
      sessions_.push_back(std::make_unique<rfid::ReaderContext>(
          fleet.system().reader_population(r), seed, cfg.mode, cfg.channel,
          cfg.timing, cfg.policy));
    }
  }

  rfid::ReaderContext& coordinator() override { return *sessions_.front(); }

  // Airtime is charged once by the protocol: the readers run in
  // lockstep, and colliding readers serialise into rounds, accounted by
  // fleet_airtime_s.
  util::BitVector run(const rfid::BloomFrameConfig& frame,
                      std::uint64_t& tx) override {
    std::vector<util::BitVector> leaves;
    leaves.reserve(sessions_.size());
    for (const auto& session : sessions_) {
      rfid::FrameResult res =
          session->run_frame(rfid::FrameRequest::bloom(frame));
      tx += res.tx;
      leaves.push_back(std::move(res.busy));
    }
    return merge_tree(std::move(leaves), cfg_.fanout, &merge_);
  }

  // Trivial corrections (coherent sessions, disjoint coverage, single
  // reader) stay the identity, so the plan shares the planner's cache
  // keys and hit pattern with ordinary BFCE jobs.
  core::PersistenceLaw law() const override {
    if (cfg_.correlation == SessionCorrelation::kCoherent ||
        !profile_.has_overlap()) {
      return {};
    }
    return [this](double p) { return g(p); };
  }

  double g(double p) const {
    return effective_persistence(profile_, cfg_.correlation, cfg_.mode, p);
  }

  rfid::EngineCounters counters() const {
    rfid::EngineCounters sum;
    for (const auto& session : sessions_) sum += session->engine().counters();
    return sum;
  }

 private:
  const FederationConfig& cfg_;
  const CoverageProfile& profile_;
  MergeStats& merge_;
  std::vector<std::unique_ptr<rfid::ReaderContext>> sessions_;
};

}  // namespace

FederatedOutcome FederatedBfceEstimator::estimate(
    const Fleet& fleet, const estimators::Requirement& req) const {
  FederatedOutcome fed;
  fed.readers = fleet.reader_count();
  fed.schedule_rounds = fleet.schedule_rounds();
  fed.overlap_fraction = fleet.profile().overlap_fraction();
  if (fed.readers == 0) {
    fed.outcome.met_by_design = false;
    fed.outcome.note = "federation over an empty fleet";
    return fed;
  }

  FleetFrameSource source(fleet, config_, fed.merge);
  fed.outcome = core::run_bfce(source, config_.params, req, fed.trace);

  rfid::ReaderContext& ctx0 = source.coordinator();
  fed.correction_g = source.g(fed.trace.p_choice.p);
  fed.counters = source.counters();
  fed.fleet_airtime_s = static_cast<double>(fed.schedule_rounds) *
                        fed.outcome.airtime.total_seconds(ctx0.timing());
  // The stream-position witness: bit-equal to ctx.next_seed() after a
  // plain estimate when the fleet is degenerate.
  fed.rng_fingerprint = ctx0.next_seed();
  return fed;
}

}  // namespace bfce::federation
