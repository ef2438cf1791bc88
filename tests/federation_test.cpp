// Tests for the federation layer: coverage geometry, the aggregation
// tree, the overlap-corrected union estimator and its service job kind.
#include "federation/federated_bfce.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/bfce.hpp"
#include "core/planner.hpp"
#include "federation/aggregation.hpp"
#include "federation/fleet.hpp"
#include "federation/geometry.hpp"
#include "hash/persistence.hpp"
#include "math/erf.hpp"
#include "rfid/multireader.hpp"
#include "rfid/reader.hpp"
#include "service/metrics.hpp"
#include "service/service.hpp"
#include "util/bitvector.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bfce::federation {
namespace {

rfid::TagPopulation pop_of(std::size_t n, std::uint64_t seed) {
  return rfid::make_population(n, rfid::TagIdDistribution::kT1Uniform, seed);
}

// ---- Coverage geometry ---------------------------------------------------

TEST(CoverageProfileFn, SingleDiscMatchesClosedForm) {
  const CoverageProfile p =
      coverage_profile({rfid::ReaderPlacement{0.5, 0.5, 0.25}});
  const double disc = 3.14159265358979 * 0.25 * 0.25;
  EXPECT_NEAR(p.covered_area, disc, 2e-3);
  EXPECT_NEAR(p.coverage_mass, disc, 2e-3);
  EXPECT_EQ(p.multiple_area, 0.0);
  EXPECT_EQ(p.pair_mass, 0.0);
  EXPECT_FALSE(p.has_overlap());
  EXPECT_DOUBLE_EQ(p.mean_multiplicity(), 1.0);
  EXPECT_DOUBLE_EQ(p.overlap_fraction(), 0.0);
  double total = 0.0;
  for (const double a : p.area_by_multiplicity) total += a;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CoverageProfileFn, OverlappingPairRealisesRequestedFraction) {
  for (const double frac : {0.25, 0.5}) {
    const CoverageProfile p = coverage_profile(overlapping_pair(0.24, frac));
    EXPECT_TRUE(p.has_overlap());
    // overlap_fraction() = (A₁ − A_cov)/A_cov = lens / union, which is
    // exactly what overlapping_pair bisects the centre distance for.
    EXPECT_NEAR(p.overlap_fraction(), frac, 0.02);
  }
}

TEST(CoverageProfileFn, TangentPairIsExactlyDisjoint) {
  // frac ≤ 0 places the discs tangent; no midpoint of the 1024-lattice
  // hits the single tangency point, so the profile is disjoint exactly.
  const CoverageProfile p = coverage_profile(overlapping_pair(0.24, 0.0));
  EXPECT_FALSE(p.has_overlap());
  EXPECT_DOUBLE_EQ(p.overlap_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(p.mean_multiplicity(), 1.0);
}

TEST(CoverageProfileFn, GridRadiusForOverlapRealisesTarget) {
  const double r0 = grid_radius_for_overlap(16, 0.0, 512);
  EXPECT_FALSE(
      coverage_profile(rfid::MultiReaderSystem::grid(16, r0), 512).has_overlap());
  const double r = grid_radius_for_overlap(16, 0.25, 512);
  const CoverageProfile p =
      coverage_profile(rfid::MultiReaderSystem::grid(16, r), 512);
  EXPECT_NEAR(p.overlap_fraction(), 0.25, 0.04);
}

// ---- Effective-persistence laws ------------------------------------------

TEST(EffectivePersistenceFn, TrivialLawsReturnPExactly) {
  const CoverageProfile disjoint = coverage_profile(overlapping_pair(0.2, 0.0));
  const CoverageProfile overlapped =
      coverage_profile(overlapping_pair(0.2, 0.5));
  for (const double p : {0.0009765625, 0.1, 0.5302734375, 0.9990234375}) {
    // Disjoint coverage: both modes return the broadcast p bit-exactly.
    EXPECT_EQ(effective_persistence(disjoint, SessionCorrelation::kIndependent,
                                    rfid::FrameMode::kExact, p),
              p);
    EXPECT_EQ(effective_persistence(disjoint, SessionCorrelation::kIndependent,
                                    rfid::FrameMode::kSampled, p),
              p);
    // Coherent sessions: no correction even under heavy overlap.
    EXPECT_EQ(effective_persistence(overlapped, SessionCorrelation::kCoherent,
                                    rfid::FrameMode::kExact, p),
              p);
  }
}

TEST(EffectivePersistenceFn, PairwiseLawIsExactForTwoReaders) {
  // With multiplicity capped at 2, 1 − (1−p)² = 2p − p² is the pairwise
  // inclusion–exclusion itself, so the truncation loses nothing.
  const CoverageProfile p = coverage_profile(overlapping_pair(0.2, 0.4));
  ASSERT_TRUE(p.has_overlap());
  ASSERT_LT(p.area_by_multiplicity.size(), 4u);  // multiplicities ≤ 2
  for (const double q : {0.01, 0.1, 0.3}) {
    const double sat = effective_persistence(
        p, SessionCorrelation::kIndependent, rfid::FrameMode::kExact, q);
    const double lin = effective_persistence(
        p, SessionCorrelation::kIndependent, rfid::FrameMode::kSampled, q);
    EXPECT_GT(sat, q);   // overlap raises the effective persistence...
    EXPECT_LT(sat, lin); // ...but saturates below the additive law
    EXPECT_NEAR(p.pairwise_persistence(q), sat, 1e-12);
  }
}

TEST(EffectivePersistenceFn, BonferroniOrderingUnderTripleOverlap) {
  // A dense 3×3 grid has triple-and-higher overlap, so the three laws
  // separate strictly: pairwise ≤ saturating ≤ linear (Bonferroni).
  const CoverageProfile p =
      coverage_profile(rfid::MultiReaderSystem::grid(9, 0.35));
  ASSERT_GT(p.area_by_multiplicity.size(), 3u);
  for (const double q : {0.05, 0.2, 0.5}) {
    const double pair = p.pairwise_persistence(q);
    const double sat = p.saturating_persistence(q);
    const double lin = p.linear_persistence(q);
    EXPECT_LT(pair, sat);
    EXPECT_LT(sat, lin);
    EXPECT_GT(sat, q);
  }
}

/// The law a fleet hands the protocol, as a PersistenceLaw.
core::PersistenceLaw law_of(const CoverageProfile& profile,
                            SessionCorrelation correlation,
                            rfid::FrameMode mode) {
  return [&profile, correlation, mode](double p) {
    return effective_persistence(profile, correlation, mode, p);
  };
}

/// The fleet's Theorem-4 scan as it stood before federation shared
/// PersistencePlanner::search, kept verbatim as the reference the
/// merged scan must reproduce bit for bit.
core::PersistenceChoice reference_federated_search(
    const CoverageProfile& profile, SessionCorrelation correlation,
    rfid::FrameMode mode, double n_low, std::uint32_t w, std::uint32_t k,
    double eps, double delta) {
  const double d = math::confidence_d(delta);
  core::PersistenceChoice best;  // margin-maximising fallback
  bool have_best = false;
  for (std::uint32_t p_n = 1; p_n <= 1023; ++p_n) {
    const double p = static_cast<double>(p_n) / 1024.0;
    const double g = effective_persistence(profile, correlation, mode, p);
    const double lo = core::f1(n_low, w, k, g, eps);
    const double hi = core::f2(n_low, w, k, g, eps);
    const double margin = std::fmin(-lo, hi) - d;
    if (margin >= 0.0) {
      return core::PersistenceChoice{p_n, p, true, margin};
    }
    if (!have_best || margin > best.margin) {
      best = core::PersistenceChoice{p_n, p, false, margin};
      have_best = true;
    }
  }
  return best;
}

TEST(FederatedSearchFn, MatchesPlainSearchWithoutOverlap) {
  const CoverageProfile disjoint = coverage_profile(overlapping_pair(0.2, 0.0));
  for (const double n_low : {500.0, 25000.0, 400000.0}) {
    const auto plain =
        core::PersistencePlanner::search(n_low, 8192, 3, 0.05, 0.05);
    const auto fed = core::PersistencePlanner::search(
        n_low, 8192, 3, 0.05, 0.05,
        law_of(disjoint, SessionCorrelation::kIndependent,
               rfid::FrameMode::kSampled));
    EXPECT_EQ(fed.p_n, plain.p_n);
    EXPECT_EQ(fed.satisfies, plain.satisfies);
    EXPECT_DOUBLE_EQ(fed.margin, plain.margin);
  }
}

TEST(FederatedSearchFn, OverlapLowersChosenPersistence) {
  // g(p) > p under overlap, so the smallest grid point whose effective
  // load satisfies Theorem 3 comes earlier than the plain choice.
  const CoverageProfile overlapped =
      coverage_profile(rfid::MultiReaderSystem::grid(9, 0.35));
  const double n_low = 25000.0;
  const auto plain =
      core::PersistencePlanner::search(n_low, 8192, 3, 0.05, 0.05);
  const auto fed = core::PersistencePlanner::search(
      n_low, 8192, 3, 0.05, 0.05,
      law_of(overlapped, SessionCorrelation::kIndependent,
             rfid::FrameMode::kSampled));
  ASSERT_TRUE(plain.satisfies);
  EXPECT_TRUE(fed.satisfies);
  EXPECT_LT(fed.p_n, plain.p_n);
}

TEST(FederatedSearchFn, LawAwareSearchMatchesReferenceScan) {
  // 2 000 log-spaced n_low in [1, 1e7] × overlap × mode × correlation ×
  // the four bench requirements, the infeasible (0.02, 0.01) included.
  constexpr std::size_t kPoints = 2000;
  const estimators::Requirement reqs[] = {
      {0.05, 0.05}, {0.03, 0.05}, {0.1, 0.1}, {0.02, 0.01}};
  std::vector<CoverageProfile> profiles;
  for (const double frac : {0.0, 0.25, 0.5}) {
    profiles.push_back(coverage_profile(overlapping_pair(0.24, frac)));
  }
  std::vector<int> mismatches(kPoints, 0);
  util::parallel_for(0, kPoints, [&](std::size_t i) {
    const double n_low = std::pow(
        10.0, 7.0 * static_cast<double>(i) / static_cast<double>(kPoints - 1));
    for (const CoverageProfile& profile : profiles) {
      for (const rfid::FrameMode mode :
           {rfid::FrameMode::kExact, rfid::FrameMode::kSampled}) {
        for (const SessionCorrelation correlation :
             {SessionCorrelation::kIndependent,
              SessionCorrelation::kCoherent}) {
          for (const estimators::Requirement& req : reqs) {
            const core::PersistenceChoice want = reference_federated_search(
                profile, correlation, mode, n_low, 8192, 3, req.epsilon,
                req.delta);
            const core::PersistenceChoice got =
                core::PersistencePlanner::search(
                    n_low, 8192, 3, req.epsilon, req.delta,
                    law_of(profile, correlation, mode));
            // Bit equality of every field, margin included.
            if (!(got == want)) ++mismatches[i];
          }
        }
      }
    }
  });
  for (std::size_t i = 0; i < kPoints; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "n_low point " << i;
  }
}

// ---- Aggregation tree ----------------------------------------------------

util::BitVector random_bits(std::size_t size, util::Xoshiro256ss& rng) {
  util::BitVector v(size);
  for (std::size_t w = 0; w < v.word_count(); ++w) v.set_word(w, rng());
  return v;
}

TEST(MergeTreeFn, EveryFanoutMatchesFlatOr) {
  util::Xoshiro256ss rng(7);
  std::vector<util::BitVector> leaves;
  for (int i = 0; i < 13; ++i) leaves.push_back(random_bits(300, rng));
  util::BitVector expect(300);
  for (const util::BitVector& leaf : leaves) {
    for (std::size_t w = 0; w < expect.word_count(); ++w) {
      expect.or_word(w, leaf.word(w));
    }
  }
  for (const std::uint32_t fanout : {1u, 2u, 3u, 8u, 64u}) {
    MergeStats stats;
    const util::BitVector merged = merge_tree(leaves, fanout, &stats);
    ASSERT_EQ(merged.size(), 300u);
    for (std::size_t w = 0; w < expect.word_count(); ++w) {
      EXPECT_EQ(merged.word(w), expect.word(w)) << "fanout " << fanout;
    }
    // N leaves always need exactly N−1 child-into-parent merges; the
    // fanout only shapes the tree (its height), never the work.
    EXPECT_EQ(stats.merges, 12u);
    EXPECT_EQ(stats.word_ors, 12u * expect.word_count());
    EXPECT_GE(stats.levels, 1u);
  }
  MergeStats binary, wide;
  merge_tree(leaves, 2, &binary);
  merge_tree(leaves, 64, &wide);
  EXPECT_EQ(binary.levels, 4u);  // ceil(log₂ 13)
  EXPECT_EQ(wide.levels, 1u);
}

TEST(MergeTreeFn, SingleLeafAndEmptyEdges) {
  MergeStats stats;
  std::vector<util::BitVector> one;
  one.emplace_back(65);
  one[0].set(64);
  const util::BitVector merged = merge_tree(std::move(one), 4, &stats);
  ASSERT_EQ(merged.size(), 65u);
  EXPECT_TRUE(merged.get(64));
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.word_ors, 0u);
  EXPECT_EQ(merge_tree({}, 4).size(), 0u);
}

// ---- The federated estimator ---------------------------------------------

TEST(FederatedBfce, OneProbeFleetEstimateCostsTheClosedForm) {
  // The fleet runs the same fused protocol: a one-probe estimate on a
  // 1-reader fleet costs §IV-E.1's 0.18457064 s.
  const auto pop = pop_of(100000, 4);
  const Fleet fleet(pop, {rfid::ReaderPlacement{0.5, 0.5, 1.5}});
  for (const rfid::FrameMode mode :
       {rfid::FrameMode::kSampled, rfid::FrameMode::kExact}) {
    FederationConfig cfg;
    cfg.mode = mode;
    cfg.seed = 8;
    const FederatedOutcome fed =
        FederatedBfceEstimator(cfg).estimate(fleet, {0.05, 0.05});
    ASSERT_EQ(fed.trace.probe_iterations, 1u);
    EXPECT_EQ(fed.outcome.airtime.reader_bits, 256u);
    EXPECT_EQ(fed.outcome.airtime.intervals, 3u);
    EXPECT_EQ(fed.outcome.airtime.tag_bits, 9216u);
    EXPECT_NEAR(fed.outcome.airtime.total_seconds(rfid::TimingModel{}),
                0.18457064, 1e-12);
    EXPECT_NEAR(fed.fleet_airtime_s, 0.18457064, 1e-12);
  }
}

TEST(FederatedBfce, SingleReaderFleetMatchesPlainBfce) {
  // The degenerate-case guarantee: a 1-reader fleet with fanout 1 is
  // bit-identical to plain BFCE — estimate, trace, airtime ledger and
  // RNG stream position.
  const auto pop = pop_of(40000, 11);
  const Fleet fleet(pop, {rfid::ReaderPlacement{0.5, 0.5, 1.5}});
  ASSERT_EQ(fleet.union_size(), 40000u);
  for (const rfid::FrameMode mode :
       {rfid::FrameMode::kSampled, rfid::FrameMode::kExact}) {
    const std::uint64_t seed = 0xFEDE7A7E5;
    core::BfceEstimator plain;
    core::BfceTrace ptrace;
    rfid::ReaderContext ctx(fleet.system().union_population(), seed, mode);
    const auto expect = plain.estimate_traced(ctx, {0.05, 0.05}, ptrace);
    const std::uint64_t expect_fp = ctx.next_seed();

    FederationConfig cfg;
    cfg.mode = mode;
    cfg.fanout = 1;
    cfg.seed = seed;
    const FederatedOutcome fed =
        FederatedBfceEstimator(cfg).estimate(fleet, {0.05, 0.05});

    EXPECT_EQ(fed.outcome.n_hat, expect.n_hat);
    EXPECT_EQ(fed.outcome.ci_low, expect.ci_low);
    EXPECT_EQ(fed.outcome.ci_high, expect.ci_high);
    EXPECT_EQ(fed.outcome.time_us, expect.time_us);
    EXPECT_EQ(fed.outcome.met_by_design, expect.met_by_design);
    EXPECT_EQ(fed.outcome.note, expect.note);
    EXPECT_EQ(fed.outcome.rounds, expect.rounds);
    EXPECT_EQ(fed.outcome.airtime.reader_bits, expect.airtime.reader_bits);
    EXPECT_EQ(fed.outcome.airtime.tag_bits, expect.airtime.tag_bits);
    EXPECT_EQ(fed.outcome.airtime.intervals, expect.airtime.intervals);
    EXPECT_EQ(fed.outcome.airtime.tag_tx_bits, expect.airtime.tag_tx_bits);
    EXPECT_EQ(fed.rng_fingerprint, expect_fp);

    EXPECT_EQ(fed.trace.probe_iterations, ptrace.probe_iterations);
    EXPECT_EQ(fed.trace.p_s_numerator, ptrace.p_s_numerator);
    EXPECT_EQ(fed.trace.rho_rough, ptrace.rho_rough);
    EXPECT_EQ(fed.trace.rough_slots_observed, ptrace.rough_slots_observed);
    EXPECT_EQ(fed.trace.n_rough, ptrace.n_rough);
    EXPECT_EQ(fed.trace.n_low, ptrace.n_low);
    EXPECT_EQ(fed.trace.p_choice.p_n, ptrace.p_choice.p_n);
    EXPECT_EQ(fed.trace.p_choice.satisfies, ptrace.p_choice.satisfies);
    EXPECT_EQ(fed.trace.rho_accurate, ptrace.rho_accurate);
    EXPECT_EQ(fed.trace.rho_clamped, ptrace.rho_clamped);

    EXPECT_EQ(fed.readers, 1u);
    EXPECT_EQ(fed.schedule_rounds, 1u);
    EXPECT_DOUBLE_EQ(fed.fleet_airtime_s,
                     expect.airtime.total_seconds(rfid::TimingModel{}));
    EXPECT_DOUBLE_EQ(fed.correction_g, fed.trace.p_choice.p);
    EXPECT_EQ(fed.merge.merges, 0u);  // single-leaf trees are free
    EXPECT_DOUBLE_EQ(fed.overlap_fraction, 0.0);
  }
}

TEST(FederatedBfce, CoherentFleetMatchesLogicalUnionReader) {
  // Exact-mode kRnBits sessions are pure functions of (RN, seed, slot):
  // a tag answers identically at every reader that covers it, so the
  // OR-merged fleet bitmap IS the §III-A logical reader's bitmap and the
  // whole federated run is bitwise equal to plain BFCE on the union.
  const auto pop = pop_of(20000, 41);
  const Fleet fleet(pop, rfid::MultiReaderSystem::grid(4, 0.4));
  ASSERT_GT(fleet.system().overlap_count(), 0u);
  const std::uint64_t seed = 0xC0DEC0DE;

  core::BfceParams params;
  params.persistence = hash::PersistenceMode::kRnBits;
  core::BfceEstimator plain(params);
  core::BfceTrace ptrace;
  rfid::ReaderContext ctx(fleet.system().union_population(), seed,
                          rfid::FrameMode::kExact);
  const auto expect = plain.estimate_traced(ctx, {0.05, 0.05}, ptrace);
  const std::uint64_t expect_fp = ctx.next_seed();

  FederationConfig cfg;
  cfg.params = params;
  cfg.correlation = SessionCorrelation::kCoherent;
  cfg.mode = rfid::FrameMode::kExact;
  cfg.fanout = 2;
  cfg.seed = seed;
  const FederatedOutcome fed =
      FederatedBfceEstimator(cfg).estimate(fleet, {0.05, 0.05});

  EXPECT_EQ(fed.outcome.n_hat, expect.n_hat);
  EXPECT_EQ(fed.outcome.ci_low, expect.ci_low);
  EXPECT_EQ(fed.outcome.ci_high, expect.ci_high);
  EXPECT_EQ(fed.trace.p_s_numerator, ptrace.p_s_numerator);
  EXPECT_EQ(fed.trace.rho_rough, ptrace.rho_rough);
  EXPECT_EQ(fed.trace.p_choice.p_n, ptrace.p_choice.p_n);
  EXPECT_EQ(fed.trace.rho_accurate, ptrace.rho_accurate);
  EXPECT_EQ(fed.rng_fingerprint, expect_fp);
  // One round's broadcast/slot ledger matches the logical reader; only
  // tag_tx_bits grows (overlapped tags transmit at every covering
  // reader), which total_us excludes by design.
  EXPECT_EQ(fed.outcome.airtime.reader_bits, expect.airtime.reader_bits);
  EXPECT_EQ(fed.outcome.airtime.tag_bits, expect.airtime.tag_bits);
  EXPECT_EQ(fed.outcome.time_us, expect.time_us);
  EXPECT_GT(fed.outcome.airtime.tag_tx_bits, expect.airtime.tag_tx_bits);
  EXPECT_GT(fed.schedule_rounds, 1u);  // overlapping discs interfere
}

TEST(FederatedBfce, UnionEstimateBeatsNaiveSummation) {
  const auto pop = pop_of(40000, 51);
  const Fleet fleet(pop, rfid::MultiReaderSystem::grid(9, 0.35));
  const double union_n = static_cast<double>(fleet.union_size());
  ASSERT_GT(fleet.system().overlap_count(), 0u);

  FederationConfig cfg;
  cfg.seed = 4242;
  const FederatedOutcome fed =
      FederatedBfceEstimator(cfg).estimate(fleet, {0.05, 0.05});
  EXPECT_GT(fed.overlap_fraction, 0.2);
  EXPECT_LT(fed.correction_g, 1.0);
  EXPECT_GT(fed.correction_g, fed.trace.p_choice.p);  // correction engaged

  double naive = 0.0;
  for (std::size_t r = 0; r < fleet.reader_count(); ++r) {
    rfid::ReaderContext ctx(fleet.system().reader_population(r),
                            util::derive_seed(4242, r),
                            rfid::FrameMode::kSampled);
    core::BfceEstimator bfce;
    naive += bfce.estimate(ctx, {0.05, 0.05}).n_hat;
  }

  const double fed_err = fed.outcome.relative_error(union_n);
  const double naive_err = std::fabs(naive - union_n) / union_n;
  EXPECT_LT(fed_err, 0.15);
  EXPECT_GT(naive_err, 0.3);  // double counting dominates
  EXPECT_LT(fed_err, naive_err);
}

TEST(FederatedBfce, ZeroCoverageFleetDegradesGracefully) {
  const auto pop = pop_of(1000, 61);
  const Fleet fleet(pop, {rfid::ReaderPlacement{0.5, 0.5, 0.0}});
  ASSERT_EQ(fleet.union_size(), 0u);
  FederationConfig cfg;
  cfg.seed = 9;
  const FederatedOutcome fed =
      FederatedBfceEstimator(cfg).estimate(fleet, {0.05, 0.05});
  EXPECT_FALSE(fed.outcome.met_by_design);
  EXPECT_EQ(fed.outcome.note, "rough phase saw an all-idle bitmap");
  EXPECT_TRUE(std::isfinite(fed.outcome.n_hat));
}

TEST(FederatedBfce, EmptyFleetIsFlagged) {
  const auto pop = pop_of(100, 71);
  const Fleet fleet(pop, {});
  const FederatedOutcome fed =
      FederatedBfceEstimator().estimate(fleet, {0.05, 0.05});
  EXPECT_FALSE(fed.outcome.met_by_design);
  EXPECT_EQ(fed.outcome.note, "federation over an empty fleet");
  EXPECT_EQ(fed.readers, 0u);
}

TEST(SessionCorrelationFn, ToCstring) {
  EXPECT_STREQ(to_cstring(SessionCorrelation::kIndependent), "independent");
  EXPECT_STREQ(to_cstring(SessionCorrelation::kCoherent), "coherent");
}

// ---- The service job kind ------------------------------------------------

TEST(FederationService, DegenerateJobMatchesPlainJobAndPlannerCache) {
  const auto pop = pop_of(30000, 21);
  const Fleet fleet(pop, {rfid::ReaderPlacement{0.5, 0.5, 1.5}});
  core::PersistencePlanner planner;
  service::ServiceConfig scfg;
  scfg.workers = 1;
  scfg.planner = &planner;
  service::EstimationService svc(scfg);

  service::JobSpec fed_spec;
  fed_spec.estimator = "BFCE-federated";
  fed_spec.seed = 1234;
  fed_spec.federation = service::FederationJobSpec{
      &fleet, SessionCorrelation::kIndependent, 1};
  const auto fed_res = svc.wait(svc.submit(fed_spec));
  ASSERT_EQ(fed_res.status, service::JobStatus::kDone);
  ASSERT_TRUE(fed_res.federation.has_value());
  const auto after_fed = planner.stats();
  EXPECT_EQ(after_fed.misses, 1u);
  EXPECT_EQ(after_fed.entries, 1u);

  service::JobSpec plain_spec;
  plain_spec.population = &fleet.system().union_population();
  plain_spec.seed = 1234;
  const auto plain_res = svc.wait(svc.submit(plain_spec));
  ASSERT_EQ(plain_res.status, service::JobStatus::kDone);
  // The degenerate federation job consults the planner with the same
  // bucketed key a plain job computes: the follow-up hits, adds nothing.
  const auto after_plain = planner.stats();
  EXPECT_EQ(after_plain.hits, after_fed.hits + 1);
  EXPECT_EQ(after_plain.entries, after_fed.entries);

  EXPECT_EQ(fed_res.outcome.n_hat, plain_res.outcome.n_hat);
  EXPECT_EQ(fed_res.outcome.ci_low, plain_res.outcome.ci_low);
  EXPECT_EQ(fed_res.outcome.ci_high, plain_res.outcome.ci_high);
  EXPECT_EQ(fed_res.airtime_s, plain_res.airtime_s);
  EXPECT_EQ(fed_res.attempts, plain_res.attempts);
  EXPECT_EQ(fed_res.federation->readers, 1u);
  EXPECT_EQ(fed_res.federation->schedule_rounds, 1u);
  EXPECT_DOUBLE_EQ(fed_res.federation->fleet_airtime_s, fed_res.airtime_s);

  // Stream-position witness: attempt 0 of the job consumed exactly what
  // a plain estimate on the derived stream consumes.
  rfid::ReaderContext ctx(fleet.system().union_population(),
                          util::derive_seed(1234, 0), scfg.mode);
  core::BfceParams params;
  params.planner = &planner;
  core::BfceEstimator plain(params);
  plain.estimate(ctx, plain_spec.req);
  EXPECT_EQ(fed_res.federation->rng_fingerprint, ctx.next_seed());

  const auto m = svc.metrics();
  EXPECT_EQ(m.federation.jobs, 1u);
  EXPECT_EQ(m.federation.readers, 1u);
  EXPECT_EQ(m.federation.schedule_rounds, 1u);
  EXPECT_NE(service::render_service_metrics(m).find("federation:"),
            std::string::npos);
  EXPECT_NE(service::service_metrics_json(m).find("\"federation\""),
            std::string::npos);
}

TEST(FederationService, BitIdenticalAcrossWorkersAndFanouts) {
  const auto pop = pop_of(30000, 31);
  const Fleet fleet(pop, rfid::MultiReaderSystem::grid(9, 0.35));
  ASSERT_GT(fleet.system().overlap_count(), 0u);

  struct Snapshot {
    double n_hat, ci_low, ci_high, g, airtime_s;
    std::uint64_t fp, tag_tx;
  };
  std::vector<std::vector<Snapshot>> runs;
  for (const unsigned workers : {1u, 4u, 8u}) {
    for (const std::uint32_t fanout : {2u, 8u}) {
      service::ServiceConfig scfg;
      scfg.workers = workers;
      service::EstimationService svc(scfg);
      std::vector<service::JobId> ids;
      for (int j = 0; j < 5; ++j) {
        service::JobSpec spec;
        spec.seed = 9000 + static_cast<std::uint64_t>(j);
        spec.federation = service::FederationJobSpec{
            &fleet, SessionCorrelation::kIndependent, fanout};
        ids.push_back(svc.submit(spec));
      }
      std::vector<Snapshot> snaps;
      for (const service::JobId id : ids) {
        const auto res = svc.wait(id);
        ASSERT_EQ(res.status, service::JobStatus::kDone);
        ASSERT_TRUE(res.federation.has_value());
        snaps.push_back({res.outcome.n_hat, res.outcome.ci_low,
                         res.outcome.ci_high, res.federation->correction_g,
                         res.airtime_s, res.federation->rng_fingerprint,
                         res.outcome.airtime.tag_tx_bits});
      }
      runs.push_back(std::move(snaps));
    }
  }
  for (std::size_t c = 1; c < runs.size(); ++c) {
    for (std::size_t j = 0; j < runs[0].size(); ++j) {
      EXPECT_EQ(runs[c][j].n_hat, runs[0][j].n_hat) << "config " << c;
      EXPECT_EQ(runs[c][j].ci_low, runs[0][j].ci_low);
      EXPECT_EQ(runs[c][j].ci_high, runs[0][j].ci_high);
      EXPECT_EQ(runs[c][j].g, runs[0][j].g);
      EXPECT_EQ(runs[c][j].airtime_s, runs[0][j].airtime_s);
      EXPECT_EQ(runs[c][j].fp, runs[0][j].fp);
      EXPECT_EQ(runs[c][j].tag_tx, runs[0][j].tag_tx);
    }
  }
}

TEST(FederationService, FleetAirtimeBudgetDrivesDeadline) {
  const auto pop = pop_of(20000, 81);
  const Fleet fleet(pop, overlapping_pair(0.24, 0.5));
  service::ServiceConfig scfg;
  scfg.workers = 1;
  service::EstimationService svc(scfg);
  service::JobSpec spec;
  spec.seed = 5;
  spec.max_attempts = 2;
  spec.airtime_budget_s = 1e-9;  // no fleet can interrogate this fast
  spec.federation = service::FederationJobSpec{
      &fleet, SessionCorrelation::kIndependent, 2};
  const auto res = svc.wait(svc.submit(spec));
  EXPECT_EQ(res.status, service::JobStatus::kDeadlineMissed);
  EXPECT_EQ(res.attempts, 2u);
  EXPECT_EQ(svc.metrics().retries, 1u);
}

TEST(FederationService, NullFleetFails) {
  service::EstimationService svc({.workers = 1});
  service::JobSpec spec;
  spec.federation = service::FederationJobSpec{};
  const auto res = svc.wait(svc.submit(spec));
  EXPECT_EQ(res.status, service::JobStatus::kFailed);
  EXPECT_EQ(res.outcome.note, "federation job has no fleet");
}

}  // namespace
}  // namespace bfce::federation
