// End-to-end tests of the BFCE estimator (§IV protocol).
#include "core/bfce.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rfid/reader.hpp"

namespace bfce::core {
namespace {

using estimators::EstimateOutcome;
using estimators::Requirement;

rfid::TagPopulation pop_of(std::size_t n, std::uint64_t seed = 1) {
  return rfid::make_population(n, rfid::TagIdDistribution::kT1Uniform, seed);
}

TEST(Bfce, AccurateOnMediumPopulationExactMode) {
  const auto pop = pop_of(20000);
  rfid::ReaderContext ctx(pop, 42);
  BfceEstimator est;
  const EstimateOutcome out = est.estimate(ctx, {0.05, 0.05});
  EXPECT_TRUE(out.met_by_design);
  EXPECT_LT(out.relative_error(20000), 0.05);
  EXPECT_EQ(out.rounds, 1u);
}

TEST(Bfce, TraceExposesTheProtocolSteps) {
  const auto pop = pop_of(100000, 2);
  rfid::ReaderContext ctx(pop, 43);
  BfceEstimator est;
  BfceTrace trace;
  const EstimateOutcome out = est.estimate_traced(ctx, {0.05, 0.05}, trace);
  EXPECT_GE(trace.probe_iterations, 1u);
  EXPECT_LE(trace.probe_iterations, est.params().max_probe_iters);
  EXPECT_GE(trace.p_s_numerator, 1u);
  EXPECT_LE(trace.p_s_numerator, 1023u);
  EXPECT_GT(trace.rho_rough, 0.0);
  EXPECT_LT(trace.rho_rough, 1.0);
  EXPECT_GT(trace.n_rough, 0.0);
  EXPECT_DOUBLE_EQ(trace.n_low, 0.5 * trace.n_rough);
  EXPECT_TRUE(trace.p_choice.satisfies);
  EXPECT_FALSE(trace.rho_clamped);
  EXPECT_GT(out.n_hat, 0.0);
}

TEST(Bfce, LowerBoundActuallyLowerBounds) {
  // c = 0.5 should make n_low ≤ n in the overwhelming majority of runs
  // (§IV-C "in most cases"); check a batch.
  const auto pop = pop_of(50000, 3);
  BfceEstimator est;
  int holds = 0;
  constexpr int kRuns = 20;
  for (int i = 0; i < kRuns; ++i) {
    rfid::ReaderContext ctx(pop, 100 + static_cast<std::uint64_t>(i),
                            rfid::FrameMode::kSampled);
    BfceTrace trace;
    est.estimate_traced(ctx, {0.05, 0.05}, trace);
    if (trace.n_low <= 50000.0) ++holds;
  }
  EXPECT_EQ(holds, kRuns);
}

TEST(Bfce, ConstantTimeAcrossCardinalities) {
  // The headline claim: execution time is flat in n. The only variable
  // part is the handful of probe windows, a few ms each.
  BfceEstimator est;
  double min_t = 1e9;
  double max_t = 0.0;
  for (std::size_t n : {5000UL, 50000UL, 500000UL, 2000000UL}) {
    const auto pop = pop_of(n, n);
    rfid::ReaderContext ctx(pop, 7, rfid::FrameMode::kSampled);
    const EstimateOutcome out = est.estimate(ctx, {0.05, 0.05});
    const double t = out.airtime.total_seconds(ctx.timing());
    min_t = std::min(min_t, t);
    max_t = std::max(max_t, t);
  }
  EXPECT_GT(min_t, 0.18);  // never below the two-phase closed form
  EXPECT_LT(max_t, 0.30);  // probes add at most a few tens of ms
  EXPECT_LT(max_t / min_t, 1.5);
}

TEST(Bfce, AirtimeLedgerContainsThePaperBaseline) {
  // Whatever the probes add, the ledger must include §IV-E.1's fixed
  // part: ≥ 256 reader bits, ≥ 9216 tag bit-slots, ≥ 3 intervals.
  const auto pop = pop_of(100000, 4);
  rfid::ReaderContext ctx(pop, 8, rfid::FrameMode::kSampled);
  BfceEstimator est;
  const EstimateOutcome out = est.estimate(ctx, {0.05, 0.05});
  EXPECT_GE(out.airtime.reader_bits, 256u);
  EXPECT_GE(out.airtime.tag_bits, 9216u);
  EXPECT_GE(out.airtime.intervals, 3u);
  EXPECT_DOUBLE_EQ(out.time_us, out.airtime.total_us(ctx.timing()));
}

TEST(Bfce, OneProbeEstimateCostsTheClosedForm) {
  // The probe whose window is mixed starts the rough frame, so a
  // one-probe estimate puts exactly §IV-E.1 on the air: two broadcasts,
  // three gaps and 1024 + 8192 slots, 0.18457064 s.
  const auto pop = pop_of(100000, 4);
  for (const rfid::FrameMode mode :
       {rfid::FrameMode::kSampled, rfid::FrameMode::kExact}) {
    rfid::ReaderContext ctx(pop, 8, mode);
    BfceEstimator est;
    BfceTrace trace;
    const EstimateOutcome out = est.estimate_traced(ctx, {0.05, 0.05}, trace);
    ASSERT_EQ(trace.probe_iterations, 1u);
    EXPECT_EQ(trace.rough_slots_observed, 1024u);
    EXPECT_EQ(out.airtime.reader_bits, 256u);
    EXPECT_EQ(out.airtime.intervals, 3u);
    EXPECT_EQ(out.airtime.tag_bits, 9216u);
    EXPECT_NEAR(out.airtime.total_seconds(ctx.timing()), 0.18457064, 1e-12);
  }
}

TEST(Bfce, EmptyPopulationProbesAtMostEightWindows) {
  // An all-idle window doubles p_s: 8, 16, …, 512, 1023/1024. The eighth
  // window sits at the ceiling and becomes the rough frame, which stays
  // all idle through the full w.
  const auto pop = pop_of(0);
  rfid::ReaderContext ctx(pop, 9, rfid::FrameMode::kSampled);
  BfceEstimator est;
  BfceTrace trace;
  const EstimateOutcome out = est.estimate_traced(ctx, {0.05, 0.05}, trace);
  EXPECT_EQ(trace.probe_iterations, 8u);
  EXPECT_EQ(trace.p_s_numerator, 1023u);
  EXPECT_EQ(trace.rough_slots_observed, 8192u);
  EXPECT_FALSE(out.met_by_design);
  EXPECT_FALSE(out.infeasible);
  // Seven abandoned probes (broadcast, gap, 32 slots, gap), the fused
  // frame and the accurate frame.
  EXPECT_EQ(out.airtime.reader_bits, 9u * 128u);
  EXPECT_EQ(out.airtime.intervals, 7u * 2u + 3u);
  EXPECT_EQ(out.airtime.tag_bits, 7u * 32u + 8192u + 8192u);
}

TEST(Bfce, DeterministicForAFixedSeed) {
  const auto pop = pop_of(30000, 5);
  BfceEstimator est;
  rfid::ReaderContext a(pop, 99);
  rfid::ReaderContext b(pop, 99);
  const EstimateOutcome ra = est.estimate(a, {0.05, 0.05});
  const EstimateOutcome rb = est.estimate(b, {0.05, 0.05});
  EXPECT_DOUBLE_EQ(ra.n_hat, rb.n_hat);
  EXPECT_EQ(ra.airtime.tag_bits, rb.airtime.tag_bits);
}

TEST(Bfce, SeedsChangeTheOutcome) {
  const auto pop = pop_of(30000, 5);
  BfceEstimator est;
  rfid::ReaderContext a(pop, 99);
  rfid::ReaderContext b(pop, 100);
  EXPECT_NE(est.estimate(a, {0.05, 0.05}).n_hat,
            est.estimate(b, {0.05, 0.05}).n_hat);
}

TEST(Bfce, HugePopulationSampledMode) {
  const auto pop = pop_of(5000000, 6);
  rfid::ReaderContext ctx(pop, 10, rfid::FrameMode::kSampled);
  BfceEstimator est;
  const EstimateOutcome out = est.estimate(ctx, {0.05, 0.05});
  EXPECT_LT(out.relative_error(5e6), 0.05);
  EXPECT_LT(out.airtime.total_seconds(ctx.timing()), 0.30);
}

TEST(Bfce, TinyPopulationDegradesGracefully) {
  // n = 200 is below the paper's >1000 working range: no p satisfies
  // Theorem 3, so the estimator must flag the fallback — and the
  // estimate, while not (ε,δ)-guaranteed, should still be in the right
  // ballpark thanks to the margin-maximising p.
  const auto pop = pop_of(200, 7);
  rfid::ReaderContext ctx(pop, 11);
  BfceEstimator est;
  BfceTrace trace;
  const EstimateOutcome out = est.estimate_traced(ctx, {0.05, 0.05}, trace);
  EXPECT_FALSE(trace.p_choice.satisfies);
  EXPECT_FALSE(out.met_by_design);
  EXPECT_FALSE(out.infeasible);  // larger populations meet (0.05, 0.05)
  EXPECT_FALSE(out.note.empty());
  EXPECT_LT(out.relative_error(200), 0.5);
}

TEST(Bfce, ProbeWalksUpForSmallPopulations) {
  // n = 2000 at p_s = 8/1024 gives an expected all-idle first window, so
  // the probe must raise p before phase 1.
  const auto pop = pop_of(2000, 8);
  rfid::ReaderContext ctx(pop, 12);
  BfceEstimator est;
  BfceTrace trace;
  est.estimate_traced(ctx, {0.05, 0.05}, trace);
  EXPECT_GT(trace.p_s_numerator, 8u);
}

TEST(Bfce, ProbeWalksDownForHugePopulations) {
  // n = 5M saturates the 32-slot window at 8/1024; the probe must lower
  // p toward the floor.
  const auto pop = pop_of(5000000, 9);
  rfid::ReaderContext ctx(pop, 13, rfid::FrameMode::kSampled);
  BfceEstimator est;
  BfceTrace trace;
  est.estimate_traced(ctx, {0.05, 0.05}, trace);
  EXPECT_LT(trace.p_s_numerator, 8u);
}

TEST(Bfce, CustomParamsPropagate) {
  BfceParams params;
  params.w = 4096;
  params.k = 2;
  params.c = 0.3;
  BfceEstimator est(params);
  EXPECT_EQ(est.params().w, 4096u);
  const auto pop = pop_of(10000, 10);
  rfid::ReaderContext ctx(pop, 14);
  BfceTrace trace;
  const EstimateOutcome out = est.estimate_traced(ctx, {0.05, 0.05}, trace);
  EXPECT_NEAR(trace.n_low, 0.3 * trace.n_rough, 1e-9);
  EXPECT_LT(out.relative_error(10000), 0.10);
}

TEST(Bfce, LightweightHashStillEstimates) {
  BfceParams params;
  params.hash = rfid::HashScheme::kLightweight;
  params.persistence = hash::PersistenceMode::kRnBits;
  BfceEstimator est(params);
  const auto pop = pop_of(50000, 11);
  rfid::ReaderContext ctx(pop, 15);  // exact mode: tag RNs matter
  const EstimateOutcome out = est.estimate(ctx, {0.05, 0.05});
  EXPECT_LT(out.relative_error(50000), 0.08);
}

TEST(Bfce, SurvivesAModeratelyNoisyChannel) {
  const auto pop = pop_of(50000, 12);
  rfid::ReaderContext ctx(pop, 16, rfid::FrameMode::kExact,
                          rfid::ChannelModel{0.005, 0.005});
  BfceEstimator est;
  const EstimateOutcome out = est.estimate(ctx, {0.05, 0.05});
  // The paper assumes a perfect channel; 0.5% error rates should bend,
  // not break, the estimate.
  EXPECT_LT(out.relative_error(50000), 0.15);
}

TEST(Bfce, NameIsStable) {
  EXPECT_EQ(BfceEstimator().name(), "BFCE");
}

}  // namespace
}  // namespace bfce::core
