// Tests for the CLT variance prediction and BFCE's confidence intervals.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hpp"
#include "core/bfce.hpp"
#include "math/stats.hpp"
#include "rfid/reader.hpp"

namespace bfce::core {
namespace {

TEST(PredictedRelativeSd, ClosedFormAgainstHandComputation) {
  // n=500000, w=8192, k=3, p=3/1024 ⇒ λ≈0.5364:
  // sd/n = σ(X)/(√w·λ·e^{−λ}).
  const double lambda = slot_load(500000, 8192, 3, 3.0 / 1024.0);
  const double expected =
      sigma_x(lambda) / (std::sqrt(8192.0) * lambda * std::exp(-lambda));
  EXPECT_NEAR(predicted_relative_sd(500000, 8192, 3, 3.0 / 1024.0),
              expected, 1e-15);
  EXPECT_DOUBLE_EQ(predicted_relative_sd(0.0, 8192, 3, 0.5), 0.0);
}

TEST(PredictedRelativeSd, MatchesMonteCarloMeasurement) {
  // The delta-method prediction must match the measured sd of n̂ over
  // repeated frames to within Monte-Carlo noise.
  const double p = 8.0 / 1024.0;
  util::Xoshiro256ss rng(2);
  rfid::FrameEngine engine(200000, rfid::Channel{});
  math::RunningStats estimates;
  constexpr int kFrames = 400;
  for (int f = 0; f < kFrames; ++f) {
    rfid::BloomFrameConfig cfg;
    cfg.set_p_numerator(8);
    cfg.seeds = {rng(), rng(), rng()};
    const auto busy = engine.execute(rfid::FrameRequest::bloom(cfg), rng).busy;
    const double rho = 1.0 - static_cast<double>(busy.count_ones()) / 8192.0;
    estimates.add(estimate_from_rho(rho, 8192, 3, p));
  }
  const double measured_rel_sd = estimates.stddev() / 200000.0;
  const double predicted = predicted_relative_sd(200000, 8192, 3, p);
  // sd-of-sd over 400 samples is ~3.5%; allow 15%.
  EXPECT_NEAR(measured_rel_sd, predicted, predicted * 0.15);
}

TEST(PredictedRelativeSd, MinimisedNearTheClassicOptimum) {
  // The relative sd as a function of load has its minimum near
  // λ ≈ 1.594 (the classic variance-optimal occupancy load) — the same
  // constant ZOE/SRC tune for.
  auto rel_sd_at_lambda = [](double lambda) {
    const double n = 100000.0;
    const double p = lambda * 8192.0 / (3.0 * n);
    return predicted_relative_sd(n, 8192, 3, p);
  };
  const double at_opt = rel_sd_at_lambda(1.594);
  EXPECT_LT(at_opt, rel_sd_at_lambda(0.4));
  EXPECT_LT(at_opt, rel_sd_at_lambda(4.0));
  EXPECT_LT(at_opt, rel_sd_at_lambda(1.0) * 1.05);  // shallow basin
}

TEST(IntervalFromRho, BracketsThePointEstimate) {
  for (double rho : {0.1, 0.3, 0.5, 0.8}) {
    const double p = 0.01;
    const ConfidenceInterval ci = interval_from_rho(rho, 8192, 3, p, 0.05);
    const double point = estimate_from_rho(rho, 8192, 3, p);
    EXPECT_LT(ci.lo, point) << rho;
    EXPECT_GT(ci.hi, point) << rho;
  }
}

TEST(IntervalFromRho, WidensWithConfidence) {
  const ConfidenceInterval at95 = interval_from_rho(0.4, 8192, 3, 0.01, 0.05);
  const ConfidenceInterval at70 = interval_from_rho(0.4, 8192, 3, 0.01, 0.30);
  EXPECT_LT(at95.lo, at70.lo);
  EXPECT_GT(at95.hi, at70.hi);
}

TEST(IntervalFromRho, SurvivesEdgeRatios) {
  // ρ̄ one slot away from degenerate: the interval must stay finite and
  // ordered (the clamping keeps the inversion in-domain).
  const double w = 8192.0;
  for (double rho : {1.5 / w, 1.0 - 1.5 / w}) {
    const ConfidenceInterval ci =
        interval_from_rho(rho, 8192, 3, 0.5, 0.05);
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_GT(ci.hi, ci.lo);
    EXPECT_TRUE(std::isfinite(ci.hi));
  }
}

TEST(BfceInterval, CoverageMatchesTheConfidenceLevel) {
  // Over many runs, the (1−δ) interval must contain the true n at least
  // (1−δ) of the time (3σ slack).
  const auto pop = rfid::make_population(
      150000, rfid::TagIdDistribution::kT2ApproxNormal, 3);
  BfceEstimator est;
  constexpr int kRuns = 120;
  int covered = 0;
  for (int i = 0; i < kRuns; ++i) {
    rfid::ReaderContext ctx(pop, 1000 + static_cast<std::uint64_t>(i),
                            rfid::FrameMode::kSampled);
    const auto out = est.estimate(ctx, {0.05, 0.05});
    ASSERT_LT(out.ci_low, out.ci_high);
    if (out.ci_low <= 150000.0 && 150000.0 <= out.ci_high) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kRuns;
  EXPECT_GE(coverage, 0.95 - 3.0 * std::sqrt(0.05 * 0.95 / kRuns));
}

TEST(BfceInterval, WidthTracksTheVariancePrediction) {
  const auto pop = rfid::make_population(
      150000, rfid::TagIdDistribution::kT1Uniform, 4);
  BfceEstimator est;
  BfceTrace trace;
  rfid::ReaderContext ctx(pop, 5, rfid::FrameMode::kSampled);
  const auto out = est.estimate_traced(ctx, {0.05, 0.05}, trace);
  const double predicted_half =
      1.96 * out.n_hat *
      predicted_relative_sd(out.n_hat, 8192, 3, trace.p_choice.p);
  const double actual_half = 0.5 * (out.ci_high - out.ci_low);
  EXPECT_NEAR(actual_half, predicted_half, predicted_half * 0.15);
}

}  // namespace
}  // namespace bfce::core
