// Tests for the dynamic-population timeline.
#include "sim/churn.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "core/bfce.hpp"
#include "math/stats.hpp"
#include "rfid/reader.hpp"

namespace bfce::sim {
namespace {

TEST(Churn, StartsWithTheRequestedPopulation) {
  PopulationTimeline tl(5000, 1);
  EXPECT_EQ(tl.size(), 5000u);
  std::unordered_set<std::uint64_t> ids;
  for (const rfid::Tag& t : tl.current().tags()) {
    EXPECT_GE(t.id, 1u);
    EXPECT_LE(t.id, 1000000000000000ULL);
    ids.insert(t.id);
  }
  EXPECT_EQ(ids.size(), 5000u);
}

TEST(Churn, DeterministicInSeed) {
  PopulationTimeline a(1000, 7);
  PopulationTimeline b(1000, 7);
  const ChurnModel model{0.1, 50.0};
  for (int i = 0; i < 5; ++i) {
    const ChurnStep sa = a.step(model);
    const ChurnStep sb = b.step(model);
    EXPECT_EQ(sa.departed, sb.departed);
    EXPECT_EQ(sa.arrived, sb.arrived);
  }
}

TEST(Churn, NoChurnModelLeavesPopulationUntouched) {
  PopulationTimeline tl(2000, 2);
  const auto before = tl.current().tags();
  const ChurnStep s = tl.step(ChurnModel{0.0, 0.0});
  EXPECT_EQ(s.departed, 0u);
  EXPECT_EQ(s.arrived, 0u);
  ASSERT_EQ(tl.size(), 2000u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(tl.current()[i].id, before[i].id);
  }
}

TEST(Churn, DepartureRateMatches) {
  PopulationTimeline tl(50000, 3);
  const ChurnStep s = tl.step(ChurnModel{0.2, 0.0});
  EXPECT_NEAR(static_cast<double>(s.departed), 10000.0, 400.0);  // ±~7σ
  EXPECT_EQ(s.population, 50000u - s.departed);
}

TEST(Churn, ArrivalsArePoisson) {
  PopulationTimeline tl(100, 4);
  math::RunningStats arrivals;
  for (int i = 0; i < 300; ++i) {
    arrivals.add(static_cast<double>(tl.step(ChurnModel{0.0, 20.0}).arrived));
  }
  EXPECT_NEAR(arrivals.mean(), 20.0, 1.0);
  // Poisson: variance ≈ mean.
  EXPECT_NEAR(arrivals.variance(), 20.0, 5.0);
}

TEST(Churn, LargeArrivalBatchesAreNotTruncated) {
  // Knuth's product method compares against exp(-λ), which underflows
  // for λ ≳ 708; before chunking, batches this size were silently
  // capped near 700 arrivals.
  PopulationTimeline tl(0, 11);
  const ChurnStep s = tl.step(ChurnModel{0.0, 5000.0});
  EXPECT_NEAR(static_cast<double>(s.arrived), 5000.0, 500.0);  // ±~7σ
  EXPECT_EQ(s.population, s.arrived);
}

TEST(Churn, SurvivorsKeepTheirIdentity) {
  PopulationTimeline tl(5000, 5);
  std::unordered_set<std::uint64_t> before;
  for (const rfid::Tag& t : tl.current().tags()) before.insert(t.id);
  const ChurnStep s = tl.step(ChurnModel{0.3, 100.0});
  std::size_t survivors = 0;
  for (const rfid::Tag& t : tl.current().tags()) {
    if (before.count(t.id)) ++survivors;
  }
  EXPECT_EQ(survivors, 5000u - s.departed);
}

TEST(Churn, SteadyStateHoversAroundArrivalOverDeparture) {
  // With departure prob q and arrival mean a, the stationary size is
  // a/q; start far away and converge.
  PopulationTimeline tl(100, 6);
  const ChurnModel model{0.05, 250.0};  // stationary ≈ 5000
  for (int i = 0; i < 200; ++i) tl.step(model);
  EXPECT_NEAR(static_cast<double>(tl.size()), 5000.0, 1000.0);
}

/// Runs one BFCE estimate against `tl`'s current population and checks
/// the all-idle ρ̄ = 1 path stays finite (no division by zero, no NaN in
/// Theorem 2's inversion) — the contract the tiny-population fallback
/// promises.
void expect_finite_estimate(const sim::PopulationTimeline& tl) {
  rfid::ReaderContext ctx(tl.current(), 21, rfid::FrameMode::kExact);
  core::BfceEstimator estimator;
  const estimators::EstimateOutcome out =
      estimator.estimate(ctx, {0.05, 0.05});
  EXPECT_TRUE(std::isfinite(out.n_hat));
  EXPECT_GE(out.n_hat, 0.0);
  EXPECT_TRUE(std::isfinite(out.time_us));
  // A population this small cannot satisfy Theorem 3 — the outcome must
  // be honestly flagged, not silently mislabelled as designed.
  EXPECT_FALSE(out.met_by_design);
}

TEST(Churn, EmptyPopulationSurvivesChurnAndEstimation) {
  PopulationTimeline tl(0, 9);
  EXPECT_EQ(tl.size(), 0u);
  // Departures from nothing are nothing.
  const ChurnStep s = tl.step(ChurnModel{0.5, 0.0});
  EXPECT_EQ(s.departed, 0u);
  EXPECT_EQ(s.arrived, 0u);
  EXPECT_EQ(s.population, 0u);
  expect_finite_estimate(tl);
  // An empty timeline can still grow.
  ChurnStep grown{};
  for (int i = 0; i < 20 && tl.size() == 0; ++i) {
    grown = tl.step(ChurnModel{0.0, 5.0});
  }
  EXPECT_GT(tl.size(), 0u);
  EXPECT_EQ(grown.population, tl.size());
}

TEST(Churn, SingletonPopulationSurvivesChurnAndEstimation) {
  PopulationTimeline tl(1, 10);
  EXPECT_EQ(tl.size(), 1u);
  expect_finite_estimate(tl);
  // Churn with q = 1 must be able to empty it without wrapping.
  const ChurnStep s = tl.step(ChurnModel{1.0, 0.0});
  EXPECT_EQ(s.departed, 1u);
  EXPECT_EQ(s.population, 0u);
  expect_finite_estimate(tl);
}

}  // namespace
}  // namespace bfce::sim
