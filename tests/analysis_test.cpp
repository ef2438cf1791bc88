// Tests for the Theorem 1-4 analysis machinery and the Fig 4/5 numbers.
#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/planner.hpp"
#include "math/erf.hpp"

namespace bfce::core {
namespace {

TEST(SlotLoad, MatchesDefinition) {
  // λ = k·p·n/w; the paper's running example: k=3, p=0.125, n=20000,
  // w=8192 → λ ≈ 0.9155.
  EXPECT_NEAR(slot_load(20000, 8192, 3, 0.125), 0.91552734375, 1e-12);
  EXPECT_DOUBLE_EQ(slot_load(0, 8192, 3, 0.5), 0.0);
}

TEST(IdleProbability, Theorem1Values) {
  EXPECT_DOUBLE_EQ(idle_probability(0.0), 1.0);
  EXPECT_NEAR(idle_probability(1.0), 1.0 / std::exp(1.0), 1e-15);
}

TEST(SigmaX, BernoulliDeviation) {
  // σ(X) = √(e^{−λ}(1−e^{−λ})), maximal 0.5 at e^{−λ} = 1/2 (λ = ln 2).
  EXPECT_DOUBLE_EQ(sigma_x(0.0), 0.0);
  EXPECT_NEAR(sigma_x(std::log(2.0)), 0.5, 1e-15);
  EXPECT_LT(sigma_x(5.0), 0.1);
}

TEST(EstimateFromRho, InvertsTheorem1Exactly) {
  // If ρ̄ = e^{−kpn/w} exactly, the estimator must return n exactly.
  for (double n : {1000.0, 50000.0, 500000.0, 5e6}) {
    const double p = 0.01;
    const double rho = std::exp(-slot_load(n, 8192, 3, p));
    EXPECT_NEAR(estimate_from_rho(rho, 8192, 3, p), n, n * 1e-10);
  }
}

TEST(EstimateFromRho, PaperSanityNumbers) {
  // w=8192, k=3, p=3/1024 (the paper's example p_o), n=500000 ⇒
  // λ = 3·(3/1024)·500000/8192 = 4.5e6/2^23 ≈ 0.5364.
  const double p = 3.0 / 1024.0;
  const double lambda = slot_load(500000, 8192, 3, p);
  EXPECT_NEAR(lambda, 0.536441802978515625, 1e-12);
  EXPECT_NEAR(estimate_from_rho(std::exp(-lambda), 8192, 3, p), 500000, 1.0);
}

TEST(EdgeFunctions, SignsAreCorrect) {
  // f1 < 0 < f2 whenever ε > 0 and the load is non-degenerate.
  for (double n : {5000.0, 50000.0, 500000.0}) {
    for (double p : {0.001, 0.01, 0.1}) {
      EXPECT_LT(f1(n, 8192, 3, p, 0.05), 0.0);
      EXPECT_GT(f2(n, 8192, 3, p, 0.05), 0.0);
    }
  }
}

TEST(EdgeFunctions, Fig5Monotonicity) {
  // For small p, f1 decreases and f2 increases in n (the Fig 5 property
  // that justifies Theorem 4).
  const double p = 3.0 / 1024.0;
  double prev_f1 = f1(1000, 8192, 3, p, 0.05);
  double prev_f2 = f2(1000, 8192, 3, p, 0.05);
  for (double n = 11000; n <= 400000; n += 10000) {
    const double cur_f1 = f1(n, 8192, 3, p, 0.05);
    const double cur_f2 = f2(n, 8192, 3, p, 0.05);
    EXPECT_LT(cur_f1, prev_f1) << "n=" << n;
    EXPECT_GT(cur_f2, prev_f2) << "n=" << n;
    prev_f1 = cur_f1;
    prev_f2 = cur_f2;
  }
}

TEST(EdgeFunctions, DegenerateLoadsReturnZero) {
  EXPECT_DOUBLE_EQ(f1(0.0, 8192, 3, 0.5, 0.05), 0.0);
  EXPECT_DOUBLE_EQ(f2(0.0, 8192, 3, 0.5, 0.05), 0.0);
}

TEST(FindPersistence, ReproducesThePapersExample) {
  // §IV-D: "the optimal p_o is usually small (e.g. p = 3/2^10)". With
  // n_low = 250000 (i.e. n = 500000, c = 0.5) and (ε, δ) = (0.05, 0.05)
  // the minimal satisfying grid point is exactly 3/1024.
  const PersistenceChoice c =
      PersistencePlanner::search(250000, 8192, 3, 0.05, 0.05);
  EXPECT_TRUE(c.satisfies);
  EXPECT_EQ(c.p_n, 3u);
  EXPECT_DOUBLE_EQ(c.p, 3.0 / 1024.0);
  EXPECT_GE(c.margin, 0.0);
}

TEST(FindPersistence, SatisfiedChoiceMeetsTheorem3) {
  for (double n_low : {5000.0, 50000.0, 1e6, 5e6}) {
    const PersistenceChoice c =
        PersistencePlanner::search(n_low, 8192, 3, 0.05, 0.05);
    ASSERT_TRUE(c.satisfies) << n_low;
    const double d = math::confidence_d(0.05);
    EXPECT_LE(f1(n_low, 8192, 3, c.p, 0.05), -d);
    EXPECT_GE(f2(n_low, 8192, 3, c.p, 0.05), d);
    // Minimality: the previous grid point must fail.
    if (c.p_n > 1) {
      const double p_prev = static_cast<double>(c.p_n - 1) / 1024.0;
      const bool prev_ok = f1(n_low, 8192, 3, p_prev, 0.05) <= -d &&
                           f2(n_low, 8192, 3, p_prev, 0.05) >= d;
      EXPECT_FALSE(prev_ok) << n_low;
    }
  }
}

TEST(FindPersistence, PoNumeratorShrinksAsNGrows) {
  std::uint32_t prev = 1024;
  for (double n_low : {5000.0, 20000.0, 100000.0, 500000.0, 2e6}) {
    const PersistenceChoice c =
        PersistencePlanner::search(n_low, 8192, 3, 0.05, 0.05);
    ASSERT_TRUE(c.satisfies);
    EXPECT_LE(c.p_n, prev) << n_low;
    prev = c.p_n;
  }
}

TEST(FindPersistence, LooserRequirementsNeedSmallerP) {
  const PersistenceChoice tight =
      PersistencePlanner::search(50000, 8192, 3, 0.05, 0.05);
  const PersistenceChoice loose =
      PersistencePlanner::search(50000, 8192, 3, 0.20, 0.05);
  ASSERT_TRUE(tight.satisfies);
  ASSERT_TRUE(loose.satisfies);
  EXPECT_LE(loose.p_n, tight.p_n);
}

TEST(FindPersistence, TinyPopulationFallsBackToMaxMargin) {
  // n_low ≈ 500 cannot satisfy (0.05, 0.05) with w = 8192 (λ_max too
  // small, §IV-D discussion) — the search must degrade gracefully.
  const PersistenceChoice c =
      PersistencePlanner::search(500, 8192, 3, 0.05, 0.05);
  EXPECT_FALSE(c.satisfies);
  EXPECT_GE(c.p_n, 1u);
  EXPECT_LE(c.p_n, 1023u);
  EXPECT_LT(c.margin, 0.0);
}

TEST(GammaBounds, ReproducesFig4Envelope) {
  const GammaBounds b = gamma_bounds(3);
  // Paper: 0.000326 ≤ γ ≤ 2365.9 on the i/1024 grid.
  EXPECT_NEAR(b.min, 0.000326, 2e-6);
  EXPECT_NEAR(b.max, 2365.9, 0.1);
  // Extremes sit at the grid corners.
  EXPECT_DOUBLE_EQ(b.p_at_max, 1.0 / 1024.0);
  EXPECT_DOUBLE_EQ(b.rho_at_max, 1.0 / 1024.0);
  EXPECT_DOUBLE_EQ(b.p_at_min, 1023.0 / 1024.0);
  EXPECT_DOUBLE_EQ(b.rho_at_min, 1023.0 / 1024.0);
}

TEST(GammaBounds, MaxCardinalityExceedsNineteenMillion) {
  const GammaBounds b = gamma_bounds(3);
  EXPECT_GT(b.max_cardinality(8192), 1.9e7);  // "exceeds 19 millions"
  EXPECT_LT(b.max_cardinality(8192), 2.0e7);
}

TEST(GammaBounds, ScalesInverselyWithK) {
  const GammaBounds k3 = gamma_bounds(3);
  const GammaBounds k6 = gamma_bounds(6);
  EXPECT_NEAR(k6.max, k3.max / 2.0, 1e-9);
  EXPECT_NEAR(k6.min, k3.min / 2.0, 1e-9);
}

}  // namespace
}  // namespace bfce::core
