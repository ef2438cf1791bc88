// Tests for the standalone Theorem-4 persistence planner and its memo
// cache: caching must never change a choice.
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/bfce.hpp"
#include "math/erf.hpp"
#include "rfid/population.hpp"
#include "rfid/reader.hpp"
#include "util/parallel.hpp"

namespace bfce::core {
namespace {

struct PlanPoint {
  double n_low;
  std::uint32_t w;
  std::uint32_t k;
  double eps;
  double delta;
};

std::vector<PlanPoint> plan_grid() {
  std::vector<PlanPoint> grid;
  for (const double n_low : {1.0, 42.0, 500.0, 25000.0, 250000.0, 5.0e6}) {
    for (const double eps : {0.01, 0.05, 0.2}) {
      for (const double delta : {0.01, 0.05}) {
        grid.push_back({n_low, 8192, 3, eps, delta});
      }
    }
  }
  grid.push_back({250000.0, 4096, 3, 0.05, 0.05});
  grid.push_back({250000.0, 8192, 1, 0.05, 0.05});
  return grid;
}

void expect_same_choice(const PersistenceChoice& a,
                        const PersistenceChoice& b) {
  EXPECT_EQ(a.p_n, b.p_n);
  EXPECT_DOUBLE_EQ(a.p, b.p);
  EXPECT_EQ(a.satisfies, b.satisfies);
  EXPECT_DOUBLE_EQ(a.margin, b.margin);
}

TEST(PersistencePlanner, SearchReproducesPaperExample) {
  // §IV-D: p_o = 3/1024 for n_low = 250k at the default requirement.
  const PersistenceChoice c =
      PersistencePlanner::search(250000, 8192, 3, 0.05, 0.05);
  EXPECT_TRUE(c.satisfies);
  EXPECT_EQ(c.p_n, 3u);
}

TEST(PersistencePlanner, FeasibilityFlagsRequirementsNoPopulationMeets) {
  // At w = 8192 the best standardised edge at ε = 0.02 is 1.43 and at
  // ε = 0.03 it is 2.14, both short of d(0.01) = 2.576.
  const Feasibility tight = PersistencePlanner::feasibility(8192, 0.02, 0.01);
  EXPECT_FALSE(tight.feasible);
  EXPECT_NEAR(tight.m_star, 1.43, 0.01);
  EXPECT_EQ(tight.rounds, 4u);
  const Feasibility near = PersistencePlanner::feasibility(8192, 0.03, 0.01);
  EXPECT_FALSE(near.feasible);
  EXPECT_NEAR(near.m_star, 2.14, 0.01);
  EXPECT_EQ(near.rounds, 2u);
  for (const auto& [eps, delta] : {std::pair{0.05, 0.05}, std::pair{0.03, 0.05},
                                   std::pair{0.1, 0.1}, std::pair{0.1, 0.01}}) {
    const Feasibility f = PersistencePlanner::feasibility(8192, eps, delta);
    EXPECT_TRUE(f.feasible) << eps << ", " << delta;
    EXPECT_EQ(f.rounds, 1u);
  }
}

TEST(PersistencePlanner, FeasibilityBoundsEverySearch) {
  // No n_low's grid search beats m*, and a feasible requirement is met
  // at some n_low: the planner's verdict agrees with the scan.
  for (const auto& [eps, delta] : {std::pair{0.02, 0.01}, std::pair{0.03, 0.01},
                                   std::pair{0.05, 0.05}, std::pair{0.1, 0.1}}) {
    const Feasibility f = PersistencePlanner::feasibility(8192, eps, delta);
    const double d = math::confidence_d(delta);
    bool met = false;
    for (double n_low = 100.0; n_low < 2.0e7; n_low *= 1.07) {
      const PersistenceChoice c =
          PersistencePlanner::search(n_low, 8192, 3, eps, delta);
      EXPECT_LE(c.margin + d, f.m_star + 1e-9) << "n_low=" << n_low;
      met = met || c.satisfies;
    }
    EXPECT_EQ(met, f.feasible) << eps << ", " << delta;
  }
}

TEST(PersistencePlanner, CachedChoiceBitIdenticalToSearch) {
  PersistencePlanner planner;
  const auto grid = plan_grid();
  // First pass misses, second pass hits; both must equal the raw search.
  for (int pass = 0; pass < 2; ++pass) {
    for (const PlanPoint& pt : grid) {
      const PersistenceChoice got =
          planner.choose(pt.n_low, pt.w, pt.k, pt.eps, pt.delta);
      expect_same_choice(
          got, PersistencePlanner::search(pt.n_low, pt.w, pt.k, pt.eps,
                                          pt.delta));
    }
  }
  const PlannerCacheStats stats = planner.stats();
  EXPECT_EQ(stats.misses, grid.size());
  EXPECT_EQ(stats.hits, grid.size());
  EXPECT_EQ(stats.entries, grid.size());
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(PersistencePlanner, CacheOffMatchesCacheOn) {
  PersistencePlanner cached;
  PersistencePlanner uncached({.cache = false});
  for (const PlanPoint& pt : plan_grid()) {
    expect_same_choice(
        cached.choose(pt.n_low, pt.w, pt.k, pt.eps, pt.delta),
        uncached.choose(pt.n_low, pt.w, pt.k, pt.eps, pt.delta));
  }
  EXPECT_EQ(uncached.stats().hits, 0u);
  EXPECT_EQ(uncached.stats().entries, 0u);
}

TEST(PersistencePlanner, BucketingSnapsBeforeTheSearch) {
  PersistencePlanner planner({.cache = true, .n_low_mantissa_bits = 16});
  const double a = 250000.0;
  const double b = 250000.0 * (1.0 + 1e-9);  // same 16-bit-mantissa bucket
  EXPECT_EQ(planner.bucket(a), planner.bucket(b));
  EXPECT_EQ(planner.bucket(planner.bucket(a)), planner.bucket(a));

  const PersistenceChoice got = planner.choose(a, 8192, 3, 0.05, 0.05);
  expect_same_choice(got, PersistencePlanner::search(planner.bucket(a), 8192,
                                                     3, 0.05, 0.05));
  // The neighbour lands on the same key: a hit, same choice.
  expect_same_choice(got, planner.choose(b, 8192, 3, 0.05, 0.05));
  EXPECT_EQ(planner.stats().hits, 1u);
  EXPECT_EQ(planner.stats().entries, 1u);
}

TEST(PersistencePlanner, BucketBoundaryNeighboursSatisfyTheoremFourBothSides) {
  // Coarse 8-bit-mantissa bucketing snaps n̂_low values ~0.4% apart onto
  // the same key. Find two *adjacent* n_low values that straddle a
  // bucket edge near the paper's 250k working point, and require a
  // valid (satisfying) Theorem-4 choice on both sides — cached and
  // uncached — plus validity at the raw (unbucketed) n_low. A planner
  // that rounded across the edge into an unsatisfiable cell would turn
  // a fine design point into a silent fallback.
  PersistencePlanner cached({.cache = true, .n_low_mantissa_bits = 8});
  PersistencePlanner uncached({.cache = false, .n_low_mantissa_bits = 8});

  // With an 8-bit mantissa near 250000 ≈ 2^18 the bucket width is
  // 2^(18−8) = 1024, so the next edge is at most 1024 away.
  double below_edge = 250000.0;
  double above_edge = below_edge + 1.0;
  while (cached.bucket(above_edge) == cached.bucket(below_edge)) {
    below_edge = above_edge;
    above_edge += 1.0;
    ASSERT_LT(above_edge, 252000.0) << "no bucket edge found";
  }
  ASSERT_NE(cached.bucket(below_edge), cached.bucket(above_edge));

  for (const double n_low : {below_edge, above_edge}) {
    SCOPED_TRACE(n_low);
    const PersistenceChoice from_cache =
        cached.choose(n_low, 8192, 3, 0.05, 0.05);
    const PersistenceChoice no_cache =
        uncached.choose(n_low, 8192, 3, 0.05, 0.05);
    expect_same_choice(from_cache, no_cache);
    // Both sides of the edge must still satisfy Theorem 4...
    EXPECT_TRUE(from_cache.satisfies);
    EXPECT_GE(from_cache.p_n, 1u);
    EXPECT_LE(from_cache.p_n, 1023u);
    EXPECT_GE(from_cache.margin, 0.0);
    // ...and the bucketed choice must also be valid at the *raw* n_low,
    // not only at the snapped key it was computed for.
    const PersistenceChoice raw =
        PersistencePlanner::search(n_low, 8192, 3, 0.05, 0.05);
    EXPECT_TRUE(raw.satisfies);
    // A second cached lookup is a hit with the identical choice.
    expect_same_choice(from_cache, cached.choose(n_low, 8192, 3, 0.05, 0.05));
  }
  EXPECT_EQ(cached.stats().entries, 2u);  // one entry per side of the edge
  EXPECT_EQ(cached.stats().hits, 2u);
  EXPECT_EQ(uncached.stats().entries, 0u);
}

TEST(PersistencePlanner, DefaultBucketIsIdentity) {
  PersistencePlanner planner;
  for (const double v : {1.0, 3.1415926, 250000.0, 5.0e6}) {
    EXPECT_EQ(planner.bucket(v), v);
  }
}

TEST(PersistencePlanner, MaxEntriesBoundsTheTableNotTheAnswers) {
  PersistencePlanner planner(
      {.cache = true, .n_low_mantissa_bits = 52, .max_entries = 4});
  for (int i = 0; i < 12; ++i) {
    const double n_low = 1000.0 * (i + 1);
    expect_same_choice(
        planner.choose(n_low, 8192, 3, 0.05, 0.05),
        PersistencePlanner::search(n_low, 8192, 3, 0.05, 0.05));
  }
  EXPECT_LE(planner.stats().entries, 4u);
}

TEST(PersistencePlanner, ClearResetsEverything) {
  PersistencePlanner planner;
  planner.choose(1000.0, 8192, 3, 0.05, 0.05);
  planner.choose(1000.0, 8192, 3, 0.05, 0.05);
  planner.clear();
  const PlannerCacheStats stats = planner.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(PersistencePlanner, ConcurrentChooseStaysConsistent) {
  PersistencePlanner planner;
  const auto grid = plan_grid();
  // Many threads hammer the same small key set; every answer must equal
  // the raw search (ASan/TSan-style smoke for the shared cache).
  util::parallel_for(
      0, 512,
      [&](std::size_t i) {
        const PlanPoint& pt = grid[i % grid.size()];
        const PersistenceChoice got =
            planner.choose(pt.n_low, pt.w, pt.k, pt.eps, pt.delta);
        const PersistenceChoice want = PersistencePlanner::search(
            pt.n_low, pt.w, pt.k, pt.eps, pt.delta);
        ASSERT_EQ(got.p_n, want.p_n);
        ASSERT_EQ(got.satisfies, want.satisfies);
      },
      8);
  const PlannerCacheStats stats = planner.stats();
  EXPECT_EQ(stats.hits + stats.misses, 512u);
  EXPECT_EQ(stats.entries, grid.size());
}

TEST(PersistencePlanner, BfceWithPlannerIsBitIdenticalToWithout) {
  const auto pop =
      rfid::make_population(120000, rfid::TagIdDistribution::kT1Uniform, 7);
  const estimators::Requirement req{0.05, 0.05};

  PersistencePlanner planner;
  BfceParams with_planner;
  with_planner.planner = &planner;

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rfid::ReaderContext plain_ctx(pop, seed, rfid::FrameMode::kSampled);
    rfid::ReaderContext planned_ctx(pop, seed, rfid::FrameMode::kSampled);
    BfceEstimator plain;
    BfceEstimator planned(with_planner);
    const estimators::EstimateOutcome a = plain.estimate(plain_ctx, req);
    const estimators::EstimateOutcome b = planned.estimate(planned_ctx, req);
    EXPECT_DOUBLE_EQ(a.n_hat, b.n_hat);
    EXPECT_DOUBLE_EQ(a.ci_low, b.ci_low);
    EXPECT_DOUBLE_EQ(a.ci_high, b.ci_high);
    EXPECT_DOUBLE_EQ(a.time_us, b.time_us);
  }
  EXPECT_GT(planner.stats().hits + planner.stats().misses, 0u);
}

}  // namespace
}  // namespace bfce::core
