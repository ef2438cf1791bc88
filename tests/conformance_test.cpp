// Statistical conformance tier: does BFCE actually deliver its (ε, δ)
// contract — Pr{|n̂ − n| ≤ ε·n} ≥ 1 − δ — over many seeded trials?
//
// Each cell of the sweep (population n × requirement) runs 200 trials
// (exact mode unless the cell says sampled) on independent protocol
// streams and counts the
// trials whose relative error exceeded ε. The pass criterion is not
// "miss rate ≤ δ" (a fair protocol at exactly δ would fail that half
// the time) but the exact binomial version: the 99% Clopper–Pearson
// lower confidence bound on the true miss rate must not exceed δ. A
// cell fails only when the observed misses are statistically
// inconsistent with the advertised δ.
//
// Tiny populations cannot satisfy Theorem 3's edge conditions
// (met_by_design == false); those trials fall back to the best-effort
// estimate and are excluded from the miss count — the contract only
// covers rounds the protocol could design. Cells where fewer than 50
// trials reach the design point assert fallback sanity instead. A
// requirement that no n can meet at w must be flagged infeasible on
// every trial, and a feasible one on none.
//
// ctest label: `conformance` — tier-1 plain `ctest` runs it, the
// release/asan/tsan preset filters skip it, and `tools/ci.sh
// --conformance` runs it alone (docs/TOOLING.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "core/bfce.hpp"
#include "estimators/estimator.hpp"
#include "federation/federated_bfce.hpp"
#include "federation/fleet.hpp"
#include "federation/geometry.hpp"
#include "math/hypothesis.hpp"
#include "rfid/population.hpp"
#include "rfid/reader.hpp"
#include "util/rng.hpp"

namespace bfce {
namespace {

constexpr std::size_t kTrials = 200;
constexpr std::uint64_t kMasterSeed = 0xC0F0A11CE5ULL;

struct CellOutcome {
  std::size_t designed = 0;    ///< trials that met the design point
  std::size_t misses = 0;      ///< designed trials with rel. error > ε
  std::size_t fallbacks = 0;   ///< trials flagged met_by_design == false
  std::size_t infeasible = 0;  ///< fallbacks flagged infeasible
};

CellOutcome run_cell(std::size_t n, const estimators::Requirement& req,
                     rfid::FrameMode mode) {
  const auto pop =
      rfid::make_population(n, rfid::TagIdDistribution::kT1Uniform, 77);
  core::BfceEstimator estimator;
  CellOutcome cell;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    rfid::ReaderContext ctx(pop, util::derive_seed(kMasterSeed, trial), mode);
    const estimators::EstimateOutcome out = estimator.estimate(ctx, req);
    EXPECT_TRUE(std::isfinite(out.n_hat)) << "n=" << n << " trial=" << trial;
    EXPECT_GE(out.n_hat, 0.0);
    if (!out.met_by_design) {
      ++cell.fallbacks;
      if (out.infeasible) ++cell.infeasible;
      continue;
    }
    ++cell.designed;
    if (out.relative_error(static_cast<double>(n)) > req.epsilon) {
      ++cell.misses;
    }
  }
  return cell;
}

void expect_conformance(std::size_t n, const estimators::Requirement& req,
                        rfid::FrameMode mode = rfid::FrameMode::kExact) {
  SCOPED_TRACE("n=" + std::to_string(n) +
               " eps=" + std::to_string(req.epsilon) +
               " delta=" + std::to_string(req.delta) +
               (mode == rfid::FrameMode::kExact ? " exact" : " sampled"));
  const CellOutcome cell = run_cell(n, req, mode);
  ASSERT_EQ(cell.designed + cell.fallbacks, kTrials);
  // Only a requirement no n can meet is flagged infeasible, and such a
  // requirement is never met by design.
  EXPECT_EQ(cell.infeasible, 0u);
  if (cell.designed >= 50) {
    // Exact binomial consistency check against the advertised δ.
    const math::ProportionInterval ci =
        math::clopper_pearson_interval(cell.misses, cell.designed, 0.99);
    EXPECT_LE(ci.lo, req.delta)
        << cell.misses << " misses in " << cell.designed
        << " designed trials is inconsistent with delta=" << req.delta;
  } else {
    // The design point is out of reach at this n (Theorem 4 found no
    // satisfying p_o): the protocol must say so, not mislabel rounds.
    EXPECT_GE(cell.fallbacks, kTrials - 50);
  }
}

// n = 100 sits far below the smallest population where Theorem 3's
// edge conditions admit any p_o on the Theorem-4 grid — these cells
// exercise the honest-fallback path rather than the contract itself.

TEST(Conformance, N100TightRequirement) {
  expect_conformance(100, {0.05, 0.05});
}

TEST(Conformance, N100LooseEpsilonTightDelta) {
  expect_conformance(100, {0.1, 0.01});
}

TEST(Conformance, N1000TightRequirement) {
  expect_conformance(1000, {0.05, 0.05});
}

TEST(Conformance, N1000LooseEpsilonTightDelta) {
  expect_conformance(1000, {0.1, 0.01});
}

TEST(Conformance, N10000TightRequirement) {
  expect_conformance(10000, {0.05, 0.05});
}

TEST(Conformance, N10000LooseEpsilonTightDelta) {
  expect_conformance(10000, {0.1, 0.01});
}

TEST(Conformance, N100000TightRequirement) {
  expect_conformance(100000, {0.05, 0.05});
}

TEST(Conformance, N100000LooseEpsilonTightDelta) {
  expect_conformance(100000, {0.1, 0.01});
}

TEST(Conformance, N1000LooseRequirement) {
  expect_conformance(1000, {0.1, 0.1});
}

TEST(Conformance, N10000LooseRequirement) {
  expect_conformance(10000, {0.1, 0.1});
}

TEST(Conformance, N2000TightRequirementSampled) {
  expect_conformance(2000, {0.05, 0.05}, rfid::FrameMode::kSampled);
}

TEST(Conformance, N10000InfeasibleRequirementIsNeverDesigned) {
  // At w = 8192 no n meets (0.02, 0.01): every trial must say so, typed.
  const CellOutcome cell =
      run_cell(10000, {0.02, 0.01}, rfid::FrameMode::kExact);
  EXPECT_EQ(cell.designed, 0u);
  EXPECT_EQ(cell.fallbacks, kTrials);
  EXPECT_EQ(cell.infeasible, kTrials);
}

// ---- Fleet-level conformance ---------------------------------------------
// The federated union estimator must honour the same (ε, δ) contract as
// the plain protocol, judged against the *union* cardinality, across
// increasingly overlapped two-reader coverage. The exact-mode sessions
// draw their persistence independently per reader, so the saturating
// g(p) correction is the one being audited here.

CellOutcome run_fleet_cell(double overlap_frac,
                           const estimators::Requirement& req) {
  const auto pop =
      rfid::make_population(40000, rfid::TagIdDistribution::kT1Uniform, 77);
  const federation::Fleet fleet(
      pop, federation::overlapping_pair(0.24, overlap_frac));
  const double union_n = static_cast<double>(fleet.union_size());
  CellOutcome cell;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    federation::FederationConfig cfg;
    cfg.correlation = federation::SessionCorrelation::kIndependent;
    cfg.mode = rfid::FrameMode::kExact;
    cfg.fanout = 2;
    cfg.seed = util::derive_seed(kMasterSeed, trial);
    const federation::FederatedOutcome fed =
        federation::FederatedBfceEstimator(cfg).estimate(fleet, req);
    EXPECT_TRUE(std::isfinite(fed.outcome.n_hat)) << "trial=" << trial;
    EXPECT_GE(fed.outcome.n_hat, 0.0);
    if (!fed.outcome.met_by_design) {
      ++cell.fallbacks;
      continue;
    }
    ++cell.designed;
    if (fed.outcome.relative_error(union_n) > req.epsilon) {
      ++cell.misses;
    }
  }
  return cell;
}

void expect_fleet_conformance(double overlap_frac,
                              const estimators::Requirement& req) {
  SCOPED_TRACE("overlap=" + std::to_string(overlap_frac) +
               " eps=" + std::to_string(req.epsilon) +
               " delta=" + std::to_string(req.delta));
  const CellOutcome cell = run_fleet_cell(overlap_frac, req);
  ASSERT_EQ(cell.designed + cell.fallbacks, kTrials);
  ASSERT_GE(cell.designed, 50u);  // 40k-tag unions always reach design
  const math::ProportionInterval ci =
      math::clopper_pearson_interval(cell.misses, cell.designed, 0.99);
  EXPECT_LE(ci.lo, req.delta)
      << cell.misses << " misses in " << cell.designed
      << " designed fleet trials is inconsistent with delta=" << req.delta;
}

TEST(FleetConformance, DisjointCoverage) {
  expect_fleet_conformance(0.0, {0.05, 0.05});
}

TEST(FleetConformance, QuarterOverlap) {
  expect_fleet_conformance(0.25, {0.05, 0.05});
}

TEST(FleetConformance, HalfOverlap) {
  expect_fleet_conformance(0.5, {0.05, 0.05});
}

}  // namespace
}  // namespace bfce
