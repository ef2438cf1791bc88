// Deep tests for the UPE collision-based estimator.
#include "estimators/upe.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "estimators/ezb.hpp"
#include "rfid/reader.hpp"

namespace bfce::estimators {
namespace {

TEST(UpeDeep, CollisionInversionIsMonotoneWithCorrectEdges) {
  double prev = 0.0;
  for (double c = 0.01; c < 0.99; c += 0.01) {
    const double lambda = UpeEstimator::invert_collision_ratio(c);
    EXPECT_GT(lambda, prev) << c;
    prev = lambda;
  }
  // Tiny collision ratio ⇒ tiny load; near-total collisions ⇒ huge load.
  EXPECT_LT(UpeEstimator::invert_collision_ratio(0.001), 0.1);
  EXPECT_GT(UpeEstimator::invert_collision_ratio(0.999), 8.0);
}

TEST(UpeDeep, CollisionLawHoldsEmpirically) {
  // E[collision slots] = f·(1 − (1+λ)e^{−λ}) — the formula UPE inverts.
  const auto pop = rfid::make_population(
      4000, rfid::TagIdDistribution::kT1Uniform, 1);
  util::Xoshiro256ss rng(2);
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact);
  constexpr std::uint32_t kF = 2048;
  constexpr double kP = 0.75;
  double collisions = 0.0;
  constexpr int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) {
    const auto states =
        engine.execute(rfid::FrameRequest::aloha(kF, kP, rng()), rng).states;
    for (const rfid::SlotState s : states) {
      if (s == rfid::SlotState::kCollision) ++collisions;
    }
  }
  const double lambda = kP * 4000.0 / kF;
  const double expected = kF * (1.0 - (1.0 + lambda) * std::exp(-lambda));
  EXPECT_NEAR(collisions / kFrames, expected, expected * 0.05);
}

TEST(UpeDeep, FrameSizeRespondsToTheRequirement) {
  // The measurement frame carries the whole (ε, δ) burden: tightening
  // either knob must enlarge it, visible through tag_bits.
  const auto pop = rfid::make_population(
      20000, rfid::TagIdDistribution::kT1Uniform, 3);
  UpeEstimator est;
  auto tag_bits = [&](double eps, double delta) {
    rfid::ReaderContext ctx(pop, 4, rfid::FrameMode::kSampled);
    return est.estimate(ctx, {eps, delta}).airtime.tag_bits;
  };
  EXPECT_GT(tag_bits(0.05, 0.05), tag_bits(0.10, 0.05));
  EXPECT_GT(tag_bits(0.05, 0.05), tag_bits(0.05, 0.20));
}

TEST(UpeDeep, ImpossibleRequirementIsFlagged) {
  // ε so tight that the needed frame exceeds the cap: UPE must say so.
  const auto pop = rfid::make_population(
      20000, rfid::TagIdDistribution::kT1Uniform, 5);
  rfid::ReaderContext ctx(pop, 6, rfid::FrameMode::kSampled);
  UpeEstimator est;
  const auto out = est.estimate(ctx, {0.002, 0.05});
  EXPECT_FALSE(out.met_by_design);
  EXPECT_FALSE(out.note.empty());
}

TEST(UpeDeep, WiderSlotsMakeUpeSlowerThanEzbPerSlot) {
  // UPE needs slot-type detection (10-bit slots); EZB reads 1-bit
  // slots. At the same requirement UPE pays more per slot.
  const auto pop = rfid::make_population(
      50000, rfid::TagIdDistribution::kT1Uniform, 7);
  rfid::ReaderContext a(pop, 8, rfid::FrameMode::kSampled);
  rfid::ReaderContext b(pop, 8, rfid::FrameMode::kSampled);
  UpeEstimator upe;
  EzbEstimator ezb;
  const double t_upe =
      upe.estimate(a, {0.05, 0.05}).airtime.total_seconds(a.timing());
  const double t_ezb =
      ezb.estimate(b, {0.05, 0.05}).airtime.total_seconds(b.timing());
  EXPECT_GT(t_upe, t_ezb);
}

TEST(UpeDeep, LoadClampWhenPopulationIsSmall) {
  // n below the frame's design load: p clamps at 1 and the estimate
  // still lands (low-load regime of the collision curve).
  const auto pop = rfid::make_population(
      800, rfid::TagIdDistribution::kT1Uniform, 9);
  rfid::ReaderContext ctx(pop, 10, rfid::FrameMode::kSampled);
  UpeEstimator est;
  const auto out = est.estimate(ctx, {0.1, 0.1});
  EXPECT_LT(out.relative_error(800.0), 0.35);
}

}  // namespace
}  // namespace bfce::estimators
