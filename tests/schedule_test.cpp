// Tests for the multi-reader interference schedule and the Wilson /
// normality additions to the math layer.
#include <gtest/gtest.h>

#include <cmath>

#include "math/hypothesis.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/multireader.hpp"
#include "util/rng.hpp"

namespace bfce {
namespace {

rfid::TagPopulation tiny_pop() {
  return rfid::make_population(100, rfid::TagIdDistribution::kT1Uniform, 1);
}

TEST(Schedule, DisjointReadersShareOneRound) {
  const auto pop = tiny_pop();
  // Two far-apart small discs: no interference.
  rfid::MultiReaderSystem sys(
      pop, {rfid::ReaderPlacement{0.1, 0.1, 0.05},
            rfid::ReaderPlacement{0.9, 0.9, 0.05}});
  const auto colours = sys.interference_schedule();
  EXPECT_EQ(colours[0], colours[1]);
  EXPECT_EQ(sys.schedule_rounds(), 1u);
}

TEST(Schedule, OverlappingReadersSplitRounds) {
  const auto pop = tiny_pop();
  rfid::MultiReaderSystem sys(
      pop, {rfid::ReaderPlacement{0.4, 0.5, 0.2},
            rfid::ReaderPlacement{0.6, 0.5, 0.2}});
  EXPECT_EQ(sys.schedule_rounds(), 2u);
}

TEST(Schedule, DenseGridNeedsFewRoundsButMoreThanOne) {
  const auto pop = tiny_pop();
  rfid::MultiReaderSystem sys(pop, rfid::MultiReaderSystem::grid(9, 0.35));
  const std::uint32_t rounds = sys.schedule_rounds();
  EXPECT_GT(rounds, 1u);
  EXPECT_LE(rounds, 9u);
  // Schedule validity: no two conflicting readers share a colour.
  const auto colours = sys.interference_schedule();
  const auto& readers = sys.readers();
  for (std::size_t i = 0; i < readers.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double dx = readers[i].x - readers[j].x;
      const double dy = readers[i].y - readers[j].y;
      const double reach = readers[i].radius + readers[j].radius;
      if (dx * dx + dy * dy < reach * reach) {
        EXPECT_NE(colours[i], colours[j]) << i << "," << j;
      }
    }
  }
}

TEST(Schedule, NoReadersNoRounds) {
  const auto pop = tiny_pop();
  rfid::MultiReaderSystem sys(pop, {});
  EXPECT_EQ(sys.schedule_rounds(), 0u);
}

TEST(WilsonInterval, BracketsTheEmpiricalRate) {
  const auto ci = math::wilson_interval(5, 100);
  EXPECT_LT(ci.lo, 0.05);
  EXPECT_GT(ci.hi, 0.05);
  EXPECT_GT(ci.lo, 0.0);
  EXPECT_LT(ci.hi, 0.15);
}

TEST(WilsonInterval, ZeroSuccessesStillInformative) {
  // "0 of 25" is compatible with rates up to ~13%, not with 30%.
  const auto ci = math::wilson_interval(0, 25);
  EXPECT_DOUBLE_EQ(ci.lo, 0.0);
  EXPECT_GT(ci.hi, 0.05);
  EXPECT_LT(ci.hi, 0.20);
}

TEST(WilsonInterval, AllSuccessesAndDegenerateInputs) {
  const auto all = math::wilson_interval(25, 25);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  const auto none = math::wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

TEST(WilsonInterval, ShrinksWithTrials) {
  const auto small = math::wilson_interval(5, 50);
  const auto large = math::wilson_interval(50, 500);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(KsNormality, AcceptsGaussianData) {
  util::Xoshiro256ss rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    const double u1 = rng.uniform();
    const double u2 = rng.uniform();
    xs.push_back(std::sqrt(-2.0 * std::log(u1 + 1e-300)) *
                 std::cos(6.283185307179586 * u2));
  }
  EXPECT_GT(math::ks_normality_pvalue(xs), 0.01);
}

TEST(KsNormality, RejectsUniformAndConstantData) {
  util::Xoshiro256ss rng(2);
  std::vector<double> uniform;
  for (int i = 0; i < 1000; ++i) uniform.push_back(rng.uniform());
  EXPECT_LT(math::ks_normality_pvalue(uniform), 0.01);
  EXPECT_DOUBLE_EQ(
      math::ks_normality_pvalue(std::vector<double>(100, 3.0)), 0.0);
}

TEST(KsNormality, BloomIdleRatioIsAsymptoticallyNormal) {
  // The CLT claim underlying Theorem 3: ρ̄ over w = 8192 slots is
  // normal enough that a KS test cannot tell the difference.
  util::Xoshiro256ss rng(3);
  rfid::FrameEngine engine(100000, rfid::Channel{});
  std::vector<double> rhos;
  for (int f = 0; f < 300; ++f) {
    rfid::BloomFrameConfig cfg;
    cfg.set_p_numerator(16);
    cfg.seeds = {rng(), rng(), rng()};
    const auto busy = engine.execute(rfid::FrameRequest::bloom(cfg), rng).busy;
    rhos.push_back(1.0 -
                   static_cast<double>(busy.count_ones()) / 8192.0);
  }
  EXPECT_GT(math::ks_normality_pvalue(rhos), 0.01);
}

}  // namespace
}  // namespace bfce
