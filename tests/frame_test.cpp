// Tests for the frame executors: Theorem 1 marginals, exact/sampled
// equivalence, and the shapes used by the baseline protocols.
#include "rfid/frame_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "math/hypothesis.hpp"
#include "rfid/population.hpp"

namespace bfce::rfid {
namespace {

TagPopulation small_pop(std::size_t n, std::uint64_t seed = 1) {
  return make_population(n, TagIdDistribution::kT1Uniform, seed);
}

BloomFrameConfig base_config(std::uint32_t p_n, util::Xoshiro256ss& rng) {
  BloomFrameConfig cfg;
  cfg.set_p_numerator(p_n);
  for (std::uint32_t j = 0; j < cfg.k; ++j) cfg.seeds[j] = rng();
  return cfg;
}

double idle_ratio(const util::BitVector& busy) {
  return 1.0 - static_cast<double>(busy.count_ones()) /
                   static_cast<double>(busy.size());
}

TEST(BloomFrame, FullPersistenceEveryTagLandsSomewhere) {
  const TagPopulation pop = small_pop(100);
  util::Xoshiro256ss rng(1);
  Channel ch;
  auto cfg = base_config(1024, rng);  // p = 1
  cfg.k = 1;
  FrameEngine engine(pop, ch, FrameMode::kExact);
  const util::BitVector busy =
      engine.execute(FrameRequest::bloom(cfg), rng).busy;
  // With p=1 and k=1 each tag occupies exactly one slot; 100 tags in
  // 8192 slots leave at most 100 busy slots, and at least 94-ish
  // (birthday collisions) — assert loose bounds plus non-emptiness.
  const std::size_t busy_count = busy.count_ones();
  EXPECT_LE(busy_count, 100u);
  EXPECT_GE(busy_count, 90u);
}

TEST(BloomFrame, ZeroPersistenceKeepsChannelSilent) {
  const TagPopulation pop = small_pop(1000);
  util::Xoshiro256ss rng(2);
  Channel ch;
  auto cfg = base_config(0, rng);  // p = 0
  FrameEngine engine(pop, ch, FrameMode::kExact);
  const util::BitVector busy =
      engine.execute(FrameRequest::bloom(cfg), rng).busy;
  EXPECT_EQ(busy.count_ones(), 0u);
}

// ---- Theorem 1: Pr{slot idle} = e^{−λ} for every realisation mode ----

struct Theorem1Case {
  HashScheme hash;
  hash::PersistenceMode persistence;
  const char* label;
};

class Theorem1Test : public ::testing::TestWithParam<Theorem1Case> {};

TEST_P(Theorem1Test, IdleRatioMatchesExpLambda) {
  const auto param = GetParam();
  const TagPopulation pop = small_pop(20000, 3);
  util::Xoshiro256ss rng(4);
  FrameEngine engine(pop, Channel{}, FrameMode::kExact);
  double total_rho = 0.0;
  constexpr int kFrames = 12;
  for (int f = 0; f < kFrames; ++f) {
    auto cfg = base_config(128, rng);  // p = 0.125
    cfg.hash = param.hash;
    cfg.persistence = param.persistence;
    total_rho += idle_ratio(engine.execute(FrameRequest::bloom(cfg), rng).busy);
  }
  const double rho = total_rho / kFrames;
  const double lambda = 3.0 * 0.125 * 20000.0 / 8192.0;  // = 0.9155
  EXPECT_NEAR(rho, std::exp(-lambda), 0.01) << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllRealisations, Theorem1Test,
    ::testing::Values(
        Theorem1Case{HashScheme::kIdeal,
                     hash::PersistenceMode::kIdealBernoulli,
                     "ideal/bernoulli"},
        Theorem1Case{HashScheme::kIdeal, hash::PersistenceMode::kSharedDraw,
                     "ideal/shared"},
        Theorem1Case{HashScheme::kIdeal, hash::PersistenceMode::kRnBits,
                     "ideal/rnbits"},
        Theorem1Case{HashScheme::kLightweight,
                     hash::PersistenceMode::kIdealBernoulli,
                     "lightweight/bernoulli"},
        Theorem1Case{HashScheme::kLightweight,
                     hash::PersistenceMode::kRnBits, "lightweight/rnbits"}),
    [](const auto& param_info) {
      std::string s = param_info.param.label;
      for (char& c : s) {
        if (c == '/') c = '_';
      }
      return s;
    });

TEST(BloomFrame, SampledMatchesExactDistribution) {
  // KS test over per-frame idle ratios from the two executors.
  const TagPopulation pop = small_pop(30000, 5);
  util::Xoshiro256ss rng(6);
  Channel ch;
  FrameEngine exact(pop, ch, FrameMode::kExact);
  FrameEngine sampled(pop, ch, FrameMode::kSampled);
  std::vector<double> exact_rhos;
  std::vector<double> sampled_rhos;
  constexpr int kFrames = 60;
  for (int f = 0; f < kFrames; ++f) {
    const FrameRequest request = FrameRequest::bloom(base_config(64, rng));
    exact_rhos.push_back(idle_ratio(exact.execute(request, rng).busy));
    sampled_rhos.push_back(idle_ratio(sampled.execute(request, rng).busy));
  }
  const double d = math::ks_statistic(exact_rhos, sampled_rhos);
  EXPECT_GT(math::ks_pvalue(d, kFrames, kFrames), 0.005);
}

TEST(AlohaFrame, SlotTypesAreConsistent) {
  const TagPopulation pop = small_pop(500, 7);
  util::Xoshiro256ss rng(8);
  FrameEngine engine(pop, Channel{}, FrameMode::kExact);
  const auto states =
      engine.execute(FrameRequest::aloha(256, 1.0, 42), rng).states;
  ASSERT_EQ(states.size(), 256u);
  std::size_t singles = 0;
  std::size_t collisions = 0;
  for (const SlotState s : states) {
    if (s == SlotState::kSingle) ++singles;
    if (s == SlotState::kCollision) ++collisions;
  }
  // 500 tags in 256 slots (λ≈2): all three types must appear.
  EXPECT_GT(singles, 0u);
  EXPECT_GT(collisions, 0u);
  EXPECT_GT(256u - singles - collisions, 0u);
  // Singles + at-least-two-per-collision cannot exceed the tag count.
  EXPECT_LE(singles + 2 * collisions, 500u);
}

TEST(AlohaFrame, EmptyRatioMatchesLaw) {
  const TagPopulation pop = small_pop(2000, 9);
  util::Xoshiro256ss rng(10);
  FrameEngine engine(pop, Channel{}, FrameMode::kExact);
  double idle_total = 0.0;
  constexpr int kFrames = 30;
  constexpr std::uint32_t kF = 1024;
  for (int f = 0; f < kFrames; ++f) {
    const auto states =
        engine.execute(FrameRequest::aloha(kF, 0.5, rng()), rng).states;
    std::size_t idle = 0;
    for (const SlotState s : states) {
      if (!is_busy(s)) ++idle;
    }
    idle_total += static_cast<double>(idle) / kF;
  }
  const double lambda = 0.5 * 2000.0 / kF;
  EXPECT_NEAR(idle_total / kFrames, std::exp(-lambda), 0.01);
}

TEST(AlohaFrame, SampledMatchesExactMoments) {
  const TagPopulation pop = small_pop(5000, 11);
  util::Xoshiro256ss rng(12);
  Channel ch;
  FrameEngine exact(pop, ch, FrameMode::kExact);
  FrameEngine sampled(pop, ch, FrameMode::kSampled);
  std::vector<double> exact_idle;
  std::vector<double> sampled_idle;
  constexpr int kFrames = 50;
  for (int f = 0; f < kFrames; ++f) {
    const auto a =
        exact.execute(FrameRequest::aloha(512, 0.15, rng()), rng).states;
    const auto b =
        sampled.execute(FrameRequest::aloha(512, 0.15, 0), rng).states;
    auto count_idle = [](const std::vector<SlotState>& ss) {
      double idle = 0;
      for (const SlotState s : ss) {
        if (!is_busy(s)) ++idle;
      }
      return idle;
    };
    exact_idle.push_back(count_idle(a));
    sampled_idle.push_back(count_idle(b));
  }
  const double d = math::ks_statistic(exact_idle, sampled_idle);
  EXPECT_GT(math::ks_pvalue(d, kFrames, kFrames), 0.005);
}

TEST(SingleSlot, BusyProbabilityMatchesLaw) {
  const TagPopulation pop = small_pop(1000, 13);
  util::Xoshiro256ss rng(14);
  Channel ch;
  FrameEngine exact(pop, ch, FrameMode::kExact);
  FrameEngine sampled(pop, ch, FrameMode::kSampled);
  const double q = 1.594 / 1000.0;
  int busy_exact = 0;
  int busy_sampled = 0;
  constexpr int kFrames = 4000;
  for (int f = 0; f < kFrames; ++f) {
    if (is_busy(exact.execute(FrameRequest::single_slot(q, rng()), rng).single))
      ++busy_exact;
    if (is_busy(sampled.execute(FrameRequest::single_slot(q, 0), rng).single))
      ++busy_sampled;
  }
  const double expected = 1.0 - std::exp(-1.594);
  EXPECT_NEAR(static_cast<double>(busy_exact) / kFrames, expected, 0.025);
  EXPECT_NEAR(static_cast<double>(busy_sampled) / kFrames, expected, 0.025);
}

TEST(SingleSlot, DegenerateProbabilities) {
  const TagPopulation pop = small_pop(100, 15);
  util::Xoshiro256ss rng(16);
  FrameEngine exact(pop, Channel{}, FrameMode::kExact);
  FrameEngine sampled(100, Channel{});
  auto busy = [&](FrameEngine& engine, double q) {
    return is_busy(engine.execute(FrameRequest::single_slot(q, 1), rng).single);
  };
  EXPECT_FALSE(busy(exact, 0.0));
  EXPECT_TRUE(busy(exact, 1.0));
  EXPECT_FALSE(busy(sampled, 0.0));
  EXPECT_TRUE(busy(sampled, 1.0));
}

TEST(LotteryFrame, FirstZeroGrowsWithLogN) {
  util::Xoshiro256ss rng(17);
  Channel ch;
  auto mean_first_zero = [&](std::size_t n) {
    const TagPopulation pop = small_pop(n, n);
    FrameEngine engine(pop, ch, FrameMode::kExact);
    double sum = 0.0;
    constexpr int kRounds = 30;
    for (int r = 0; r < kRounds; ++r) {
      sum += static_cast<double>(
          engine.execute(FrameRequest::lottery(32, rng()), rng)
              .busy.first_zero());
    }
    return sum / kRounds;
  };
  const double at_1k = mean_first_zero(1000);
  const double at_64k = mean_first_zero(64000);
  // log2(64) = 6 more levels; allow generous slack for FM noise.
  EXPECT_NEAR(at_64k - at_1k, 6.0, 1.5);
}

TEST(LotteryFrame, SampledMatchesExactDistribution) {
  util::Xoshiro256ss rng(18);
  Channel ch;
  const TagPopulation pop = small_pop(10000, 19);
  FrameEngine exact(pop, ch, FrameMode::kExact);
  FrameEngine sampled(pop, ch, FrameMode::kSampled);
  std::vector<double> exact_fz;
  std::vector<double> sampled_fz;
  constexpr int kRounds = 200;
  for (int r = 0; r < kRounds; ++r) {
    exact_fz.push_back(static_cast<double>(
        exact.execute(FrameRequest::lottery(32, rng()), rng)
            .busy.first_zero()));
    sampled_fz.push_back(static_cast<double>(
        sampled.execute(FrameRequest::lottery(32, 0), rng)
            .busy.first_zero()));
  }
  const double d = math::ks_statistic(exact_fz, sampled_fz);
  EXPECT_GT(math::ks_pvalue(d, kRounds, kRounds), 0.005);
}

TEST(Frames, ChannelErrorsPerturbObservations) {
  const TagPopulation pop = small_pop(100, 20);
  util::Xoshiro256ss rng(21);
  const Channel noisy(ChannelModel{0.2, 0.0});
  auto cfg = base_config(0, rng);  // nobody transmits...
  FrameEngine engine(pop, noisy, FrameMode::kExact);
  const util::BitVector busy =
      engine.execute(FrameRequest::bloom(cfg), rng).busy;
  // ...yet ~20% of slots read busy through the noisy channel.
  EXPECT_NEAR(static_cast<double>(busy.count_ones()) / 8192.0, 0.2, 0.02);
}

}  // namespace
}  // namespace bfce::rfid
