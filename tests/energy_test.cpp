// Tests for the tag-side energy model and the tag_tx_bits accounting.
#include "rfid/energy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/bfce.hpp"
#include "estimators/registry.hpp"
#include "estimators/zoe.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/reader.hpp"

namespace bfce::rfid {
namespace {

TEST(EnergyModel, PricesTheLedgerComponents) {
  EnergyModel em;
  em.tag_tx_uj_per_bit = 2.0;
  em.tag_rx_uj_per_bit = 1.0;
  Airtime a;
  a.reader_bits = 100;  // heard by every one of 10 tags
  a.tag_tx_bits = 30;   // individual transmissions
  EXPECT_DOUBLE_EQ(em.population_uj(a, 10), 10 * 100 * 1.0 + 30 * 2.0);
  EXPECT_DOUBLE_EQ(em.per_tag_uj(a, 10), em.population_uj(a, 10) / 10.0);
  EXPECT_DOUBLE_EQ(em.per_tag_uj(a, 0), 0.0);
}

TEST(TxAccounting, BloomFrameCountsEveryResponse) {
  const auto pop = make_population(5000, TagIdDistribution::kT1Uniform, 1);
  util::Xoshiro256ss rng(2);
  FrameEngine engine(pop, Channel{}, FrameMode::kExact);
  BloomFrameConfig cfg;
  cfg.set_p_numerator(1024);  // p = 1: every tag fires k times
  cfg.seeds = {1, 2, 3};
  EXPECT_EQ(engine.execute(FrameRequest::bloom(cfg), rng).tx, 5000u * 3u);
}

TEST(TxAccounting, PersistenceScalesTransmissions) {
  const auto pop = make_population(20000, TagIdDistribution::kT1Uniform, 3);
  util::Xoshiro256ss rng(4);
  FrameEngine engine(pop, Channel{}, FrameMode::kExact);
  BloomFrameConfig cfg;
  cfg.set_p_numerator(256);  // p = 0.25
  cfg.seeds = {1, 2, 3};
  const std::uint64_t tx = engine.execute(FrameRequest::bloom(cfg), rng).tx;
  const double expected = 20000.0 * 3.0 * 0.25;
  EXPECT_NEAR(static_cast<double>(tx), expected, expected * 0.05);
}

TEST(TxAccounting, SampledAndExactAgreeInExpectation) {
  const auto pop = make_population(10000, TagIdDistribution::kT1Uniform, 5);
  util::Xoshiro256ss rng(6);
  Channel ch;
  FrameEngine exact(pop, ch, FrameMode::kExact);
  FrameEngine sampled(pop, ch, FrameMode::kSampled);
  BloomFrameConfig cfg;
  cfg.set_p_numerator(128);
  cfg.seeds = {7, 8, 9};
  std::uint64_t tx_exact = 0;
  std::uint64_t tx_sampled = 0;
  for (int i = 0; i < 20; ++i) {
    tx_exact += exact.execute(FrameRequest::bloom(cfg), rng).tx;
    tx_sampled += sampled.execute(FrameRequest::bloom(cfg), rng).tx;
  }
  EXPECT_NEAR(static_cast<double>(tx_exact),
              static_cast<double>(tx_sampled),
              static_cast<double>(tx_exact) * 0.05);
}

TEST(TxAccounting, LotteryFrameChargesEveryTag) {
  const auto pop = make_population(3000, TagIdDistribution::kT1Uniform, 7);
  util::Xoshiro256ss rng(8);
  FrameEngine exact(pop, Channel{}, FrameMode::kExact);
  FrameEngine sampled(3000, Channel{});
  EXPECT_EQ(exact.execute(FrameRequest::lottery(32, 99), rng).tx, 3000u);
  EXPECT_EQ(sampled.execute(FrameRequest::lottery(32, 0), rng).tx, 3000u);
}

// Every frame an estimator charges to its ledger runs on the context's
// engine, so the two transmission tallies agree in both modes.
TEST(TxAccounting, EstimatorsFillTheLedger) {
  struct Case {
    FrameMode mode;
    std::size_t n;
  };
  for (const Case c : {Case{FrameMode::kSampled, 30000},
                       Case{FrameMode::kExact, 2000}}) {
    const auto pop = make_population(c.n, TagIdDistribution::kT1Uniform, 9);
    for (const std::string& name : estimators::estimator_names()) {
      // FNEB's first-busy frame is not an engine shape; it charges one
      // transmission per round.
      if (name == "FNEB") continue;
      const auto est = estimators::make_estimator(name);
      ReaderContext ctx(pop, 10, c.mode);
      const auto out = est->estimate(ctx, {0.1, 0.1});
      const ShapeCounters total = ctx.engine().counters().total();
      EXPECT_GT(out.airtime.tag_tx_bits, 0u) << name << " n=" << c.n;
      EXPECT_EQ(out.airtime.tag_tx_bits, total.tag_tx)
          << name << " n=" << c.n;
      EXPECT_GT(total.frames, 0u) << name << " n=" << c.n;
    }
  }
}

TEST(EnergyComparison, ZoeListeningCostDwarfsBfce) {
  // The energy analogue of the paper's time result: ZOE makes every tag
  // listen to m×32 seed bits, so its per-tag energy is orders of
  // magnitude above BFCE's.
  const auto pop = make_population(50000, TagIdDistribution::kT1Uniform, 11);
  EnergyModel em;
  rfid::ReaderContext c1(pop, 12, rfid::FrameMode::kSampled);
  rfid::ReaderContext c2(pop, 13, rfid::FrameMode::kSampled);
  const auto bfce = core::BfceEstimator().estimate(c1, {0.05, 0.05});
  const auto zoe = estimators::ZoeEstimator().estimate(c2, {0.05, 0.05});
  const double e_bfce = em.per_tag_uj(bfce.airtime, 50000);
  const double e_zoe = em.per_tag_uj(zoe.airtime, 50000);
  EXPECT_GT(e_zoe, 50.0 * e_bfce);
}

}  // namespace
}  // namespace bfce::rfid
