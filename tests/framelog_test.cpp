// Tests for the frame log and the protocol structure it reveals.
#include "rfid/framelog.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/bfce.hpp"
#include "estimators/registry.hpp"
#include "estimators/src_protocol.hpp"
#include "estimators/zoe.hpp"
#include "rfid/reader.hpp"

namespace bfce::rfid {
namespace {

TEST(FrameLog, StartsEmptyAndCounts) {
  FrameLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_DOUBLE_EQ(log.total_duration_us(), 0.0);
  log.append(FrameRecord{FrameKind::kProbe, 32, 0.008, 5, 1000.0});
  log.append(FrameRecord{FrameKind::kAloha, 512, 0.1, 100, 2000.0});
  log.append(FrameRecord{FrameKind::kProbe, 32, 0.010, 9, 1000.0});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(FrameKind::kProbe), 2u);
  EXPECT_EQ(log.count(FrameKind::kAloha), 1u);
  EXPECT_EQ(log.count(FrameKind::kLottery), 0u);
  EXPECT_DOUBLE_EQ(log.total_duration_us(), 4000.0);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(FrameLog, KindNames) {
  EXPECT_EQ(to_string(FrameKind::kProbe), "probe");
  EXPECT_EQ(to_string(FrameKind::kBloomRough), "bloom-rough");
  EXPECT_EQ(to_string(FrameKind::kBloomAccurate), "bloom-accurate");
  EXPECT_EQ(to_string(FrameKind::kSingleSlot), "single-slot");
  EXPECT_EQ(to_string(FrameKind::kLottery), "lottery");
}

TEST(FrameLog, TimelineRendersShares) {
  FrameLog log;
  log.append(FrameRecord{FrameKind::kProbe, 32, 0.008, 5, 2500.0});
  log.append(FrameRecord{FrameKind::kAloha, 512, 0.1, 100, 7500.0});
  std::ostringstream os;
  log.render_timeline(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("probe"), std::string::npos);
  EXPECT_NE(text.find("aloha"), std::string::npos);
  EXPECT_NE(text.find("25.0%"), std::string::npos);
  EXPECT_NE(text.find("75.0%"), std::string::npos);
}

TEST(FrameLog, EmptyTimelineIsSafe) {
  FrameLog log;
  std::ostringstream os;
  log.render_timeline(os);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(FrameLog, BfceHasTheTwoPhaseStructure) {
  const auto pop = make_population(50000, TagIdDistribution::kT1Uniform, 1);
  ReaderContext ctx(pop, 2, FrameMode::kSampled);
  FrameLog log;
  ctx.attach_log(&log);
  core::BfceEstimator bfce;
  const auto out = bfce.estimate(ctx, {0.05, 0.05});

  // Protocol structure: the first probe window is mixed, so its frame is
  // the rough frame and no probe is abandoned. Exactly one rough and one
  // accurate Bloom frame, in that order, and nothing else.
  EXPECT_EQ(log.count(FrameKind::kProbe), 0u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].kind, FrameKind::kBloomRough);
  EXPECT_EQ(log.records()[1].kind, FrameKind::kBloomAccurate);
  // The rough frame observed 1024 slots, probe window included; the
  // accurate one 8192.
  EXPECT_EQ(log.records()[0].slots_observed, 1024u);
  EXPECT_EQ(log.records()[1].slots_observed, 8192u);
  // The logged durations account for the whole run.
  EXPECT_NEAR(log.total_duration_us(), out.time_us, 1.0);
}

TEST(FrameLog, ZoeIsAWallOfSingleSlots) {
  const auto pop = make_population(50000, TagIdDistribution::kT1Uniform, 3);
  ReaderContext ctx(pop, 4, FrameMode::kSampled);
  FrameLog log;
  ctx.attach_log(&log);
  estimators::ZoeEstimator zoe;
  zoe.estimate(ctx, {0.05, 0.05});
  // LOF rough rounds + thousands of single slots.
  EXPECT_EQ(log.count(FrameKind::kLottery), 10u);
  EXPECT_GT(log.count(FrameKind::kSingleSlot), 3000u);
}

TEST(FrameLog, SrcLogsItsMajorityRounds) {
  const auto pop = make_population(50000, TagIdDistribution::kT1Uniform, 5);
  ReaderContext ctx(pop, 6, FrameMode::kSampled);
  FrameLog log;
  ctx.attach_log(&log);
  estimators::SrcEstimator src;
  src.estimate(ctx, {0.05, 0.05});
  EXPECT_EQ(log.count(FrameKind::kAloha), 7u);  // m(0.05) = 7
  EXPECT_EQ(log.count(FrameKind::kLottery), 2u);
}

TEST(FrameLog, EveryEstimatorLogsEachFrame) {
  // One record per frame, each carrying its frame's ledger charge, so the
  // log accounts for the whole run.
  struct Case {
    FrameMode mode;
    std::size_t n;
  };
  for (const Case c : {Case{FrameMode::kSampled, 30000},
                       Case{FrameMode::kExact, 2000}}) {
    const auto pop = make_population(c.n, TagIdDistribution::kT1Uniform, 9);
    for (const std::string& name : estimators::estimator_names()) {
      const auto est = estimators::make_estimator(name);
      ReaderContext ctx(pop, 10, c.mode);
      FrameLog log;
      ctx.attach_log(&log);
      const auto out = est->estimate(ctx, {0.1, 0.1});
      // FNEB's first-busy frame is not an engine shape: one per round.
      const std::uint64_t frames = name == "FNEB"
                                       ? out.rounds
                                       : ctx.engine().counters().total().frames;
      EXPECT_EQ(log.size(), frames) << name << " n=" << c.n;
      EXPECT_NEAR(log.total_duration_us(), out.time_us, 1.0)
          << name << " n=" << c.n;
    }
  }
}

TEST(FrameLog, NoLogAttachedMeansNoOverheadOrRecords) {
  const auto pop = make_population(10000, TagIdDistribution::kT1Uniform, 7);
  ReaderContext ctx(pop, 8, FrameMode::kSampled);
  EXPECT_EQ(ctx.log(), nullptr);
  core::BfceEstimator bfce;
  const auto out = bfce.estimate(ctx, {0.05, 0.05});
  EXPECT_GT(out.n_hat, 0.0);  // estimation unaffected
}

}  // namespace
}  // namespace bfce::rfid
