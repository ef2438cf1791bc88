// FrameEngine equivalence tests.
//
// The engine promises:
//   * execute() is bit-identical to the pre-engine executors for every
//     (shape, mode) pair — including identical RNG consumption, so
//     downstream draws stay aligned;
//   * a sequential execute_batch() is execute() over the requests in
//     order, bit-identical for every shape, mode and persistence mode;
//   * the sharded walk is bit-identical for any shard count, bit-identical
//     to the sequential walk where tag-side responses draw no RNG, and
//     law-equivalent (two-sample KS) where they do;
//   * the per-shape counters add up.
//
// The pre-engine executors are embedded verbatim below as `ref_*` so
// the contract stays checkable against the code the engine replaced.

#include "rfid/frame_engine.hpp"

#include <gtest/gtest.h>

#include "rfid/frame_engine_simd.hpp"

#include <cassert>
#include <cmath>
#include <random>
#include <vector>

#include "hash/mix.hpp"
#include "hash/persistence.hpp"
#include "hash/slot_hash.hpp"
#include "math/hypothesis.hpp"
#include "rfid/population.hpp"

namespace bfce::rfid {
namespace {

// ---- verbatim pre-refactor executors (the reference behaviour) --------

util::BitVector ref_counts_to_busy(const std::vector<std::uint32_t>& counts,
                                   const Channel& channel,
                                   util::Xoshiro256ss& rng) {
  util::BitVector busy(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (is_busy(channel.observe(counts[i], rng))) busy.set(i);
  }
  return busy;
}

std::uint64_t ref_draw_binomial(std::uint64_t trials, double p,
                                util::Xoshiro256ss& rng) {
  if (trials == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return trials;
  std::binomial_distribution<std::uint64_t> dist(trials, p);
  return dist(rng);
}

std::uint64_t ref_total(const std::vector<std::uint32_t>& counts) {
  std::uint64_t total = 0;
  for (const std::uint32_t c : counts) total += c;
  return total;
}

util::BitVector ref_run_bloom_frame(const TagPopulation& tags,
                                    const BloomFrameConfig& cfg,
                                    const Channel& channel,
                                    util::Xoshiro256ss& rng,
                                    std::uint64_t* tx_count = nullptr) {
  std::vector<std::uint32_t> counts(cfg.w, 0);
  for (const Tag& tag : tags.tags()) {
    bool shared_respond = true;
    if (cfg.persistence == hash::PersistenceMode::kSharedDraw) {
      shared_respond = rng.bernoulli(cfg.p);
      if (!shared_respond) continue;
    }
    for (std::uint32_t j = 0; j < cfg.k; ++j) {
      std::uint32_t slot;
      if (cfg.hash == HashScheme::kIdeal) {
        slot = hash::IdealSlotHash(cfg.seeds[j]).slot(tag.id, cfg.w);
      } else {
        slot = hash::LightweightSlotHash(
                   static_cast<std::uint32_t>(cfg.seeds[j]))
                   .slot(tag.rn, cfg.w);
      }
      bool respond;
      switch (cfg.persistence) {
        case hash::PersistenceMode::kIdealBernoulli:
          respond = rng.bernoulli(cfg.p);
          break;
        case hash::PersistenceMode::kSharedDraw:
          respond = shared_respond;
          break;
        case hash::PersistenceMode::kRnBits:
          respond = hash::rn_bits_respond(
              tag.rn, slot, static_cast<std::uint32_t>(cfg.seeds[j]),
              cfg.p_n);
          break;
        default:
          respond = false;
      }
      if (respond) ++counts[slot];
    }
  }
  if (tx_count != nullptr) *tx_count += ref_total(counts);
  return ref_counts_to_busy(counts, channel, rng);
}

util::BitVector ref_sampled_bloom_frame(std::size_t n,
                                        const BloomFrameConfig& cfg,
                                        const Channel& channel,
                                        util::Xoshiro256ss& rng,
                                        std::uint64_t* tx_count = nullptr) {
  const std::uint64_t responses =
      ref_draw_binomial(static_cast<std::uint64_t>(n) * cfg.k, cfg.p, rng);
  std::vector<std::uint32_t> counts(cfg.w, 0);
  for (std::uint64_t r = 0; r < responses; ++r) {
    ++counts[rng.below(cfg.w)];
  }
  if (tx_count != nullptr) *tx_count += responses;
  return ref_counts_to_busy(counts, channel, rng);
}

std::vector<SlotState> ref_run_aloha_frame(const TagPopulation& tags,
                                           std::uint32_t f, double p,
                                           std::uint64_t seed,
                                           const Channel& channel,
                                           util::Xoshiro256ss& rng) {
  std::vector<std::uint32_t> counts(f, 0);
  const hash::IdealSlotHash slot_hash(seed);
  for (const Tag& tag : tags.tags()) {
    if (p < 1.0 && !rng.bernoulli(p)) continue;
    ++counts[slot_hash.slot(tag.id, f)];
  }
  std::vector<SlotState> states(f);
  for (std::uint32_t i = 0; i < f; ++i) {
    states[i] = channel.observe(counts[i], rng);
  }
  return states;
}

std::vector<SlotState> ref_sampled_aloha_frame(std::size_t n, std::uint32_t f,
                                               double p,
                                               const Channel& channel,
                                               util::Xoshiro256ss& rng) {
  const std::uint64_t responders = ref_draw_binomial(n, p, rng);
  std::vector<std::uint32_t> counts(f, 0);
  for (std::uint64_t r = 0; r < responders; ++r) {
    ++counts[rng.below(f)];
  }
  std::vector<SlotState> states(f);
  for (std::uint32_t i = 0; i < f; ++i) {
    states[i] = channel.observe(counts[i], rng);
  }
  return states;
}

SlotState ref_run_single_slot(const TagPopulation& tags, double q,
                              std::uint64_t seed, const Channel& channel,
                              util::Xoshiro256ss& rng) {
  const std::uint64_t threshold =
      q >= 1.0 ? ~0ULL
               : static_cast<std::uint64_t>(
                     q * 18446744073709551616.0 /* 2^64 */);
  std::uint32_t responders = 0;
  for (const Tag& tag : tags.tags()) {
    if (hash::mix_with_seed(tag.id, seed) < threshold) ++responders;
  }
  return channel.observe(responders, rng);
}

SlotState ref_sampled_single_slot(std::size_t n, double q,
                                  const Channel& channel,
                                  util::Xoshiro256ss& rng) {
  const std::uint64_t responders = ref_draw_binomial(n, q, rng);
  return channel.observe(static_cast<std::uint32_t>(
                             responders > 0xFFFFFFFFULL ? 0xFFFFFFFFULL
                                                        : responders),
                         rng);
}

util::BitVector ref_run_lottery_frame(const TagPopulation& tags,
                                      std::uint32_t f, std::uint64_t seed,
                                      const Channel& channel,
                                      util::Xoshiro256ss& rng) {
  std::vector<std::uint32_t> counts(f, 0);
  const hash::GeometricSlotHash geo(seed);
  for (const Tag& tag : tags.tags()) {
    ++counts[geo.slot(tag.id, f)];
  }
  return ref_counts_to_busy(counts, channel, rng);
}

util::BitVector ref_sampled_lottery_frame(std::size_t n, std::uint32_t f,
                                          const Channel& channel,
                                          util::Xoshiro256ss& rng) {
  std::vector<std::uint32_t> counts(f, 0);
  std::uint64_t remaining = n;
  double mass_remaining = 1.0;
  for (std::uint32_t j = 0; j + 1 < f && remaining > 0; ++j) {
    const double pj = std::ldexp(1.0, -static_cast<int>(j) - 1);
    const double cond = pj / mass_remaining;
    const std::uint64_t c =
        ref_draw_binomial(remaining, cond > 1.0 ? 1.0 : cond, rng);
    counts[j] = static_cast<std::uint32_t>(c > 0xFFFFFFFFULL ? 0xFFFFFFFFULL
                                                             : c);
    remaining -= c;
    mass_remaining -= pj;
    if (mass_remaining <= 0.0) break;
  }
  counts[f - 1] += static_cast<std::uint32_t>(
      remaining > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : remaining);
  return ref_counts_to_busy(counts, channel, rng);
}

// ---- helpers ----------------------------------------------------------

TagPopulation test_pop(std::size_t n, std::uint64_t seed = 1) {
  return make_population(n, TagIdDistribution::kT1Uniform, seed);
}

BloomFrameConfig bloom_cfg(hash::PersistenceMode mode,
                           std::uint32_t p_n = 256, std::uint32_t w = 512) {
  BloomFrameConfig cfg;
  cfg.w = w;
  cfg.set_p_numerator(p_n);
  cfg.persistence = mode;
  cfg.seeds = {11, 22, 33};
  return cfg;
}

/// Asserts a == b and that both generators are in the same state.
void expect_same_rng(util::Xoshiro256ss& a, util::Xoshiro256ss& b) {
  EXPECT_EQ(a(), b()) << "RNG streams diverged";
}

// ---- execute() vs the pre-refactor executors (bit-identical) ----------

TEST(FrameEngineExact, BloomBitIdenticalAllPersistenceModes) {
  const TagPopulation pop = test_pop(3000);
  const Channel ch;
  for (const auto mode :
       {hash::PersistenceMode::kIdealBernoulli,
        hash::PersistenceMode::kSharedDraw, hash::PersistenceMode::kRnBits}) {
    const auto cfg = bloom_cfg(mode);
    util::Xoshiro256ss ref_rng(42);
    util::Xoshiro256ss eng_rng(42);
    std::uint64_t ref_tx = 0;
    const util::BitVector ref =
        ref_run_bloom_frame(pop, cfg, ch, ref_rng, &ref_tx);
    FrameEngine engine(pop, ch, FrameMode::kExact);
    const FrameResult res =
        engine.execute(FrameRequest::bloom(cfg), eng_rng);
    EXPECT_EQ(ref.words(), res.busy.words());
    EXPECT_EQ(ref_tx, res.tx);
    expect_same_rng(ref_rng, eng_rng);
  }
}

TEST(FrameEngineExact, BloomBitIdenticalLightweightHash) {
  const TagPopulation pop = test_pop(2000);
  const Channel ch;
  auto cfg = bloom_cfg(hash::PersistenceMode::kRnBits);
  cfg.hash = HashScheme::kLightweight;
  util::Xoshiro256ss ref_rng(7);
  util::Xoshiro256ss eng_rng(7);
  const util::BitVector ref = ref_run_bloom_frame(pop, cfg, ch, ref_rng);
  FrameEngine engine(pop, ch, FrameMode::kExact);
  const FrameResult res = engine.execute(FrameRequest::bloom(cfg), eng_rng);
  EXPECT_EQ(ref.words(), res.busy.words());
  expect_same_rng(ref_rng, eng_rng);
}

TEST(FrameEngineExact, AlohaSingleLotteryBitIdentical) {
  const TagPopulation pop = test_pop(3000);
  const Channel ch;
  util::Xoshiro256ss ref_rng(9);
  util::Xoshiro256ss eng_rng(9);
  FrameEngine engine(pop, ch, FrameMode::kExact);

  const auto ref_states = ref_run_aloha_frame(pop, 128, 0.4, 77, ch, ref_rng);
  const FrameResult aloha =
      engine.execute(FrameRequest::aloha(128, 0.4, 77), eng_rng);
  EXPECT_EQ(ref_states, aloha.states);

  const SlotState ref_single =
      ref_run_single_slot(pop, 0.001, 55, ch, ref_rng);
  const FrameResult single =
      engine.execute(FrameRequest::single_slot(0.001, 55), eng_rng);
  EXPECT_EQ(ref_single, single.single);

  const util::BitVector ref_busy =
      ref_run_lottery_frame(pop, 32, 66, ch, ref_rng);
  const FrameResult lottery =
      engine.execute(FrameRequest::lottery(32, 66), eng_rng);
  EXPECT_EQ(ref_busy.words(), lottery.busy.words());

  expect_same_rng(ref_rng, eng_rng);
}

TEST(FrameEngineSampled, AllShapesBitIdentical) {
  const std::size_t n = 50000;
  const Channel ch;
  util::Xoshiro256ss ref_rng(13);
  util::Xoshiro256ss eng_rng(13);
  FrameEngine engine(n, ch);

  const auto cfg = bloom_cfg(hash::PersistenceMode::kIdealBernoulli);
  const util::BitVector ref_bloom =
      ref_sampled_bloom_frame(n, cfg, ch, ref_rng);
  EXPECT_EQ(ref_bloom.words(),
            engine.execute(FrameRequest::bloom(cfg), eng_rng).busy.words());

  const auto ref_states = ref_sampled_aloha_frame(n, 256, 0.01, ch, ref_rng);
  EXPECT_EQ(ref_states,
            engine.execute(FrameRequest::aloha(256, 0.01, 0), eng_rng).states);

  const SlotState ref_single = ref_sampled_single_slot(n, 3e-5, ch, ref_rng);
  EXPECT_EQ(ref_single,
            engine.execute(FrameRequest::single_slot(3e-5, 0), eng_rng).single);

  const util::BitVector ref_lottery =
      ref_sampled_lottery_frame(n, 32, ch, ref_rng);
  EXPECT_EQ(
      ref_lottery.words(),
      engine.execute(FrameRequest::lottery(32, 0), eng_rng).busy.words());

  expect_same_rng(ref_rng, eng_rng);
}

// ---- execute_batch ----------------------------------------------------

std::vector<FrameRequest> bloom_batch(hash::PersistenceMode mode,
                                      std::size_t frames,
                                      std::uint64_t seed_base) {
  std::vector<FrameRequest> batch;
  for (std::size_t i = 0; i < frames; ++i) {
    auto cfg = bloom_cfg(mode);
    cfg.seeds = {seed_base + 3 * i, seed_base + 3 * i + 1,
                 seed_base + 3 * i + 2};
    batch.push_back(FrameRequest::bloom(cfg));
  }
  return batch;
}

// A sequential batch is execute() over the requests in order, so an
// all-Bloom batch is bit-identical to issuing its frames one at a time in
// every persistence mode — including with an imperfect channel, whose
// draws stay frame-major on both paths.
TEST(FrameEngineBatch, BloomBatchBitIdenticalToSequential) {
  const TagPopulation pop = test_pop(3000);
  for (const auto mode :
       {hash::PersistenceMode::kIdealBernoulli,
        hash::PersistenceMode::kSharedDraw, hash::PersistenceMode::kRnBits}) {
    for (const Channel ch :
         {Channel{}, Channel{ChannelModel{0.05, 0.02}}}) {
      const auto batch = bloom_batch(mode, 8, 100);
      FrameEngine batched(pop, ch, FrameMode::kExact);
      FrameEngine sequential(pop, ch, FrameMode::kExact);
      util::Xoshiro256ss batch_rng(3);
      util::Xoshiro256ss seq_rng(3);
      const auto batch_res = batched.execute_batch(batch, batch_rng);
      std::vector<FrameResult> seq_res;
      for (const FrameRequest& r : batch) {
        seq_res.push_back(sequential.execute(r, seq_rng));
      }
      ASSERT_EQ(batch_res.size(), seq_res.size());
      for (std::size_t i = 0; i < batch_res.size(); ++i) {
        EXPECT_EQ(batch_res[i].busy.words(), seq_res[i].busy.words())
            << "mode " << static_cast<int>(mode) << " frame " << i;
        EXPECT_EQ(batch_res[i].tx, seq_res[i].tx);
      }
      expect_same_rng(batch_rng, seq_rng);
      EXPECT_EQ(batched.counters().batches, 1u);
    }
  }
}

// A batch that mixes shapes runs frame by frame as well, in both modes:
// bit-identical to sequential execution, RNG stream included.
TEST(FrameEngineBatch, MixedShapesFallBackToSequential) {
  const TagPopulation pop = test_pop(2000);
  const Channel ch;
  std::vector<FrameRequest> batch;
  batch.push_back(
      FrameRequest::bloom(bloom_cfg(hash::PersistenceMode::kIdealBernoulli)));
  batch.push_back(FrameRequest::aloha(64, 0.5, 3));
  batch.push_back(FrameRequest::single_slot(0.01, 4));
  batch.push_back(FrameRequest::lottery(32, 5));

  for (const FrameMode mode : {FrameMode::kExact, FrameMode::kSampled}) {
    FrameEngine batched(pop, ch, mode);
    FrameEngine sequential(pop, ch, mode);
    util::Xoshiro256ss batch_rng(17);
    util::Xoshiro256ss seq_rng(17);
    const auto batch_res = batched.execute_batch(batch, batch_rng);
    std::vector<FrameResult> seq_res;
    for (const FrameRequest& r : batch) {
      seq_res.push_back(sequential.execute(r, seq_rng));
    }
    ASSERT_EQ(batch_res.size(), 4u);
    EXPECT_EQ(batch_res[0].busy.words(), seq_res[0].busy.words());
    EXPECT_EQ(batch_res[1].states, seq_res[1].states);
    EXPECT_EQ(batch_res[2].single, seq_res[2].single);
    EXPECT_EQ(batch_res[3].busy.words(), seq_res[3].busy.words());
    expect_same_rng(batch_rng, seq_rng);
    EXPECT_EQ(batched.counters().batches, 1u);
  }
}

// ---- sharded execution (ExecutionPolicy) ------------------------------

/// Sharded policy with the size floor disabled so small test populations
/// actually split into the requested number of shards.
ExecutionPolicy sharded_policy(std::uint32_t shards) {
  ExecutionPolicy policy = ExecutionPolicy::sharded(shards);
  policy.min_tags_per_shard = 1;
  return policy;
}

// The headline determinism promise: the sharded walk is a pure function
// of the seed — bit-identical busy maps, transmission counts, and RNG
// stream position for ANY shard count, across every persistence mode
// and with an imperfect channel in the loop.
TEST(FrameEngineSharded, BitIdenticalForAnyShardCount) {
  const TagPopulation pop = test_pop(3000);
  for (const Channel ch : {Channel{}, Channel{ChannelModel{0.05, 0.02}}}) {
    for (const auto mode : {hash::PersistenceMode::kIdealBernoulli,
                            hash::PersistenceMode::kSharedDraw,
                            hash::PersistenceMode::kRnBits}) {
      const auto batch = bloom_batch(mode, 4, 300);
      for (const std::uint32_t shards : {4u, 8u}) {
        FrameEngine one(pop, ch, FrameMode::kExact, sharded_policy(1));
        FrameEngine many(pop, ch, FrameMode::kExact,
                         sharded_policy(shards));
        util::Xoshiro256ss one_rng(11);
        util::Xoshiro256ss many_rng(11);
        const auto ref = one.execute_batch(batch, one_rng);
        const auto res = many.execute_batch(batch, many_rng);
        ASSERT_EQ(res.size(), ref.size());
        for (std::size_t i = 0; i < res.size(); ++i) {
          EXPECT_EQ(ref[i].busy.words(), res[i].busy.words())
              << "mode " << static_cast<int>(mode) << " shards " << shards
              << " frame " << i;
          EXPECT_EQ(ref[i].tx, res[i].tx);
        }
        expect_same_rng(one_rng, many_rng);
      }
    }
  }
}

// kRnBits tag decisions draw no RNG on either walk and the channel
// replay preserves the sequential draw order, so the sharded path is
// bit-identical to the plain sequential engine — RNG stream included.
TEST(FrameEngineSharded, RnBitsMatchesSequentialEngineExactly) {
  const TagPopulation pop = test_pop(3000);
  for (const Channel ch : {Channel{}, Channel{ChannelModel{0.05, 0.02}}}) {
    const auto cfg = bloom_cfg(hash::PersistenceMode::kRnBits);
    FrameEngine seq(pop, ch, FrameMode::kExact);
    FrameEngine shd(pop, ch, FrameMode::kExact, sharded_policy(4));
    util::Xoshiro256ss seq_rng(5);
    util::Xoshiro256ss shd_rng(5);
    const FrameResult a = seq.execute(FrameRequest::bloom(cfg), seq_rng);
    const FrameResult b = shd.execute(FrameRequest::bloom(cfg), shd_rng);
    EXPECT_EQ(a.busy.words(), b.busy.words());
    EXPECT_EQ(a.tx, b.tx);
    expect_same_rng(seq_rng, shd_rng);
    EXPECT_EQ(shd.counters().sharded_walks, 1u);
  }
}

// Flipping allow_simd must not change a single bit: the AVX-512 kernel
// and the scalar kernel emit the same decisions in the same order.
TEST(FrameEngineSharded, SimdAndScalarBitIdentical) {
  const TagPopulation pop = test_pop(5000);
  const Channel ch;
  const auto batch =
      bloom_batch(hash::PersistenceMode::kIdealBernoulli, 4, 700);
  ExecutionPolicy simd = sharded_policy(4);
  ExecutionPolicy scalar = sharded_policy(4);
  scalar.allow_simd = false;
  FrameEngine a(pop, ch, FrameMode::kExact, simd);
  FrameEngine b(pop, ch, FrameMode::kExact, scalar);
  util::Xoshiro256ss a_rng(23);
  util::Xoshiro256ss b_rng(23);
  const auto ra = a.execute_batch(batch, a_rng);
  const auto rb = b.execute_batch(batch, b_rng);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].busy.words(), rb[i].busy.words());
    EXPECT_EQ(ra[i].tx, rb[i].tx);
  }
  expect_same_rng(a_rng, b_rng);
}

// Direct kernel check: vector and scalar decision tiles agree on count
// and content for awkward spans (sub-vector tails, tiny tiles, extreme
// thresholds, every lane-mask width).
TEST(FrameEngineSharded, DecideTileSimdMatchesScalar) {
  if (!detail::simd_supported()) {
    GTEST_SKIP() << "AVX-512 kernel not available on this host";
  }
  std::vector<std::uint16_t> va(detail::kShardLaneCapacity);
  std::vector<std::uint16_t> vb(detail::kShardLaneCapacity);
  const std::uint64_t base = 0x0123456789ABCDEFULL;
  const std::size_t spans[][2] = {
      {0, 1},    {0, 7},     {0, 8},         {0, 4096},
      {5, 4093}, {100, 163}, {70000, 74096},
  };
  for (const auto& span : spans) {
    for (const std::uint32_t thr : {1u, 4096u, 16384u, 65535u}) {
      for (std::uint32_t k = 1; k <= 4; ++k) {
        const std::uint32_t mask = detail::lane_mask_for(k);
        const std::size_t na = detail::bloom_decide_tile(
            base, span[0], span[1], thr, mask, true, va.data());
        const std::size_t nb = detail::bloom_decide_tile(
            base, span[0], span[1], thr, mask, false, vb.data());
        ASSERT_EQ(na, nb) << "span [" << span[0] << ", " << span[1]
                          << ") thr " << thr << " k " << k;
        for (std::size_t i = 0; i < na; ++i) {
          ASSERT_EQ(va[i], vb[i]) << "lane " << i;
        }
      }
    }
  }
}

TEST(Packed16Threshold, GridAndSentinel) {
  EXPECT_EQ(detail::packed16_threshold(0.0), 0u);
  EXPECT_EQ(detail::packed16_threshold(1.0), 65536u);
  // The paper's 1/1024 persistence grid is always on the 1/65536 grid.
  EXPECT_EQ(detail::packed16_threshold(64.0 / 1024.0), 4096u);
  EXPECT_EQ(detail::packed16_threshold(1.0 / 65536.0), 1u);
  EXPECT_EQ(detail::packed16_threshold(0.3), detail::kNoPack16);
}

// Frames the packed kernel cannot take — p off the 1/65536 grid, k > 4,
// and the p = 1 fast path — still honour shard-count invariance.
TEST(FrameEngineSharded, EdgeCaseFramesShardInvariant) {
  const TagPopulation pop = test_pop(3000);
  const Channel ch;

  auto off_grid = bloom_cfg(hash::PersistenceMode::kIdealBernoulli);
  off_grid.p = 0.3;  // not representable as x/65536
  auto wide = bloom_cfg(hash::PersistenceMode::kIdealBernoulli);
  wide.k = 5;
  wide.seeds = {11, 22, 33, 44, 55};
  auto certain = bloom_cfg(hash::PersistenceMode::kIdealBernoulli,
                           1024 /* p = 1 */);

  std::vector<FrameRequest> batch;
  batch.push_back(FrameRequest::bloom(off_grid));
  batch.push_back(FrameRequest::bloom(wide));
  batch.push_back(FrameRequest::bloom(certain));

  for (const std::uint32_t shards : {4u, 8u}) {
    FrameEngine one(pop, ch, FrameMode::kExact, sharded_policy(1));
    FrameEngine many(pop, ch, FrameMode::kExact, sharded_policy(shards));
    util::Xoshiro256ss one_rng(31);
    util::Xoshiro256ss many_rng(31);
    const auto ref = one.execute_batch(batch, one_rng);
    const auto res = many.execute_batch(batch, many_rng);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].busy.words(), res[i].busy.words()) << "frame " << i;
      EXPECT_EQ(ref[i].tx, res[i].tx);
    }
    expect_same_rng(one_rng, many_rng);
    // p = 1: all 3000 tags answer in all k slots, on every walk.
    EXPECT_EQ(res[2].tx, 3000u * certain.k);
  }
}

// A sharded batch under a perfect channel is bit-identical to issuing
// the same frames one at a time on a sharded engine: each stochastic
// frame consumes exactly one draw, in request order, on both paths.
TEST(FrameEngineSharded, BatchMatchesPerFrameShardedPerfectChannel) {
  const TagPopulation pop = test_pop(2500);
  const Channel ch;
  const auto batch =
      bloom_batch(hash::PersistenceMode::kIdealBernoulli, 4, 900);
  FrameEngine batched(pop, ch, FrameMode::kExact, sharded_policy(4));
  FrameEngine single(pop, ch, FrameMode::kExact, sharded_policy(4));
  util::Xoshiro256ss batch_rng(41);
  util::Xoshiro256ss single_rng(41);
  const auto batch_res = batched.execute_batch(batch, batch_rng);
  std::vector<FrameResult> single_res;
  for (const FrameRequest& r : batch) {
    single_res.push_back(single.execute(r, single_rng));
  }
  for (std::size_t i = 0; i < batch_res.size(); ++i) {
    EXPECT_EQ(batch_res[i].busy.words(), single_res[i].busy.words());
    EXPECT_EQ(batch_res[i].tx, single_res[i].tx);
  }
  expect_same_rng(batch_rng, single_rng);
}

// The stochastic modes repack the tag-side draws into counter-addressed
// streams, so sharded-vs-sequential promises the same law, not the same
// bits: two-sample KS on per-frame busy counts.
TEST(FrameEngineSharded, StochasticModesMatchSequentialLaw) {
  const TagPopulation pop = test_pop(1500);
  const Channel ch;
  for (const auto mode : {hash::PersistenceMode::kIdealBernoulli,
                          hash::PersistenceMode::kSharedDraw}) {
    std::vector<double> sharded_counts;
    std::vector<double> sequential_counts;
    for (std::uint64_t trial = 0; trial < 120; ++trial) {
      const auto batch = bloom_batch(mode, 4, 2000 + 97 * trial);
      FrameEngine sharded(pop, ch, FrameMode::kExact, sharded_policy(4));
      util::Xoshiro256ss shd_rng(700 + trial);
      for (const FrameResult& r : sharded.execute_batch(batch, shd_rng)) {
        sharded_counts.push_back(static_cast<double>(r.busy.count_ones()));
      }
      FrameEngine sequential(pop, ch, FrameMode::kExact);
      util::Xoshiro256ss seq_rng(9500 + trial);
      for (const FrameRequest& r : batch) {
        sequential_counts.push_back(static_cast<double>(
            sequential.execute(r, seq_rng).busy.count_ones()));
      }
    }
    const double d = math::ks_statistic(sharded_counts, sequential_counts);
    const double p =
        math::ks_pvalue(d, sharded_counts.size(), sequential_counts.size());
    EXPECT_GT(p, 1e-3) << "mode " << static_cast<int>(mode)
                       << ": KS D=" << d;
  }
}

TEST(FrameEngineSharded, CountsShardedWalks) {
  const TagPopulation pop = test_pop(2000);
  const Channel ch;
  FrameEngine engine(pop, ch, FrameMode::kExact, sharded_policy(4));
  util::Xoshiro256ss rng(1);
  const auto cfg = bloom_cfg(hash::PersistenceMode::kRnBits);
  engine.execute(FrameRequest::bloom(cfg), rng);
  EXPECT_EQ(engine.counters().sharded_walks, 1u);
  engine.execute_batch(bloom_batch(hash::PersistenceMode::kRnBits, 4, 50),
                       rng);
  EXPECT_EQ(engine.counters().sharded_walks, 2u);
  EXPECT_EQ(engine.counters().batches, 1u);

  engine.set_policy(ExecutionPolicy::sequential());
  engine.execute(FrameRequest::bloom(cfg), rng);
  EXPECT_EQ(engine.counters().sharded_walks, 2u);

  EngineCounters sum;
  sum += engine.counters();
  sum += engine.counters();
  EXPECT_EQ(sum.sharded_walks, 4u);
}

// ---- sharded execution: non-Bloom shapes ------------------------------

std::size_t busy_states(const std::vector<SlotState>& states) {
  std::size_t n = 0;
  for (const SlotState s : states) {
    if (is_busy(s)) ++n;
  }
  return n;
}

// Shapes whose tag-side decisions draw no RNG — p = 1 ALOHA, single-slot,
// lottery — must come out of the sharded walk bit-identical to the plain
// sequential engine, RNG stream position included, under both channels.
TEST(FrameEngineShardedShapes, NoDrawShapesMatchSequentialExactly) {
  const TagPopulation pop = test_pop(3000);
  for (const Channel ch : {Channel{}, Channel{ChannelModel{0.05, 0.02}}}) {
    FrameEngine seq(pop, ch, FrameMode::kExact);
    FrameEngine shd(pop, ch, FrameMode::kExact, sharded_policy(4));
    util::Xoshiro256ss seq_rng(19);
    util::Xoshiro256ss shd_rng(19);

    const FrameResult a1 =
        seq.execute(FrameRequest::aloha(128, 1.0, 77), seq_rng);
    const FrameResult a2 =
        shd.execute(FrameRequest::aloha(128, 1.0, 77), shd_rng);
    EXPECT_EQ(a1.states, a2.states);
    EXPECT_EQ(a1.tx, a2.tx);

    const FrameResult s1 =
        seq.execute(FrameRequest::single_slot(0.001, 55), seq_rng);
    const FrameResult s2 =
        shd.execute(FrameRequest::single_slot(0.001, 55), shd_rng);
    EXPECT_EQ(s1.single, s2.single);
    EXPECT_EQ(s1.tx, s2.tx);

    const FrameResult l1 =
        seq.execute(FrameRequest::lottery(32, 66), seq_rng);
    const FrameResult l2 =
        shd.execute(FrameRequest::lottery(32, 66), shd_rng);
    EXPECT_EQ(l1.busy.words(), l2.busy.words());
    EXPECT_EQ(l1.tx, l2.tx);

    expect_same_rng(seq_rng, shd_rng);
    EXPECT_EQ(shd.counters().sharded_walks, 3u);
  }
}

// Every non-Bloom shape — including stochastic-persistence ALOHA — is a
// pure function of the seed under the sharded walk: bit-identical
// results and caller-RNG stream position for 1, 4 and 8 shards, with
// both a perfect and an imperfect channel in the loop.
TEST(FrameEngineShardedShapes, ShardCountInvariance) {
  const TagPopulation pop = test_pop(3000);
  std::vector<FrameRequest> batch;
  batch.push_back(FrameRequest::aloha(128, 0.4, 81));
  batch.push_back(FrameRequest::aloha(64, 1.0, 82));
  batch.push_back(FrameRequest::single_slot(0.01, 83));
  batch.push_back(FrameRequest::lottery(32, 84));
  for (const Channel ch : {Channel{}, Channel{ChannelModel{0.05, 0.02}}}) {
    for (const std::uint32_t shards : {4u, 8u}) {
      FrameEngine one(pop, ch, FrameMode::kExact, sharded_policy(1));
      FrameEngine many(pop, ch, FrameMode::kExact, sharded_policy(shards));
      util::Xoshiro256ss one_rng(29);
      util::Xoshiro256ss many_rng(29);
      const auto ref = one.execute_batch(batch, one_rng);
      const auto res = many.execute_batch(batch, many_rng);
      ASSERT_EQ(res.size(), ref.size());
      for (std::size_t i = 0; i < res.size(); ++i) {
        EXPECT_EQ(ref[i].states, res[i].states) << "frame " << i;
        EXPECT_EQ(ref[i].busy.words(), res[i].busy.words()) << "frame " << i;
        EXPECT_EQ(ref[i].single, res[i].single) << "frame " << i;
        EXPECT_EQ(ref[i].tx, res[i].tx) << "frame " << i;
      }
      expect_same_rng(one_rng, many_rng);
    }
  }
}

// Stochastic-persistence ALOHA (p < 1) repacks its per-tag draws into the
// counter-addressed stream, so sharded-vs-sequential promises the same
// law: two-sample KS on per-frame busy-slot counts.
TEST(FrameEngineShardedShapes, AlohaStochasticMatchesSequentialLaw) {
  const TagPopulation pop = test_pop(1500);
  const Channel ch;
  std::vector<double> sharded_counts;
  std::vector<double> sequential_counts;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    FrameEngine sharded(pop, ch, FrameMode::kExact, sharded_policy(4));
    util::Xoshiro256ss shd_rng(1200 + trial);
    sharded_counts.push_back(static_cast<double>(busy_states(
        sharded.execute(FrameRequest::aloha(128, 0.35, 10 + trial), shd_rng)
            .states)));
    FrameEngine sequential(pop, ch, FrameMode::kExact);
    util::Xoshiro256ss seq_rng(8200 + trial);
    sequential_counts.push_back(static_cast<double>(busy_states(
        sequential.execute(FrameRequest::aloha(128, 0.35, 10 + trial), seq_rng)
            .states)));
  }
  const double d = math::ks_statistic(sharded_counts, sequential_counts);
  const double p =
      math::ks_pvalue(d, sharded_counts.size(), sequential_counts.size());
  EXPECT_GT(p, 1e-3) << "KS D=" << d;
}

// ---- the batched sampler (sampled mode, sharded policy) ---------------

std::vector<FrameRequest> sampled_mix_batch(std::uint64_t seed_base) {
  std::vector<FrameRequest> batch;
  auto cfg = bloom_cfg(hash::PersistenceMode::kIdealBernoulli);
  cfg.seeds = {seed_base, seed_base + 1, seed_base + 2};
  batch.push_back(FrameRequest::bloom(cfg));
  batch.push_back(FrameRequest::aloha(256, 0.01, seed_base + 3));
  batch.push_back(FrameRequest::single_slot(3e-5, seed_base + 4));
  batch.push_back(FrameRequest::lottery(32, seed_base + 5));
  return batch;
}

// The batched sampler is a pure function of the seed: bit-identical
// results and caller-RNG position for 1/4/8 shards and with the SIMD
// scatter kernel on or off, under both channels.
TEST(FrameEngineSampledSharded, ShardCountAndSimdInvariance) {
  const std::size_t n = 200000;
  const auto batch = sampled_mix_batch(400);
  for (const Channel ch : {Channel{}, Channel{ChannelModel{0.05, 0.02}}}) {
    FrameEngine one(n, ch);
    one.set_policy(sharded_policy(1));
    util::Xoshiro256ss one_rng(37);
    const auto ref = one.execute_batch(batch, one_rng);
    for (const std::uint32_t shards : {4u, 8u}) {
      for (const bool simd : {true, false}) {
        FrameEngine many(n, ch);
        ExecutionPolicy policy = sharded_policy(shards);
        policy.allow_simd = simd;
        many.set_policy(policy);
        util::Xoshiro256ss many_rng(37);
        const auto res = many.execute_batch(batch, many_rng);
        ASSERT_EQ(res.size(), ref.size());
        for (std::size_t i = 0; i < res.size(); ++i) {
          EXPECT_EQ(ref[i].busy.words(), res[i].busy.words())
              << "shards " << shards << " simd " << simd << " frame " << i;
          EXPECT_EQ(ref[i].states, res[i].states) << "frame " << i;
          EXPECT_EQ(ref[i].single, res[i].single) << "frame " << i;
          EXPECT_EQ(ref[i].tx, res[i].tx) << "frame " << i;
        }
        util::Xoshiro256ss probe(37);
        one.execute_batch(batch, probe);  // advance a twin stream
        expect_same_rng(probe, many_rng);
      }
    }
  }
}

// Single-slot and lottery draw no scatter stream — the sampler makes the
// exact same caller-RNG draws in the same order as the legacy sampled
// executors, so a single-frame request is bit-identical, RNG included.
TEST(FrameEngineSampledSharded, NonScatterShapesBitIdenticalToLegacy) {
  const std::size_t n = 50000;
  for (const Channel ch : {Channel{}, Channel{ChannelModel{0.05, 0.02}}}) {
    util::Xoshiro256ss ref_rng(43);
    util::Xoshiro256ss eng_rng(43);
    FrameEngine engine(n, ch);
    engine.set_policy(sharded_policy(4));

    const SlotState ref_single = ref_sampled_single_slot(n, 3e-5, ch, ref_rng);
    EXPECT_EQ(ref_single,
              engine.execute(FrameRequest::single_slot(3e-5, 0), eng_rng)
                  .single);

    const util::BitVector ref_lottery =
        ref_sampled_lottery_frame(n, 32, ch, ref_rng);
    EXPECT_EQ(ref_lottery.words(),
              engine.execute(FrameRequest::lottery(32, 0), eng_rng)
                  .busy.words());

    expect_same_rng(ref_rng, eng_rng);
    EXPECT_EQ(engine.counters().sampled_batches, 2u);
  }
}

// Bloom and ALOHA responses scatter through the counter-addressed stream
// instead of rng.below(), so the sampler promises the legacy law, not
// the legacy bits: two-sample KS on per-frame busy counts.
TEST(FrameEngineSampledSharded, ScatterShapesMatchLegacyLaw) {
  const std::size_t n = 20000;
  const Channel ch;
  // p = 4/1024: ~234 responses over 512 slots — well short of
  // saturation, so the busy counts actually vary trial to trial.
  const auto cfg = bloom_cfg(hash::PersistenceMode::kIdealBernoulli, 4);
  std::vector<double> sampler_bloom, legacy_bloom;
  std::vector<double> sampler_aloha, legacy_aloha;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    FrameEngine engine(n, ch);
    engine.set_policy(sharded_policy(4));
    util::Xoshiro256ss eng_rng(2200 + trial);
    sampler_bloom.push_back(static_cast<double>(
        engine.execute(FrameRequest::bloom(cfg), eng_rng)
            .busy.count_ones()));
    sampler_aloha.push_back(static_cast<double>(busy_states(
        engine.execute(FrameRequest::aloha(256, 0.01, 0), eng_rng)
            .states)));
    util::Xoshiro256ss ref_rng(7200 + trial);
    legacy_bloom.push_back(static_cast<double>(
        ref_sampled_bloom_frame(n, cfg, ch, ref_rng).count_ones()));
    legacy_aloha.push_back(static_cast<double>(
        busy_states(ref_sampled_aloha_frame(n, 256, 0.01, ch, ref_rng))));
  }
  const double db = math::ks_statistic(sampler_bloom, legacy_bloom);
  EXPECT_GT(math::ks_pvalue(db, sampler_bloom.size(), legacy_bloom.size()),
            1e-3)
      << "bloom KS D=" << db;
  const double da = math::ks_statistic(sampler_aloha, legacy_aloha);
  EXPECT_GT(math::ks_pvalue(da, sampler_aloha.size(), legacy_aloha.size()),
            1e-3)
      << "aloha KS D=" << da;
}

TEST(FrameEngineSampledSharded, CountsSampledBatches) {
  FrameEngine engine(10000, Channel{});
  engine.set_policy(sharded_policy(4));
  util::Xoshiro256ss rng(1);
  engine.execute_batch(sampled_mix_batch(600), rng);
  EXPECT_EQ(engine.counters().sampled_batches, 1u);
  EXPECT_EQ(engine.counters().sharded_walks, 1u);
  EXPECT_EQ(engine.counters().batches, 1u);
  engine.execute(FrameRequest::single_slot(0.001, 7), rng);
  EXPECT_EQ(engine.counters().sampled_batches, 2u);
  EXPECT_EQ(engine.counters().sharded_walks, 2u);

  EngineCounters sum;
  sum += engine.counters();
  sum += engine.counters();
  EXPECT_EQ(sum.sampled_batches, 4u);
}

// ---- counters ---------------------------------------------------------

TEST(FrameEngineCounters, CountFramesSlotsAndTransmissions) {
  const TagPopulation pop = test_pop(500);
  const Channel ch;
  FrameEngine engine(pop, ch, FrameMode::kExact);
  util::Xoshiro256ss rng(1);

  auto cfg = bloom_cfg(hash::PersistenceMode::kRnBits, 1024 /* p = 1 */);
  const FrameResult bloom = engine.execute(FrameRequest::bloom(cfg), rng);
  engine.execute(FrameRequest::aloha(64, 1.0, 2), rng);
  engine.execute(FrameRequest::single_slot(1.0, 3), rng);
  engine.execute(FrameRequest::lottery(32, 4), rng);

  const EngineCounters& c = engine.counters();
  EXPECT_EQ(c.of(FrameShape::kBloom).frames, 1u);
  EXPECT_EQ(c.of(FrameShape::kBloom).slots, cfg.w);
  // p = 1: every tag answers in k slots / its one ALOHA slot / the single
  // slot / its lottery slot.
  EXPECT_EQ(c.of(FrameShape::kBloom).tag_tx, bloom.tx);
  EXPECT_EQ(bloom.tx, 500u * cfg.k);
  EXPECT_EQ(c.of(FrameShape::kAloha).tag_tx, 500u);
  EXPECT_EQ(c.of(FrameShape::kSingleSlot).tag_tx, 500u);
  EXPECT_EQ(c.of(FrameShape::kSingleSlot).slots, 1u);
  EXPECT_EQ(c.of(FrameShape::kLottery).tag_tx, 500u);
  EXPECT_EQ(c.total().frames, 4u);
  EXPECT_EQ(c.total().slots, cfg.w + 64u + 1u + 32u);

  EngineCounters sum;
  sum += c;
  sum += c;
  EXPECT_EQ(sum.total().frames, 8u);
  EXPECT_EQ(sum.of(FrameShape::kBloom).tag_tx, 2u * bloom.tx);

  engine.reset_counters();
  EXPECT_EQ(engine.counters().total().frames, 0u);
}

}  // namespace
}  // namespace bfce::rfid
