#include "rfid/frame_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "hash/persistence.hpp"
#include "hash/slot_hash.hpp"
#include "rfid/frame_engine_simd.hpp"
#include "util/parallel.hpp"

namespace bfce::rfid {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Binomial draws go through util::draw_binomial, which serialises the
// lgamma-calling construction of std::binomial_distribution (glibc
// signgam data race under concurrent workers) while keeping draws
// bit-identical to the historical in-line use.
using util::draw_binomial;

std::uint64_t sum_counts(const std::uint32_t* counts, std::size_t w) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < w; ++i) total += counts[i];
  return total;
}

/// The slot choices of one Bloom frame, premixed once per frame.
struct HoistedBloomHashes {
  HoistedBloomHashes() = default;

  bool lightweight = false;
  std::array<hash::IdealSlotHash, kMaxHashes> ideal{
      hash::IdealSlotHash(0), hash::IdealSlotHash(0), hash::IdealSlotHash(0),
      hash::IdealSlotHash(0), hash::IdealSlotHash(0), hash::IdealSlotHash(0),
      hash::IdealSlotHash(0), hash::IdealSlotHash(0)};
  std::array<std::uint32_t, kMaxHashes> lw{};

  explicit HoistedBloomHashes(const BloomFrameConfig& cfg) {
    lightweight = cfg.hash == HashScheme::kLightweight;
    for (std::uint32_t j = 0; j < cfg.k; ++j) {
      if (lightweight) {
        lw[j] = static_cast<std::uint32_t>(cfg.seeds[j]);
      } else {
        ideal[j] = hash::IdealSlotHash(cfg.seeds[j]);
      }
    }
  }

  std::uint32_t slot(const Tag& tag, std::uint32_t j,
                     std::uint32_t w) const noexcept {
    return lightweight ? hash::LightweightSlotHash(lw[j]).slot(tag.rn, w)
                       : ideal[j].slot(tag.id, w);
  }
};

// ---- sharded plan/render/reduce pipeline (ExecutionPolicy::kSharded) --
//
// Every exact-mode frame shape is hoisted into one FramePlan: the slot
// geometry plus a per-tag decision rule. The render stage walks the
// population once per shard, writing shard-private word-packed planes
// (no atomics, no false sharing); the reduce stage merges the planes
// and observes through the channel on the caller's stream in request
// order. Stochastic decisions are counter-addressed by the global tag
// index, so the output is a pure function of the hoisted plan — i.e.
// bit-identical for any shard count.

/// Bitmap words for a w-slot frame, padded to a 64-byte multiple so
/// adjacent shard slices never share a cache line (the parallel walk
/// stays false-sharing-free without atomics).
std::size_t padded_words(std::uint32_t w) noexcept {
  return ((static_cast<std::size_t>(w) + 63) / 64 + 7) & ~std::size_t{7};
}

/// One frame hoisted for the sharded walk: geometry + decision rule.
/// Planes per shape — Bloom/lottery: one busy bitmap at word_offset;
/// ALOHA: an occupancy pair (plane one = "≥ 1 responder", plane two =
/// "≥ 2 responders") at word_offset/word_offset2, enough to reproduce
/// the channel's idle/single/collision categories exactly; single-slot:
/// no plane at all, the per-shard responder tally carries the state.
struct FramePlan {
  FrameShape shape = FrameShape::kBloom;
  HoistedBloomHashes hashes;            ///< Bloom slot choices
  std::size_t word_offset = 0;          ///< plane one, into a shard slice
  std::size_t word_offset2 = 0;         ///< plane two (ALOHA only)
  std::uint64_t base = 0;               ///< counter base (stochastic only)
  double p = 1.0;
  bool stochastic = false;              ///< counter-addressed decisions?
  std::uint32_t k = 0;
  std::uint32_t w = 0;                  ///< slot count (w / f / 1)
  std::uint32_t p_n = 0;
  std::uint32_t threshold16 = 0;
  std::uint32_t lane_mask = 0;          ///< nonzero ⇔ packed kernel applies
  std::array<std::uint32_t, kMaxHashes> seeds32{};
  hash::PersistenceMode persistence = hash::PersistenceMode::kRnBits;
  hash::GeometricSlotHash geo_hash{0};  ///< lottery slot choice
  std::uint64_t premixed = 0;           ///< ALOHA slot / single-slot hash seed
  std::uint64_t threshold64 = 0;        ///< single-slot participation bar
};

/// Plane words this plan needs per shard slice.
std::size_t plan_words(const FramePlan& fr) noexcept {
  switch (fr.shape) {
    case FrameShape::kAloha:
      return 2 * padded_words(fr.w);
    case FrameShape::kSingleSlot:
      return 0;
    default:
      return padded_words(fr.w);
  }
}

FramePlan hoist_plan(const FrameRequest& request, std::size_t word_offset,
                     util::Xoshiro256ss& rng) {
  FramePlan fr;
  fr.shape = request.shape();
  fr.word_offset = word_offset;
  switch (fr.shape) {
    case FrameShape::kBloom: {
      const auto& cfg = std::get<BloomFrameConfig>(request.config);
      assert(cfg.k >= 1 && cfg.k <= kMaxHashes);
      assert(cfg.hash != HashScheme::kLightweight ||
             (cfg.w & (cfg.w - 1)) == 0);
      fr.hashes = HoistedBloomHashes(cfg);
      fr.p = cfg.p;
      fr.k = cfg.k;
      fr.w = cfg.w;
      fr.p_n = cfg.p_n;
      fr.threshold16 = detail::packed16_threshold(cfg.p);
      fr.persistence = cfg.persistence;
      for (std::uint32_t j = 0; j < cfg.k; ++j) {
        fr.seeds32[j] = static_cast<std::uint32_t>(cfg.seeds[j]);
      }
      if (cfg.persistence == hash::PersistenceMode::kIdealBernoulli ||
          cfg.persistence == hash::PersistenceMode::kSharedDraw) {
        // One draw of the caller's stream, mixed with the frame's
        // broadcast parameters: the walk itself is then RNG-free (which
        // is what makes it shard-count invariant), repeated identical
        // configs still get independent decision streams, and everything
        // remains a pure function of the context seed.
        fr.stochastic = true;
        util::SeedMixer mix(rng());
        mix.absorb(static_cast<std::uint64_t>(cfg.w));
        mix.absorb(static_cast<std::uint64_t>(cfg.k));
        for (std::uint32_t j = 0; j < cfg.k; ++j) mix.absorb(cfg.seeds[j]);
        fr.base = mix.value();
        if (fr.threshold16 != detail::kNoPack16) {
          if (cfg.persistence == hash::PersistenceMode::kSharedDraw) {
            fr.lane_mask = detail::lane_mask_for(1);  // one decision per tag
          } else if (cfg.k <= 4) {
            fr.lane_mask = detail::lane_mask_for(cfg.k);
          }
        }
      }
      break;
    }
    case FrameShape::kAloha: {
      const auto& cfg = std::get<AlohaFrameConfig>(request.config);
      fr.w = cfg.f;
      fr.p = cfg.p;
      // The tile kernel re-derives IdealSlotHash's multiply-shift from
      // the premixed seed (it needs the raw 64-bit hash for its vector
      // reduction), so hoist the premix rather than the hasher object.
      fr.premixed = hash::premix_seed(cfg.seed);
      fr.word_offset2 = word_offset + padded_words(cfg.f);
      if (cfg.p < 1.0) {
        // Same one-draw discipline as stochastic Bloom persistence: the
        // per-tag participation draws come from a counter-addressed
        // stream, not the caller's generator.
        fr.stochastic = true;
        util::SeedMixer mix(rng());
        mix.absorb(static_cast<std::uint64_t>(cfg.f));
        mix.absorb(cfg.p);
        mix.absorb(cfg.seed);
        fr.base = mix.value();
      }
      break;
    }
    case FrameShape::kSingleSlot: {
      const auto& cfg = std::get<SingleSlotConfig>(request.config);
      fr.w = 1;
      fr.threshold64 =
          cfg.q >= 1.0 ? ~0ULL
                       : static_cast<std::uint64_t>(
                             cfg.q * 18446744073709551616.0 /* 2^64 */);
      fr.premixed = hash::premix_seed(cfg.seed);
      break;
    }
    case FrameShape::kLottery: {
      const auto& cfg = std::get<LotteryFrameConfig>(request.config);
      fr.w = cfg.f;
      fr.geo_hash = hash::GeometricSlotHash(cfg.seed);
      break;
    }
  }
  return fr;
}

/// Merged shard bitmap → busy map through the channel. The merged
/// bitmap IS the busy map under a perfect channel (it senses exactly
/// what was transmitted and draws nothing). An imperfect channel is
/// replayed slot-major on the caller's stream — the same draw order the
/// sequential path uses; observe() branches only on busy-vs-idle
/// (single and collision behave identically), so presenting the bitmap
/// as 0/2 repliers is draw-for-draw equivalent to the counts.
util::BitVector bitmap_to_busy(const Channel& channel,
                               const std::uint64_t* words, std::size_t w,
                               util::Xoshiro256ss& rng) {
  util::BitVector busy(w);
  if (channel.model().perfect()) {
    for (std::size_t wi = 0; wi < busy.word_count(); ++wi) {
      busy.set_word(wi, words[wi]);
    }
    return busy;
  }
  for (std::size_t wi = 0; wi < busy.word_count(); ++wi) {
    const std::size_t begin = wi << 6;
    const std::size_t end = std::min(w, begin + 64);
    const std::uint64_t in = words[wi];
    std::uint64_t packed = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t repliers =
          ((in >> (i - begin)) & 1ULL) != 0 ? 2U : 0U;
      if (is_busy(channel.observe(repliers, rng))) {
        packed |= 1ULL << (i - begin);
      }
    }
    busy.set_word(wi, packed);
  }
  return busy;
}

/// The sharded population walk — the render + reduce stages over
/// hoisted FramePlans of any shape mix: shard s owns the contiguous tag
/// range [s·chunk, (s+1)·chunk) and renders every frame's decisions for
/// its tags into private word-packed planes; shards then merge with
/// word-wide ORs (plus the cross-shard ≥2 term for ALOHA and responder
/// sums for single-slot). Every decision is a pure function of (frame
/// base, global tag index), so the output is bit-identical for any
/// shard count and any ISA. Returns the per-frame results in request
/// order (channel observation consumes the caller's stream frame-major,
/// exactly like the sequential paths).
std::vector<FrameResult> run_sharded_frames(
    const TagPopulation& tags, const Channel& channel,
    const std::vector<const FrameRequest*>& reqs,
    std::uint32_t shard_count, bool allow_simd, util::Xoshiro256ss& rng,
    std::vector<std::uint64_t>& shard_bits,
    std::vector<std::uint64_t>& shard_tx,
    std::vector<std::uint16_t>& lane_scratch) {
  const std::size_t m = reqs.size();
  std::vector<FramePlan> frames;
  frames.reserve(m);
  std::size_t words_stride = 0;
  for (const FrameRequest* req : reqs) {
    frames.push_back(hoist_plan(*req, words_stride, rng));
    words_stride += plan_words(frames.back());
  }

  const auto& all_tags = tags.tags();
  const std::size_t n_tags = all_tags.size();
  if (shard_count < 1) shard_count = 1;
  const std::size_t chunk = (n_tags + shard_count - 1) / shard_count;

  // Plane storage is sized but NOT zeroed here: each shard zero-fills
  // its own slice inside the parallel region, so the first touch of a
  // cold page lands on the participant that renders the shard's tag
  // range. Which thread takes shard s can change from one dispatch to
  // the next.
  const std::size_t total_words =
      static_cast<std::size_t>(shard_count) * words_stride;
  if (shard_bits.size() < total_words) shard_bits.resize(total_words);
  shard_tx.assign(static_cast<std::size_t>(shard_count) * m, 0);
  lane_scratch.resize(static_cast<std::size_t>(shard_count) *
                      detail::kShardLaneCapacity);

  util::parallel_for(
      0, shard_count,
      [&](std::size_t s) {
        const std::size_t s_begin = s * chunk;
        const std::size_t s_end = std::min(n_tags, s_begin + chunk);
        std::uint64_t* const bits = shard_bits.data() + s * words_stride;
        std::fill(bits, bits + words_stride, std::uint64_t{0});
        std::uint16_t* const lane =
            lane_scratch.data() + s * detail::kShardLaneCapacity;
        std::vector<std::uint64_t> tx(m, 0);
        for (std::size_t t0 = s_begin; t0 < s_end;
             t0 += detail::kShardTile) {
          const std::size_t t1 = std::min(s_end, t0 + detail::kShardTile);
          for (std::size_t f = 0; f < m; ++f) {
            const FramePlan& fr = frames[f];
            std::uint64_t* const fb = bits + fr.word_offset;
            const std::uint32_t k = fr.k;
            const std::uint32_t w = fr.w;
            if (fr.shape == FrameShape::kAloha) {
              // Occupancy pair: the second-or-later responder of a slot
              // raises its ≥2 bit. Participation (p < 1) is decided by
              // the counter-addressed stream, one decision per global
              // tag index; the two-plane tile kernel (AVX-512 or its
              // bit-identical scalar span) does the rendering.
              tx[f] += detail::aloha_render_tile(
                  all_tags.data(), t0, t1, fr.premixed, w, fr.stochastic,
                  fr.base, fr.p, allow_simd, fb, bits + fr.word_offset2);
            } else if (fr.shape == FrameShape::kSingleSlot) {
              // No plane: the shard's responder tally IS the state.
              const std::uint64_t bar = fr.threshold64;
              const std::uint64_t premixed = fr.premixed;
              std::uint64_t responders = 0;
              for (std::size_t t = t0; t < t1; ++t) {
                if (hash::fmix64(all_tags[t].id ^ premixed) < bar) {
                  ++responders;
                }
              }
              tx[f] += responders;
            } else if (fr.shape == FrameShape::kLottery) {
              for (std::size_t t = t0; t < t1; ++t) {
                const std::uint32_t slot =
                    fr.geo_hash.slot(all_tags[t].id, w);
                fb[slot >> 6] |= 1ULL << (slot & 63U);
              }
              tx[f] += t1 - t0;  // every tag transmits in a lottery frame
            } else if (fr.lane_mask != 0) {
              // Packed kernel: dense responder lane ids, one
              // well-predicted drain loop.
              const std::size_t nresp = detail::bloom_decide_tile(
                  fr.base, t0, t1, fr.threshold16, fr.lane_mask, allow_simd,
                  lane);
              if (fr.persistence == hash::PersistenceMode::kSharedDraw) {
                for (std::size_t i = 0; i < nresp; ++i) {
                  const Tag& tag = all_tags[t0 + (lane[i] >> 2)];
                  for (std::uint32_t j = 0; j < k; ++j) {
                    const std::uint32_t slot = fr.hashes.slot(tag, j, w);
                    fb[slot >> 6] |= 1ULL << (slot & 63U);
                  }
                }
                tx[f] += nresp * k;
              } else {
                for (std::size_t i = 0; i < nresp; ++i) {
                  const std::uint32_t id = lane[i];
                  const Tag& tag = all_tags[t0 + (id >> 2)];
                  const std::uint32_t slot =
                      fr.hashes.slot(tag, id & 3U, w);
                  fb[slot >> 6] |= 1ULL << (slot & 63U);
                }
                tx[f] += nresp;
              }
            } else {
              switch (fr.persistence) {
                case hash::PersistenceMode::kIdealBernoulli:
                  // Off the 1/65536 grid (or k > 4): one
                  // counter-addressed unit double per (tag, hash).
                  for (std::size_t t = t0; t < t1; ++t) {
                    const Tag& tag = all_tags[t];
                    for (std::uint32_t j = 0; j < k; ++j) {
                      const std::uint64_t z = util::splitmix_at(
                          fr.base,
                          t * static_cast<std::uint64_t>(k) + j);
                      if (static_cast<double>(z >> 11) * 0x1.0p-53 <
                          fr.p) {
                        const std::uint32_t slot =
                            fr.hashes.slot(tag, j, w);
                        fb[slot >> 6] |= 1ULL << (slot & 63U);
                        ++tx[f];
                      }
                    }
                  }
                  break;
                case hash::PersistenceMode::kSharedDraw:
                  for (std::size_t t = t0; t < t1; ++t) {
                    const std::uint64_t z = util::splitmix_at(fr.base, t);
                    if (static_cast<double>(z >> 11) * 0x1.0p-53 < fr.p) {
                      const Tag& tag = all_tags[t];
                      for (std::uint32_t j = 0; j < k; ++j) {
                        const std::uint32_t slot =
                            fr.hashes.slot(tag, j, w);
                        fb[slot >> 6] |= 1ULL << (slot & 63U);
                      }
                      tx[f] += k;
                    }
                  }
                  break;
                case hash::PersistenceMode::kRnBits:
                  // Deterministic tag-side decisions: no RNG on any
                  // walk, so this stays bit-identical to the
                  // sequential executor as well.
                  for (std::size_t t = t0; t < t1; ++t) {
                    const Tag& tag = all_tags[t];
                    for (std::uint32_t j = 0; j < k; ++j) {
                      const std::uint32_t slot = fr.hashes.slot(tag, j, w);
                      if (hash::rn_bits_respond(tag.rn, slot,
                                                fr.seeds32[j], fr.p_n)) {
                        fb[slot >> 6] |= 1ULL << (slot & 63U);
                        ++tx[f];
                      }
                    }
                  }
                  break;
                default:
                  break;
              }
            }
          }
        }
        for (std::size_t f = 0; f < m; ++f) shard_tx[s * m + f] = tx[f];
      },
      shard_count);

  // Reduce: merge shard planes into shard 0's slice, then observe each
  // frame through the channel in request order.
  std::vector<FrameResult> results;
  results.reserve(m);
  for (std::size_t f = 0; f < m; ++f) {
    const FramePlan& fr = frames[f];
    const std::size_t words = (static_cast<std::size_t>(fr.w) + 63) / 64;
    std::uint64_t tx = 0;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      tx += shard_tx[s * m + f];
    }
    FrameResult res;
    res.shape = fr.shape;
    res.tx = tx;
    switch (fr.shape) {
      case FrameShape::kSingleSlot: {
        // The summed responder tally is the whole frame state.
        res.single = channel.observe(
            static_cast<std::uint32_t>(
                tx > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : tx),
            rng);
        break;
      }
      case FrameShape::kAloha: {
        std::uint64_t* const one = shard_bits.data() + fr.word_offset;
        std::uint64_t* const two = shard_bits.data() + fr.word_offset2;
        for (std::uint32_t s = 1; s < shard_count; ++s) {
          const std::uint64_t* const one_s =
              shard_bits.data() + s * words_stride + fr.word_offset;
          const std::uint64_t* const two_s =
              shard_bits.data() + s * words_stride + fr.word_offset2;
          for (std::size_t i = 0; i < words; ++i) {
            // A slot collides if any shard saw ≥ 2 responders, or two
            // different shards each saw ≥ 1.
            const std::uint64_t os = one_s[i];
            two[i] |= two_s[i] | (one[i] & os);
            one[i] |= os;
          }
        }
        // Slot-major observation with the exact occupancy category
        // (0 / 1 / ≥2) — draw-for-draw identical to observing the true
        // per-slot counts.
        res.states.resize(fr.w);
        for (std::uint32_t i = 0; i < fr.w; ++i) {
          const std::uint32_t category =
              ((two[i >> 6] >> (i & 63U)) & 1ULL) != 0
                  ? 2U
                  : static_cast<std::uint32_t>(
                        (one[i >> 6] >> (i & 63U)) & 1ULL);
          res.states[i] = channel.observe(category, rng);
        }
        break;
      }
      default: {  // Bloom and lottery share the one-bitmap reduce.
        std::uint64_t* const merged = shard_bits.data() + fr.word_offset;
        for (std::uint32_t s = 1; s < shard_count; ++s) {
          const std::uint64_t* const src =
              shard_bits.data() + s * words_stride + fr.word_offset;
          for (std::size_t i = 0; i < words; ++i) merged[i] |= src[i];
        }
        res.busy = bitmap_to_busy(channel, merged, fr.w, rng);
        break;
      }
    }
    results.push_back(std::move(res));
  }
  return results;
}

}  // namespace

const char* to_cstring(FrameShape shape) noexcept {
  switch (shape) {
    case FrameShape::kBloom:
      return "bloom";
    case FrameShape::kAloha:
      return "aloha";
    case FrameShape::kSingleSlot:
      return "single";
    case FrameShape::kLottery:
      return "lottery";
  }
  return "?";
}

util::BitVector FrameEngine::counts_to_busy(const std::uint32_t* counts,
                                            std::size_t w,
                                            util::Xoshiro256ss& rng) const {
  // Word-at-a-time packing: 64 slot observations accumulate in a
  // register, one store per word, instead of 64 read-modify-write
  // BitVector::set calls. The slot-major observation order (and with it
  // the channel's RNG stream) is unchanged.
  util::BitVector busy(w);
  const bool perfect = channel_.model().perfect();
  for (std::size_t wi = 0; wi < busy.word_count(); ++wi) {
    const std::size_t begin = wi << 6;
    const std::size_t end = std::min(w, begin + 64);
    std::uint64_t packed = 0;
    if (perfect) {
      // Perfect channel: busy ⇔ any replier, no RNG — branchless.
      for (std::size_t i = begin; i < end; ++i) {
        packed |= static_cast<std::uint64_t>(counts[i] != 0) << (i - begin);
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        if (is_busy(channel_.observe(counts[i], rng))) {
          packed |= 1ULL << (i - begin);
        }
      }
    }
    busy.set_word(wi, packed);
  }
  return busy;
}

FrameResult FrameEngine::execute(const FrameRequest& request,
                                 util::Xoshiro256ss& rng) {
  const bool walk_sharded = policy_.is_sharded();
  if (mode_ == FrameMode::kSampled && walk_sharded) {
    // Sharded sampled engines route every frame through the batched
    // sampler (which does its own counter accounting). A one-frame
    // batch draws the caller's stream exactly like the legacy executor
    // for the non-scatter shapes (single-slot, lottery).
    std::vector<FrameRequest> one{request};
    std::vector<FrameResult> res = execute_sampled_batch(one, rng);
    return std::move(res.front());
  }
  const auto start = Clock::now();
  FrameResult out;
  out.shape = request.shape();
  const bool sharded_exact =
      mode_ == FrameMode::kExact && walk_sharded && tags_ != nullptr;
  std::uint64_t slots = 0;
  switch (out.shape) {
    case FrameShape::kBloom: {
      const auto& cfg = std::get<BloomFrameConfig>(request.config);
      slots = cfg.w;
      if (mode_ == FrameMode::kExact) {
        if (sharded_exact) {
          exact_sharded(request, rng, out);
        } else {
          exact_bloom(cfg, rng, out);
        }
      } else {
        sampled_bloom(cfg, rng, out);
      }
      break;
    }
    case FrameShape::kAloha: {
      const auto& cfg = std::get<AlohaFrameConfig>(request.config);
      slots = cfg.f;
      if (mode_ == FrameMode::kExact) {
        if (sharded_exact) {
          exact_sharded(request, rng, out);
        } else {
          exact_aloha(cfg, rng, out);
        }
      } else {
        sampled_aloha(cfg, rng, out);
      }
      break;
    }
    case FrameShape::kSingleSlot: {
      const auto& cfg = std::get<SingleSlotConfig>(request.config);
      slots = 1;
      if (mode_ == FrameMode::kExact) {
        if (sharded_exact) {
          exact_sharded(request, rng, out);
        } else {
          exact_single(cfg, rng, out);
        }
      } else {
        sampled_single(cfg, rng, out);
      }
      break;
    }
    case FrameShape::kLottery: {
      const auto& cfg = std::get<LotteryFrameConfig>(request.config);
      slots = cfg.f;
      if (mode_ == FrameMode::kExact) {
        if (sharded_exact) {
          exact_sharded(request, rng, out);
        } else {
          exact_lottery(cfg, rng, out);
        }
      } else {
        sampled_lottery(cfg, rng, out);
      }
      break;
    }
  }
  ShapeCounters& c = counters_.of(out.shape);
  c.frames += 1;
  c.slots += slots;
  c.tag_tx += out.tx;
  c.wall_us += elapsed_us(start);
  return out;
}

std::vector<FrameResult> FrameEngine::execute_batch(
    const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng) {
  ++counters_.batches;
  if (policy_.is_sharded() && !requests.empty()) {
    // One unified pipeline per mode, any shape mix.
    if (mode_ == FrameMode::kExact && tags_ != nullptr) {
      return execute_batch_sharded(requests, rng);
    }
    if (mode_ == FrameMode::kSampled) {
      return execute_sampled_batch(requests, rng);
    }
  }
  std::vector<FrameResult> results;
  results.reserve(requests.size());
  for (const FrameRequest& r : requests) results.push_back(execute(r, rng));
  return results;
}

// ---- scalar paths (bit-identical to the pre-engine executors) ---------
//
// These are the sequential-policy executors and the law reference the
// equivalence suite tests the sharded pipeline against. Under a sharded
// policy the exact_* bodies are bypassed by the plan/render/reduce walk
// and the sampled_* bodies by the batched sampler; they remain the
// binding definition of the caller-RNG stream contract.

void FrameEngine::exact_bloom(const BloomFrameConfig& cfg,
                              util::Xoshiro256ss& rng, FrameResult& out) {
  assert(tags_ != nullptr);
  assert(cfg.k >= 1 && cfg.k <= kMaxHashes);
  assert(cfg.hash != HashScheme::kLightweight ||
         (cfg.w & (cfg.w - 1)) == 0);  // lightweight bitget needs 2^b slots
  counts_.assign(cfg.w, 0);
  const HoistedBloomHashes hashes(cfg);

  for (const Tag& tag : tags_->tags()) {
    // A tag that uses one shared persistence draw decides once per frame.
    bool shared_respond = true;
    if (cfg.persistence == hash::PersistenceMode::kSharedDraw) {
      shared_respond = rng.bernoulli(cfg.p);
      if (!shared_respond) continue;
    }
    for (std::uint32_t j = 0; j < cfg.k; ++j) {
      const std::uint32_t slot = hashes.slot(tag, j, cfg.w);
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
              tag.rn, slot, static_cast<std::uint32_t>(cfg.seeds[j]), cfg.p_n);
          break;
        default:
          respond = false;
      }
      if (respond) ++counts_[slot];
    }
  }
  out.tx = sum_counts(counts_.data(), cfg.w);
  out.busy = counts_to_busy(counts_.data(), cfg.w, rng);
}

void FrameEngine::sampled_bloom(const BloomFrameConfig& cfg,
                                util::Xoshiro256ss& rng, FrameResult& out) {
  assert(cfg.k >= 1 && cfg.k <= kMaxHashes);
  // Every (tag, hash) pair responds with probability p, independently
  // under the marginal law; the total response count is Binomial(k·n, p)
  // and each response lands in a uniform slot. (Within-tag slot
  // distinctness is a O(k²/w) correction, negligible for k=3, w=8192;
  // tests compare the two executors.)
  const std::uint64_t responses =
      draw_binomial(static_cast<std::uint64_t>(n_) * cfg.k, cfg.p, rng);
  counts_.assign(cfg.w, 0);
  for (std::uint64_t r = 0; r < responses; ++r) {
    ++counts_[rng.below(cfg.w)];
  }
  out.tx = responses;
  out.busy = counts_to_busy(counts_.data(), cfg.w, rng);
}

void FrameEngine::exact_aloha(const AlohaFrameConfig& cfg,
                              util::Xoshiro256ss& rng, FrameResult& out) {
  assert(tags_ != nullptr);
  counts_.assign(cfg.f, 0);
  const hash::IdealSlotHash slot_hash(cfg.seed);
  for (const Tag& tag : tags_->tags()) {
    if (cfg.p < 1.0 && !rng.bernoulli(cfg.p)) continue;
    ++counts_[slot_hash.slot(tag.id, cfg.f)];
  }
  out.tx = sum_counts(counts_.data(), cfg.f);
  out.states.resize(cfg.f);
  for (std::uint32_t i = 0; i < cfg.f; ++i) {
    out.states[i] = channel_.observe(counts_[i], rng);
  }
}

void FrameEngine::sampled_aloha(const AlohaFrameConfig& cfg,
                                util::Xoshiro256ss& rng, FrameResult& out) {
  const std::uint64_t responders = draw_binomial(n_, cfg.p, rng);
  out.tx = responders;
  counts_.assign(cfg.f, 0);
  for (std::uint64_t r = 0; r < responders; ++r) {
    ++counts_[rng.below(cfg.f)];
  }
  out.states.resize(cfg.f);
  for (std::uint32_t i = 0; i < cfg.f; ++i) {
    out.states[i] = channel_.observe(counts_[i], rng);
  }
}

void FrameEngine::exact_single(const SingleSlotConfig& cfg,
                               util::Xoshiro256ss& rng, FrameResult& out) {
  assert(tags_ != nullptr);
  // ZOE's participation rule: hash the tagID with the per-frame seed and
  // compare against q — no tag-side RNG required.
  const std::uint64_t threshold =
      cfg.q >= 1.0 ? ~0ULL
                   : static_cast<std::uint64_t>(
                         cfg.q * 18446744073709551616.0 /* 2^64 */);
  const std::uint64_t premixed = hash::premix_seed(cfg.seed);
  std::uint32_t responders = 0;
  for (const Tag& tag : tags_->tags()) {
    if (hash::fmix64(tag.id ^ premixed) < threshold) ++responders;
  }
  out.tx = responders;
  out.single = channel_.observe(responders, rng);
}

void FrameEngine::sampled_single(const SingleSlotConfig& cfg,
                                 util::Xoshiro256ss& rng, FrameResult& out) {
  const std::uint64_t responders = draw_binomial(n_, cfg.q, rng);
  out.tx = responders;
  out.single = channel_.observe(
      static_cast<std::uint32_t>(
          responders > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : responders),
      rng);
}

void FrameEngine::exact_lottery(const LotteryFrameConfig& cfg,
                                util::Xoshiro256ss& rng, FrameResult& out) {
  assert(tags_ != nullptr);
  counts_.assign(cfg.f, 0);
  const hash::GeometricSlotHash geo(cfg.seed);
  for (const Tag& tag : tags_->tags()) {
    ++counts_[geo.slot(tag.id, cfg.f)];
  }
  out.tx = tags_->size();
  out.busy = counts_to_busy(counts_.data(), cfg.f, rng);
}

void FrameEngine::sampled_lottery(const LotteryFrameConfig& cfg,
                                  util::Xoshiro256ss& rng, FrameResult& out) {
  // Sequential multinomial: slot j holds Binomial(n_remaining,
  // p_j / p_remaining) tags, with p_j = 2^-(j+1) and the tail mass
  // clamped into the last slot.
  counts_.assign(cfg.f, 0);
  std::uint64_t remaining = n_;
  double mass_remaining = 1.0;
  for (std::uint32_t j = 0; j + 1 < cfg.f && remaining > 0; ++j) {
    const double pj = std::ldexp(1.0, -static_cast<int>(j) - 1);
    const double cond = pj / mass_remaining;
    const std::uint64_t c =
        draw_binomial(remaining, cond > 1.0 ? 1.0 : cond, rng);
    counts_[j] =
        static_cast<std::uint32_t>(c > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : c);
    remaining -= c;
    mass_remaining -= pj;
    if (mass_remaining <= 0.0) break;
  }
  counts_[cfg.f - 1] += static_cast<std::uint32_t>(
      remaining > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : remaining);
  out.tx = n_;
  out.busy = counts_to_busy(counts_.data(), cfg.f, rng);
}

// ---- sharded exact path ----------------------------------------------

std::uint32_t FrameEngine::effective_shards(std::size_t work) const noexcept {
  std::uint32_t count =
      policy_.shards != 0 ? policy_.shards : util::default_thread_count();
  if (count < 1) count = 1;
  const std::size_t per_shard =
      policy_.min_tags_per_shard > 0 ? policy_.min_tags_per_shard : 1;
  const std::size_t justified = work / per_shard;
  if (justified < count) {
    count = static_cast<std::uint32_t>(justified < 1 ? 1 : justified);
  }
  return count;
}

void FrameEngine::exact_sharded(const FrameRequest& request,
                                util::Xoshiro256ss& rng, FrameResult& out) {
  assert(tags_ != nullptr);
  ++counters_.sharded_walks;
  std::vector<FrameResult> results = run_sharded_frames(
      *tags_, channel_, {&request}, effective_shards(n_), policy_.allow_simd,
      rng, shard_bits_, shard_tx_, lane_scratch_);
  out = std::move(results.front());
}

std::vector<FrameResult> FrameEngine::execute_batch_sharded(
    const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng) {
  const auto start = Clock::now();
  ++counters_.sharded_walks;
  std::vector<const FrameRequest*> reqs;
  reqs.reserve(requests.size());
  for (const FrameRequest& r : requests) reqs.push_back(&r);
  std::vector<FrameResult> results = run_sharded_frames(
      *tags_, channel_, reqs, effective_shards(n_), policy_.allow_simd, rng,
      shard_bits_, shard_tx_, lane_scratch_);
  for (std::size_t f = 0; f < results.size(); ++f) {
    ShapeCounters& c = counters_.of(results[f].shape);
    c.frames += 1;
    c.slots += results[f].shape == FrameShape::kSingleSlot
                   ? 1
                   : results[f].shape == FrameShape::kAloha
                         ? static_cast<std::uint64_t>(results[f].states.size())
                         : static_cast<std::uint64_t>(results[f].busy.size());
    c.tag_tx += results[f].tx;
  }
  // Wall time is attributed to the first request's shape — the walk is
  // one fused pass, there is no per-shape split to measure.
  counters_.of(requests.front().shape()).wall_us += elapsed_us(start);
  return results;
}

// ---- batched sampler (sampled mode under a sharded policy) ------------

std::vector<FrameResult> FrameEngine::execute_sampled_batch(
    const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng) {
  const auto start = Clock::now();
  ++counters_.sharded_walks;
  ++counters_.sampled_batches;
  const std::size_t m = requests.size();

  /// One sampled frame's plan. Bloom and ALOHA scatter `draws` uniform
  /// responses into word-packed shard planes (a busy bitmap for Bloom —
  /// the channel branches only on busy-vs-idle, so "≥ 1 response" is
  /// draw-for-draw equivalent to the counts — and the ≥1/≥2 occupancy
  /// pair for ALOHA, whose idle/single/collision categories the channel
  /// observes exactly); single-slot needs only its responder count;
  /// lottery's dependent multinomial is drawn straight into the merged
  /// counts in phase 1 (its draws must stay on the caller's stream in
  /// request order — they cannot be counter-addressed without changing
  /// the law).
  struct SampledPlan {
    FrameShape shape = FrameShape::kBloom;
    std::uint32_t w = 1;                ///< slot count (w / f / 1)
    std::size_t offset = 0;             ///< lottery counts, into batch_counts_
    std::size_t word_offset = 0;        ///< plane one, into a shard slice
    std::size_t word_offset2 = 0;       ///< plane two (ALOHA only)
    std::uint64_t draws = 0;            ///< uniform slot-scatter draws
    std::uint64_t base = 0;             ///< counter base for the scatter
    std::uint64_t responders = 0;       ///< single-slot responder count
  };

  // Layout pass (no RNG): merged slot counts for the lottery frames,
  // cache-line-padded word-packed planes for the scatter shapes (same
  // padding rationale as padded_words — adjacent shard slices never
  // share a cache line).
  std::vector<SampledPlan> plans(m);
  std::size_t total_slots = 0;
  std::size_t words_stride = 0;
  for (std::size_t f = 0; f < m; ++f) {
    SampledPlan& pl = plans[f];
    pl.shape = requests[f].shape();
    switch (pl.shape) {
      case FrameShape::kBloom:
        pl.w = std::get<BloomFrameConfig>(requests[f].config).w;
        pl.word_offset = words_stride;
        words_stride += padded_words(pl.w);
        break;
      case FrameShape::kAloha:
        pl.w = std::get<AlohaFrameConfig>(requests[f].config).f;
        pl.word_offset = words_stride;
        pl.word_offset2 = words_stride + padded_words(pl.w);
        words_stride += 2 * padded_words(pl.w);
        break;
      case FrameShape::kSingleSlot:
        pl.w = 1;
        break;
      case FrameShape::kLottery:
        pl.w = std::get<LotteryFrameConfig>(requests[f].config).f;
        pl.offset = total_slots;
        total_slots += pl.w;
        break;
    }
  }
  batch_counts_.assign(total_slots, 0);

  // Phase 1 — plan: every binomial on the caller's stream, in request
  // order (util::draw_binomial keeps the serialised construction that
  // makes this safe under concurrent workers). Scatter shapes also
  // derive their counter base from exactly one caller draw, so the
  // stream position after the batch depends only on the request list.
  std::uint64_t total_draws = 0;
  for (std::size_t f = 0; f < m; ++f) {
    SampledPlan& pl = plans[f];
    switch (pl.shape) {
      case FrameShape::kBloom: {
        const auto& cfg = std::get<BloomFrameConfig>(requests[f].config);
        assert(cfg.k >= 1 && cfg.k <= kMaxHashes);
        pl.draws = draw_binomial(
            static_cast<std::uint64_t>(n_) * cfg.k, cfg.p, rng);
        break;
      }
      case FrameShape::kAloha: {
        const auto& cfg = std::get<AlohaFrameConfig>(requests[f].config);
        pl.draws = draw_binomial(n_, cfg.p, rng);
        break;
      }
      case FrameShape::kSingleSlot: {
        const auto& cfg = std::get<SingleSlotConfig>(requests[f].config);
        pl.responders = draw_binomial(n_, cfg.q, rng);
        break;
      }
      case FrameShape::kLottery: {
        // Sequential multinomial, exactly the legacy sampled_lottery
        // draws, written straight into the merged counts.
        std::uint32_t* const counts = batch_counts_.data() + pl.offset;
        std::uint64_t remaining = n_;
        double mass_remaining = 1.0;
        for (std::uint32_t j = 0; j + 1 < pl.w && remaining > 0; ++j) {
          const double pj = std::ldexp(1.0, -static_cast<int>(j) - 1);
          const double cond = pj / mass_remaining;
          const std::uint64_t c =
              draw_binomial(remaining, cond > 1.0 ? 1.0 : cond, rng);
          counts[j] = static_cast<std::uint32_t>(
              c > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : c);
          remaining -= c;
          mass_remaining -= pj;
          if (mass_remaining <= 0.0) break;
        }
        counts[pl.w - 1] += static_cast<std::uint32_t>(
            remaining > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : remaining);
        break;
      }
    }
    if (pl.shape == FrameShape::kBloom || pl.shape == FrameShape::kAloha) {
      util::SeedMixer mix(rng());
      mix.absorb(static_cast<std::uint64_t>(pl.w));
      pl.base = mix.value();
      total_draws += pl.draws;
    }
  }

  // Phase 2 — render: scatter all response draws. Shard s owns the
  // contiguous draw range [s·chunk, (s+1)·chunk) of EVERY frame and
  // renders into private word-packed planes; slot r of a frame is
  // counter-addressed (splitmix_at(base, r) reduced by multiply-shift),
  // and both plane forms merge order-independently (busy bits with OR,
  // the ALOHA pair with the cross-shard ≥2 term), so the merged result
  // is bit-identical for any shard count.
  const std::uint32_t shard_count =
      total_draws > 0
          ? effective_shards(static_cast<std::size_t>(std::min<std::uint64_t>(
                total_draws, static_cast<std::uint64_t>(~std::size_t{0}))))
          : 1;
  if (words_stride > 0) {
    // Sized but not zeroed here: each shard zero-fills its own slice in
    // the parallel region, so cold pages first-touch on the worker that
    // scatters into them (the same NUMA discipline as the exact walk).
    const std::size_t total_words =
        static_cast<std::size_t>(shard_count) * words_stride;
    if (shard_bits_.size() < total_words) shard_bits_.resize(total_words);
    slot_scratch_.resize(static_cast<std::size_t>(shard_count) *
                         detail::kScatterTile);
    const bool allow_simd = policy_.allow_simd;
    util::parallel_for(
        0, shard_count,
        [&](std::size_t s) {
          std::uint64_t* const plane = shard_bits_.data() + s * words_stride;
          std::fill(plane, plane + words_stride, std::uint64_t{0});
          std::uint32_t* const slots =
              slot_scratch_.data() + s * detail::kScatterTile;
          for (const SampledPlan& pl : plans) {
            if ((pl.shape != FrameShape::kBloom &&
                 pl.shape != FrameShape::kAloha) ||
                pl.draws == 0) {
              continue;
            }
            const std::uint64_t chunk =
                (pl.draws + shard_count - 1) / shard_count;
            const std::uint64_t r0 = std::min<std::uint64_t>(
                pl.draws, static_cast<std::uint64_t>(s) * chunk);
            const std::uint64_t r1 = std::min<std::uint64_t>(
                pl.draws, r0 + chunk);
            std::uint64_t* const one = plane + pl.word_offset;
            std::uint64_t* const two = plane + pl.word_offset2;
            for (std::uint64_t t0 = r0; t0 < r1;
                 t0 += detail::kScatterTile) {
              const std::uint64_t t1 =
                  std::min<std::uint64_t>(r1, t0 + detail::kScatterTile);
              detail::sampled_scatter_tile(pl.base, t0, t1, pl.w,
                                           allow_simd, slots);
              const std::size_t count = static_cast<std::size_t>(t1 - t0);
              if (pl.shape == FrameShape::kBloom) {
                for (std::size_t i = 0; i < count; ++i) {
                  const std::uint32_t slot = slots[i];
                  one[slot >> 6] |= 1ULL << (slot & 63U);
                }
              } else {
                for (std::size_t i = 0; i < count; ++i) {
                  const std::uint32_t slot = slots[i];
                  const std::uint64_t bit = 1ULL << (slot & 63U);
                  two[slot >> 6] |= one[slot >> 6] & bit;
                  one[slot >> 6] |= bit;
                }
              }
            }
          }
        },
        shard_count);
    // Merge the shard planes into shard 0's slice.
    for (const SampledPlan& pl : plans) {
      if ((pl.shape != FrameShape::kBloom &&
           pl.shape != FrameShape::kAloha) ||
          pl.draws == 0) {
        continue;
      }
      const std::size_t words = (static_cast<std::size_t>(pl.w) + 63) / 64;
      std::uint64_t* const one = shard_bits_.data() + pl.word_offset;
      std::uint64_t* const two = shard_bits_.data() + pl.word_offset2;
      for (std::uint32_t s = 1; s < shard_count; ++s) {
        const std::uint64_t* const one_s =
            shard_bits_.data() + s * words_stride + pl.word_offset;
        if (pl.shape == FrameShape::kBloom) {
          for (std::size_t i = 0; i < words; ++i) one[i] |= one_s[i];
        } else {
          const std::uint64_t* const two_s =
              shard_bits_.data() + s * words_stride + pl.word_offset2;
          for (std::size_t i = 0; i < words; ++i) {
            // A slot collides if any shard saw ≥ 2 draws, or two
            // different shards each saw ≥ 1.
            const std::uint64_t os = one_s[i];
            two[i] |= two_s[i] | (one[i] & os);
            one[i] |= os;
          }
        }
      }
    }
  }

  // Phase 3 — reduce: channel observation per frame, in request order,
  // on the caller's stream — the same frame-major order every other
  // path uses.
  std::vector<FrameResult> results;
  results.reserve(m);
  for (const SampledPlan& pl : plans) {
    FrameResult res;
    res.shape = pl.shape;
    switch (pl.shape) {
      case FrameShape::kBloom:
        res.tx = pl.draws;
        res.busy = bitmap_to_busy(
            channel_, shard_bits_.data() + pl.word_offset, pl.w, rng);
        break;
      case FrameShape::kAloha: {
        // Slot-major observation with the exact occupancy category
        // (0 / 1 / ≥2) — draw-for-draw identical to observing the true
        // per-slot draw counts.
        const std::uint64_t* const one = shard_bits_.data() + pl.word_offset;
        const std::uint64_t* const two = shard_bits_.data() + pl.word_offset2;
        res.tx = pl.draws;
        res.states.resize(pl.w);
        for (std::uint32_t i = 0; i < pl.w; ++i) {
          const std::uint32_t category =
              ((two[i >> 6] >> (i & 63U)) & 1ULL) != 0
                  ? 2U
                  : static_cast<std::uint32_t>(
                        (one[i >> 6] >> (i & 63U)) & 1ULL);
          res.states[i] = channel_.observe(category, rng);
        }
        break;
      }
      case FrameShape::kSingleSlot:
        res.tx = pl.responders;
        res.single = channel_.observe(
            static_cast<std::uint32_t>(pl.responders > 0xFFFFFFFFULL
                                           ? 0xFFFFFFFFULL
                                           : pl.responders),
            rng);
        break;
      case FrameShape::kLottery:
        res.tx = n_;
        res.busy = counts_to_busy(batch_counts_.data() + pl.offset, pl.w, rng);
        break;
    }
    ShapeCounters& c = counters_.of(pl.shape);
    c.frames += 1;
    c.slots += pl.shape == FrameShape::kSingleSlot ? 1 : pl.w;
    c.tag_tx += res.tx;
    results.push_back(std::move(res));
  }
  // Same attribution rule as the sharded exact batch: one fused pass,
  // charged to the first request's shape.
  counters_.of(plans.front().shape).wall_us += elapsed_us(start);
  return results;
}

}  // namespace bfce::rfid
