#pragma once
// Internal: the counter-addressed kernels of the sharded walk
// (ExecutionPolicy::sharded in frame_engine.hpp) and the packed
// persistence threshold they compare against.
//
// bloom_decide_tile answers, for every (tag t, hash j) pair of one
// tile, "does the pair respond?" — where decision j of tag t is the
// j-th 16-bit slice of util::splitmix_at(base, t) compared against a
// Bernoulli threshold on the 1/65536 grid. sampled_scatter_tile maps
// one batched-sampler response draw r to its uniform slot — the high
// 32 bits of util::splitmix_at(base, r) reduced by multiply-shift.
// Because each decision is a pure function of (base, counter), it can
// be evaluated in any order, on any shard, by any instruction set: the
// AVX-512 paths (8 counters per vector; responders packed densely with
// vpcompressw in the decide kernel) and the scalar paths emit the
// exact same outputs in the exact same order, so results never depend
// on the host ISA.
//
// Responders come out as dense 16-bit lane ids instead of a per-group
// bitmask on purpose: at the paper's p ≈ 1/16 a mask-and-ctz drain
// mispredicts its way through mostly-empty groups, while a dense list
// gives the slot-hash/bitmap stage one well-predicted loop (measured
// ~3x on the drain alone).

#include <cstddef>
#include <cstdint>

namespace bfce::rfid {

struct Tag;

namespace detail {

/// Tile granularity of the sharded walk: small enough that one frame's
/// shard-local bitmap plus the lane buffer stay cache-resident while a
/// tile is walked, large enough to amortise per-(tile, frame) setup.
inline constexpr std::size_t kShardTile = 4096;

/// A tile emits at most 4 responder records per tag; lane ids are
/// ((t - t0) << 2) | j with j < 4, so they fit 16 bits by construction.
inline constexpr std::size_t kShardLaneCapacity = kShardTile * 4;

/// Decision-slice mask for k hashes: bits j < k set in every tag nibble
/// (k = 3 → 0x77777777, the paper's configuration).
constexpr std::uint32_t lane_mask_for(std::uint32_t k) noexcept {
  return 0x11111111U * ((1U << k) - 1U);
}

/// Sentinel of packed16_threshold: p is off the 1/65536 grid, the
/// packed persistence kernels do not apply.
inline constexpr std::uint32_t kNoPack16 = 0xFFFFFFFFU;

/// Exact 16-bit threshold for Bernoulli(p) decisions packed four to a
/// 64-bit draw, or kNoPack16 when p is not on the 1/65536 grid (the
/// 1/1024 persistence grid of §IV-E.3 always is). A uniform 16-bit
/// slice compared against p·65536 realises Bernoulli(p) exactly.
std::uint32_t packed16_threshold(double p) noexcept;

/// True when the AVX-512 kernel is compiled in and the CPU reports the
/// required extensions (F, BW, DQ, VBMI2).
bool simd_supported() noexcept;

/// Writes one lane id ((t - t0) << 2 | j, ascending) per responding
/// (tag, hash) pair for global tag indices [t0, t1) and returns the
/// count. A pair responds when the j-th 16-bit slice of
/// splitmix_at(base, t) is < threshold16 and bit j of lane_mask is set
/// (threshold16 == 65536 means p = 1: every masked lane responds).
///
/// Preconditions: t1 - t0 <= kShardTile, threshold16 <= 65536,
/// `out` holds kShardLaneCapacity entries. `allow_simd = false` forces
/// the scalar path; output is bit-identical either way.
std::size_t bloom_decide_tile(std::uint64_t base, std::size_t t0,
                              std::size_t t1, std::uint32_t threshold16,
                              std::uint32_t lane_mask, bool allow_simd,
                              std::uint16_t* out) noexcept;

/// Renders the ALOHA responses of global tag indices [t0, t1) into one
/// frame's occupancy pair (`one` = "≥ 1 responder", `two` = "≥ 2
/// responders", word-packed over f slots) and returns the responder
/// count. The slot of tag t is IdealSlotHash's multiply-shift: the high
/// 64 bits of fmix64(id ^ premixed) · f. When `stochastic`, tag t
/// participates iff the unit double built from splitmix_at(base, t)
/// falls below p — the counter-addressed decision of the sharded walk,
/// so the output is a pure function of the plan for any shard count.
///
/// The AVX-512 body hashes 8 tags per iteration; participation comes
/// out as a compare mask whose set bits drive the plane drain (the
/// two-plane update `two |= one & bit; one |= bit` commutes across
/// distinct tags, so drain order cannot matter). The 128-bit
/// multiply-shift is decomposed into two 32×32 partial products —
/// slot = (hi32(h)·f + (lo32(h)·f >> 32)) >> 32, exact for f < 2^32 —
/// and the participation compare happens on integers:
/// (z >> 11) < ceil(p·2^53) is exactly the scalar unit-double test,
/// because v·2⁻⁵³ is exact for v < 2^53.
///
/// `allow_simd = false` forces the scalar span; planes and responder
/// count are bit-identical either way.
std::uint64_t aloha_render_tile(const Tag* tags, std::size_t t0,
                                std::size_t t1, std::uint64_t premixed,
                                std::uint32_t f, bool stochastic,
                                std::uint64_t base, double p, bool allow_simd,
                                std::uint64_t* one,
                                std::uint64_t* two) noexcept;

/// Tile granularity of the batched sampler's slot scatter: one tile of
/// slot ids (16 KiB) per shard stays cache-resident next to the shard's
/// count plane.
inline constexpr std::size_t kScatterTile = 4096;

/// Writes the slot index of every response draw r in [r0, r1): slot(r)
/// is the high 32 bits of splitmix_at(base, r) reduced to [0, w) by
/// multiply-shift ((hi32 · w) >> 32 — an exact uniform map up to a
/// ≤ 2⁻³² bias, far below anything a KS test resolves, and expressible
/// with the vpmullq/shift pair AVX-512 actually has).
///
/// Preconditions: r1 - r0 <= kScatterTile, w >= 1, `out` holds
/// kScatterTile entries. `allow_simd = false` forces the scalar path;
/// output is bit-identical either way.
void sampled_scatter_tile(std::uint64_t base, std::uint64_t r0,
                          std::uint64_t r1, std::uint32_t w, bool allow_simd,
                          std::uint32_t* out) noexcept;

}  // namespace detail
}  // namespace bfce::rfid
