#include "rfid/frame_engine_simd.hpp"

#include <cmath>

#include "hash/mix.hpp"
#include "rfid/tag.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define BFCE_HAVE_AVX512_KERNEL 1
#include <immintrin.h>
// GCC's AVX-512 intrinsic headers model "undefined" source operands as
// self-initialised locals (_mm512_undefined_epi32), which trips
// -Wmaybe-uninitialized when inlined under -O2. Silence only that
// diagnostic for this translation unit; the kernel reads no
// uninitialised data of its own.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#else
#define BFCE_HAVE_AVX512_KERNEL 0
#endif

namespace bfce::rfid::detail {

namespace {

/// Scalar decision span: tags [first, first + count) emitting lane ids
/// ((local0 + i) << 2) | j. Shared by the pure-scalar path and the
/// AVX-512 path's sub-8-tag tail, which both must produce the ids the
/// vector body would have.
std::size_t decide_span_scalar(std::uint64_t base, std::size_t first,
                               std::size_t count, std::size_t local0,
                               std::uint32_t threshold16,
                               std::uint32_t lane_mask,
                               std::uint16_t* out) noexcept {
  std::uint16_t* cursor = out;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t z = util::splitmix_at(base, first + i);
    const std::uint32_t local = static_cast<std::uint32_t>((local0 + i) << 2);
    for (std::uint32_t j = 0; j < 4; ++j) {
      if (((lane_mask >> j) & 1U) == 0U) continue;
      if (static_cast<std::uint32_t>((z >> (16U * j)) & 0xFFFFU) <
          threshold16) {
        *cursor++ = static_cast<std::uint16_t>(local | j);
      }
    }
  }
  return static_cast<std::size_t>(cursor - out);
}

#if BFCE_HAVE_AVX512_KERNEL

constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

/// 8 tags per iteration: each 64-bit lane holds splitmix_at(base, t) for
/// one tag (the splitmix finaliser is three xor-shift-multiply steps —
/// fully data-parallel once the state is counter-addressed); the 32
/// 16-bit slices are the tags' decision bits, compared against the
/// broadcast threshold in one instruction and compressed to dense lane
/// ids with vpcompressw.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vbmi2"))) std::size_t
decide_tile_avx512(std::uint64_t base, std::size_t t0, std::size_t t1,
                   std::uint32_t threshold16, std::uint32_t lane_mask,
                   std::uint16_t* out) noexcept {
  const __m512i gamma8 =
      _mm512_set1_epi64(static_cast<long long>(8 * kGoldenGamma));
  const __m512i mul1 =
      _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ULL));
  const __m512i mul2 =
      _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBULL));
  const __m512i thr = _mm512_set1_epi16(
      static_cast<short>(static_cast<std::uint16_t>(threshold16)));
  const __m512i lane_step = _mm512_set1_epi16(32);
  const __m512i lane_iota =
      _mm512_set_epi16(31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18,
                       17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
                       1, 0);
  // State lanes: base + (t + 1 .. t + 8)·γ for t = t0; wrap-around mod
  // 2^64 matches splitmix_at exactly.
  __m512i state = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(base + t0 * kGoldenGamma)),
      _mm512_mullo_epi64(_mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1),
                         _mm512_set1_epi64(static_cast<long long>(
                             kGoldenGamma))));
  __m512i lanes = lane_iota;
  std::uint16_t* cursor = out;
  std::size_t t = t0;
  for (; t + 8 <= t1; t += 8) {
    __m512i z = state;
    z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 30));
    z = _mm512_mullo_epi64(z, mul1);
    z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 27));
    z = _mm512_mullo_epi64(z, mul2);
    z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 31));
    const __mmask32 hit = _mm512_cmplt_epu16_mask(z, thr) &
                          static_cast<__mmask32>(lane_mask);
    _mm512_mask_compressstoreu_epi16(cursor, hit, lanes);
    cursor += __builtin_popcount(static_cast<std::uint32_t>(hit));
    state = _mm512_add_epi64(state, gamma8);
    lanes = _mm512_add_epi16(lanes, lane_step);
  }
  cursor += decide_span_scalar(base, t, t1 - t, t - t0, threshold16,
                               lane_mask, cursor);
  return static_cast<std::size_t>(cursor - out);
}

#endif  // BFCE_HAVE_AVX512_KERNEL

/// Scalar scatter span: draws [first, first + count) emitting one slot
/// index each. Shared by the pure-scalar path and the AVX-512 path's
/// sub-8-draw tail.
void scatter_span_scalar(std::uint64_t base, std::uint64_t first,
                         std::uint64_t count, std::uint32_t w,
                         std::uint32_t* out) noexcept {
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t z = util::splitmix_at(base, first + i);
    out[i] = static_cast<std::uint32_t>(((z >> 32) * w) >> 32);
  }
}

#if BFCE_HAVE_AVX512_KERNEL

/// 8 draws per iteration: each 64-bit lane holds splitmix_at(base, r)
/// for one draw; the slot is ((z >> 32) · w) >> 32 — shifts and a
/// 64-bit low multiply only, because no 64×64 high-multiply exists in
/// AVX-512 — then the 8 lanes truncate to 32 bits and store as one
/// 256-bit write.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vbmi2"))) void
scatter_tile_avx512(std::uint64_t base, std::uint64_t r0, std::uint64_t r1,
                    std::uint32_t w, std::uint32_t* out) noexcept {
  const __m512i gamma8 =
      _mm512_set1_epi64(static_cast<long long>(8 * kGoldenGamma));
  const __m512i mul1 =
      _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ULL));
  const __m512i mul2 =
      _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBULL));
  const __m512i w8 = _mm512_set1_epi64(static_cast<long long>(w));
  __m512i state = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(base + r0 * kGoldenGamma)),
      _mm512_mullo_epi64(_mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1),
                         _mm512_set1_epi64(static_cast<long long>(
                             kGoldenGamma))));
  std::uint64_t r = r0;
  std::uint32_t* cursor = out;
  for (; r + 8 <= r1; r += 8, cursor += 8) {
    __m512i z = state;
    z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 30));
    z = _mm512_mullo_epi64(z, mul1);
    z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 27));
    z = _mm512_mullo_epi64(z, mul2);
    z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 31));
    const __m512i slot = _mm512_srli_epi64(
        _mm512_mullo_epi64(_mm512_srli_epi64(z, 32), w8), 32);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cursor),
                        _mm512_cvtepi64_epi32(slot));
    state = _mm512_add_epi64(state, gamma8);
  }
  scatter_span_scalar(base, r, r1 - r, w, cursor);
}

#endif  // BFCE_HAVE_AVX512_KERNEL

/// Scalar ALOHA span over tags [first, first + count): the binding
/// definition of the tile's output, shared by the pure-scalar path and
/// the AVX-512 path's sub-8-tag tail.
std::uint64_t aloha_span_scalar(const Tag* tags, std::size_t first,
                                std::size_t count, std::uint64_t premixed,
                                std::uint32_t f, bool stochastic,
                                std::uint64_t base, double p,
                                std::uint64_t* one,
                                std::uint64_t* two) noexcept {
  std::uint64_t responders = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t t = first + i;
    if (stochastic) {
      const std::uint64_t z = util::splitmix_at(base, t);
      if (static_cast<double>(z >> 11) * 0x1.0p-53 >= p) continue;
    }
    const std::uint64_t h = hash::fmix64(tags[t].id ^ premixed);
    const std::uint32_t slot = static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(h) * f) >> 64);
    const std::uint64_t bit = 1ULL << (slot & 63U);
    two[slot >> 6] |= one[slot >> 6] & bit;
    one[slot >> 6] |= bit;
    ++responders;
  }
  return responders;
}

#if BFCE_HAVE_AVX512_KERNEL

/// Occupancy byte states a tile accumulates before draining into the
/// planes: min(2, responders) per slot, held in a stack array so the
/// per-tag store is one independent byte RMW instead of the two
/// dependent plane-word RMWs of the direct update. Frames wider than
/// this fall back to the direct drain (the scan would stop amortising).
constexpr std::uint32_t kAlohaByteSlots = 1U << 16;

/// 8 tags per iteration: gather the ids (Tag is a 16-byte struct, id at
/// offset 0), run the fmix64 finaliser vectorised, and reduce to slots
/// with the exact two-partial-product multiply-shift. Slots accumulate
/// as saturating byte states (state += state < 2, branchless), and one
/// movemask drain per 64 slots folds the tile into the planes:
/// m1/m2 = "byte ≥ 1/2" compare masks ARE the plane words, combined
/// with the same cross term the shard merge uses (categories form a
/// commutative semilattice, so any tile split yields identical planes).
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vbmi2"))) std::uint64_t
aloha_tile_avx512(const Tag* tags, std::size_t t0, std::size_t t1,
                  std::uint64_t premixed, std::uint32_t f, bool stochastic,
                  std::uint64_t base, double p, std::uint64_t* one,
                  std::uint64_t* two) noexcept {
  static_assert(sizeof(Tag) == 16 && offsetof(Tag, id) == 0,
                "the id gather assumes a 16-byte Tag with id first");
  const __m512i gamma8 =
      _mm512_set1_epi64(static_cast<long long>(8 * kGoldenGamma));
  const __m512i smul1 =
      _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ULL));
  const __m512i smul2 =
      _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBULL));
  const __m512i fmul1 =
      _mm512_set1_epi64(static_cast<long long>(0xFF51AFD7ED558CCDULL));
  const __m512i fmul2 =
      _mm512_set1_epi64(static_cast<long long>(0xC4CEB9FE1A85EC53ULL));
  const __m512i prem8 = _mm512_set1_epi64(static_cast<long long>(premixed));
  const __m512i f8 = _mm512_set1_epi64(static_cast<long long>(f));
  const __m512i idx = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  // ceil(p·2^53) — exact: scaling a double by 2^53 only moves its
  // exponent. p ≥ 1 yields 2^53, above every 53-bit draw: all live.
  const std::uint64_t bar = p >= 1.0
                                ? (1ULL << 53)
                                : static_cast<std::uint64_t>(
                                      std::ceil(std::ldexp(p, 53)));
  const __m512i bar8 = _mm512_set1_epi64(static_cast<long long>(bar));
  __m512i state = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(base + t0 * kGoldenGamma)),
      _mm512_mullo_epi64(_mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1),
                         _mm512_set1_epi64(static_cast<long long>(
                             kGoldenGamma))));
  // Occupancy byte states, zeroed to the next 64-byte group so the
  // drain can read whole groups without masking the last one.
  const bool use_bytes = f <= kAlohaByteSlots;
  alignas(64) std::uint8_t occ[kAlohaByteSlots];
  if (use_bytes) {
    __builtin_memset(occ, 0, (static_cast<std::size_t>(f) + 63) & ~std::size_t{63});
  }
  std::uint64_t responders = 0;
  alignas(32) std::uint32_t slots[8];
  std::size_t t = t0;
  for (; t + 8 <= t1; t += 8) {
    __mmask8 live = static_cast<__mmask8>(0xFF);
    if (stochastic) {
      __m512i z = state;
      z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 30));
      z = _mm512_mullo_epi64(z, smul1);
      z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 27));
      z = _mm512_mullo_epi64(z, smul2);
      z = _mm512_xor_epi64(z, _mm512_srli_epi64(z, 31));
      live = _mm512_cmplt_epu64_mask(_mm512_srli_epi64(z, 11), bar8);
      state = _mm512_add_epi64(state, gamma8);
    }
    if (live != 0) {
      __m512i h = _mm512_xor_epi64(
          _mm512_i64gather_epi64(idx, &tags[t].id, 8), prem8);
      h = _mm512_xor_epi64(h, _mm512_srli_epi64(h, 33));
      h = _mm512_mullo_epi64(h, fmul1);
      h = _mm512_xor_epi64(h, _mm512_srli_epi64(h, 33));
      h = _mm512_mullo_epi64(h, fmul2);
      h = _mm512_xor_epi64(h, _mm512_srli_epi64(h, 33));
      // slot = (h·f) >> 64 with h split into 32-bit halves:
      // (hi·f + ((lo·f) >> 32)) >> 32 — no 64×64 high multiply needed,
      // and exact (the discarded sub-2^32 remainders cannot carry).
      const __m512i lo = _mm512_srli_epi64(_mm512_mul_epu32(h, f8), 32);
      const __m512i hi = _mm512_mul_epu32(_mm512_srli_epi64(h, 32), f8);
      const __m512i slot8 = _mm512_srli_epi64(_mm512_add_epi64(hi, lo), 32);
      _mm256_store_si256(reinterpret_cast<__m256i*>(slots),
                         _mm512_cvtepi64_epi32(slot8));
      responders += static_cast<std::uint64_t>(
          __builtin_popcount(static_cast<unsigned>(live)));
      if (use_bytes) {
        if (live == 0xFF) {
          for (int j = 0; j < 8; ++j) {
            const std::uint8_t c = occ[slots[j]];
            occ[slots[j]] = static_cast<std::uint8_t>(c + (c < 2));
          }
        } else {
          for (std::uint32_t mask = live; mask != 0; mask &= mask - 1) {
            const std::uint32_t s = slots[__builtin_ctz(mask)];
            const std::uint8_t c = occ[s];
            occ[s] = static_cast<std::uint8_t>(c + (c < 2));
          }
        }
      } else {
        for (std::uint32_t mask = live; mask != 0; mask &= mask - 1) {
          const std::uint32_t s = slots[__builtin_ctz(mask)];
          const std::uint64_t bit = 1ULL << (s & 63U);
          two[s >> 6] |= one[s >> 6] & bit;
          one[s >> 6] |= bit;
        }
      }
    }
  }
  if (!use_bytes) {
    return responders + aloha_span_scalar(tags, t, t1 - t, premixed, f,
                                          stochastic, base, p, one, two);
  }
  // Scalar tail accumulates into the same byte states (identical
  // participation decisions — the integer compare IS the double one).
  for (; t < t1; ++t) {
    if (stochastic &&
        (util::splitmix_at(base, t) >> 11) >= bar) {
      continue;
    }
    const std::uint64_t h = hash::fmix64(tags[t].id ^ premixed);
    const std::uint32_t s = static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(h) * f) >> 64);
    const std::uint8_t c = occ[s];
    occ[s] = static_cast<std::uint8_t>(c + (c < 2));
    ++responders;
  }
  // Movemask drain: one 64-byte compare per plane word.
  const std::size_t groups = (static_cast<std::size_t>(f) + 63) / 64;
  const __m512i one8 = _mm512_set1_epi8(1);
  const __m512i two8 = _mm512_set1_epi8(2);
  for (std::size_t g = 0; g < groups; ++g) {
    const __m512i v = _mm512_load_si512(occ + g * 64);
    const std::uint64_t m1 =
        static_cast<std::uint64_t>(_mm512_cmpge_epu8_mask(v, one8));
    const std::uint64_t m2 =
        static_cast<std::uint64_t>(_mm512_cmpge_epu8_mask(v, two8));
    two[g] |= m2 | (one[g] & m1);
    one[g] |= m1;
  }
  return responders;
}

#endif  // BFCE_HAVE_AVX512_KERNEL

}  // namespace

std::uint32_t packed16_threshold(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return 65536;
  const double scaled = p * 65536.0;
  if (scaled != std::floor(scaled)) return kNoPack16;
  return static_cast<std::uint32_t>(scaled);
}

bool simd_supported() noexcept {
#if BFCE_HAVE_AVX512_KERNEL
  static const bool supported =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vbmi2");
  return supported;
#else
  return false;
#endif
}

std::size_t bloom_decide_tile(std::uint64_t base, std::size_t t0,
                              std::size_t t1, std::uint32_t threshold16,
                              std::uint32_t lane_mask, bool allow_simd,
                              std::uint16_t* out) noexcept {
  if (threshold16 == 0 || lane_mask == 0 || t1 <= t0) return 0;
  if (threshold16 >= 65536) {
    // p = 1: every masked lane responds; no comparison needed.
    std::uint16_t* cursor = out;
    for (std::size_t t = t0; t < t1; ++t) {
      const std::uint32_t local = static_cast<std::uint32_t>((t - t0) << 2);
      for (std::uint32_t j = 0; j < 4; ++j) {
        if ((lane_mask >> j) & 1U) {
          *cursor++ = static_cast<std::uint16_t>(local | j);
        }
      }
    }
    return static_cast<std::size_t>(cursor - out);
  }
#if BFCE_HAVE_AVX512_KERNEL
  if (allow_simd && simd_supported()) {
    return decide_tile_avx512(base, t0, t1, threshold16, lane_mask, out);
  }
#else
  (void)allow_simd;
#endif
  return decide_span_scalar(base, t0, t1 - t0, 0, threshold16, lane_mask,
                            out);
}

std::uint64_t aloha_render_tile(const Tag* tags, std::size_t t0,
                                std::size_t t1, std::uint64_t premixed,
                                std::uint32_t f, bool stochastic,
                                std::uint64_t base, double p, bool allow_simd,
                                std::uint64_t* one,
                                std::uint64_t* two) noexcept {
  if (t1 <= t0) return 0;
#if BFCE_HAVE_AVX512_KERNEL
  if (allow_simd && simd_supported()) {
    return aloha_tile_avx512(tags, t0, t1, premixed, f, stochastic, base, p,
                             one, two);
  }
#else
  (void)allow_simd;
#endif
  return aloha_span_scalar(tags, t0, t1 - t0, premixed, f, stochastic, base,
                           p, one, two);
}

void sampled_scatter_tile(std::uint64_t base, std::uint64_t r0,
                          std::uint64_t r1, std::uint32_t w, bool allow_simd,
                          std::uint32_t* out) noexcept {
  if (r1 <= r0) return;
#if BFCE_HAVE_AVX512_KERNEL
  if (allow_simd && simd_supported()) {
    scatter_tile_avx512(base, r0, r1, w, out);
    return;
  }
#else
  (void)allow_simd;
#endif
  scatter_span_scalar(base, r0, r1 - r0, w, out);
}

}  // namespace bfce::rfid::detail
