#include "estimators/pet.hpp"

#include <cmath>

namespace bfce::estimators {

namespace {
constexpr double kFmCorrection = 1.2897;  // same correction as LOF
}

EstimateOutcome PetEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& /*req*/) {
  EstimateOutcome out;
  out.rounds = 0;
  double level_sum = 0.0;

  for (std::uint32_t r = 0; r < params_.rounds; ++r) {
    const std::uint64_t seed = ctx.next_seed();
    // Query at level l: a tag responds iff its geometric level ≥ l,
    // which happens with probability 2^-l — a single-slot frame with
    // q = 2^-l against the per-round seed.
    auto level_busy = [&](std::uint32_t l) {
      const double q = std::ldexp(1.0, -static_cast<int>(l));
      const rfid::FrameResult frame =
          ctx.run_frame(rfid::FrameRequest::single_slot(q, seed));
      out.airtime.tag_tx_bits += frame.tx;
      const bool heard = rfid::is_busy(frame.single);
      ctx.log_frame(
          rfid::FrameKind::kSingleSlot, 1, q, heard ? 1 : 0,
          out.airtime.add_frame(params_.seed_bits + params_.level_bits, 1,
                                ctx.timing()));
      return heard;
    };

    // Binary search for the highest busy level. Invariant: lo is busy
    // (level 0 is busy whenever any tag exists), hi is idle.
    if (!level_busy(0)) {
      // No tag responded at level 0 — empty (or near-empty) system.
      continue;
    }
    std::uint32_t lo = 0;
    std::uint32_t hi = params_.max_level;
    if (level_busy(hi)) {
      level_sum += static_cast<double>(hi);
      ++out.rounds;
      continue;
    }
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (level_busy(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    level_sum += static_cast<double>(lo);
    ++out.rounds;
  }

  out.n_hat = out.rounds == 0
                  ? 0.0
                  : kFmCorrection *
                        std::exp2(level_sum / static_cast<double>(out.rounds));
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
