#include "estimators/fneb.hpp"

#include <algorithm>
#include <cmath>

#include "hash/slot_hash.hpp"
#include "math/erf.hpp"

namespace bfce::estimators {

namespace {

/// First busy slot of a uniform frame, exact agent walk.
std::uint32_t exact_first_busy(const rfid::TagPopulation& tags,
                               std::uint32_t f, std::uint64_t seed) {
  const hash::IdealSlotHash h(seed);
  std::uint32_t first = f;  // f ⇒ frame entirely idle
  for (const rfid::Tag& tag : tags.tags()) {
    first = std::min(first, h.slot(tag.id, f));
    if (first == 0) break;
  }
  return first;
}

/// First busy slot via the law of the minimum of n uniforms:
/// min/f ~ Beta(1, n), sampled by inverse transform.
std::uint32_t sampled_first_busy(std::size_t n, std::uint32_t f,
                                 util::Xoshiro256ss& rng) {
  if (n == 0) return f;
  const double u = rng.uniform();
  const double minimum =
      1.0 - std::exp(std::log1p(-u) / static_cast<double>(n));
  const auto slot = static_cast<std::uint32_t>(minimum *
                                               static_cast<double>(f));
  return slot >= f ? f - 1 : slot;
}

}  // namespace

EstimateOutcome FnebEstimator::estimate(rfid::ReaderContext& ctx,
                                        const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;
  const double d = math::confidence_d(req.delta);
  const auto rounds = static_cast<std::uint32_t>(std::clamp(
      std::ceil((d / req.epsilon) * (d / req.epsilon)), 1.0,
      static_cast<double>(params_.max_rounds)));

  double index_sum = 0.0;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const std::uint64_t seed = ctx.next_seed();
    const std::uint32_t u =
        ctx.mode() == rfid::FrameMode::kExact
            ? exact_first_busy(ctx.tags(), params_.frame_size, seed)
            : sampled_first_busy(ctx.engine().population_size(),
                                 params_.frame_size, ctx.rng());
    out.airtime.add_reader_broadcast(params_.seed_bits + params_.size_bits);
    // Early termination: the reader listens to u idle slots plus the
    // busy one, then kills the frame.
    out.airtime.add_tag_slots(std::min(u, params_.frame_size - 1) + 1ULL);
    // Only the first-slot winner ever transmits (later slots never come);
    // ties at the minimum are negligible for f >> n.
    out.airtime.tag_tx_bits += 1;
    index_sum += static_cast<double>(u);
    ++out.rounds;
  }

  const double mean_u = index_sum / static_cast<double>(rounds);
  // +0.5 undoes the floor-discretisation bias of the slot index; the max
  // guards the n ≳ f regime where the announced frame was too small.
  const double denom = std::max(mean_u + 0.5, 1e-3);
  out.n_hat =
      std::max(0.0, static_cast<double>(params_.frame_size) / denom - 1.0);
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
