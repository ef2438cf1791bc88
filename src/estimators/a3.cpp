#include "estimators/a3.hpp"

#include <algorithm>
#include <cmath>

#include "core/analysis.hpp"
#include "math/erf.hpp"

namespace bfce::estimators {

EstimateOutcome A3Estimator::estimate(rfid::ReaderContext& ctx,
                                      const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;

  // ---- Stage 1: pivot search. Probe persistence 2^-j until the
  // majority of the level's slots fall silent; E[responders] = n·2^-j,
  // so the quiet level j* has n ≈ 2^j*.
  std::uint32_t quiet_level = params_.max_levels;
  for (std::uint32_t j = 0; j <= params_.max_levels; ++j) {
    const double q = std::ldexp(1.0, -static_cast<int>(j));
    std::uint32_t busy = 0;
    for (std::uint32_t r = 0; r < params_.pivot_slots_per_level; ++r) {
      const std::uint64_t seed = ctx.next_seed();
      const rfid::FrameResult frame =
          ctx.run_frame(rfid::FrameRequest::single_slot(q, seed));
      out.airtime.tag_tx_bits += frame.tx;
      const bool heard = rfid::is_busy(frame.single);
      if (heard) ++busy;
      ctx.log_frame(rfid::FrameKind::kSingleSlot, 1, q, heard ? 1 : 0,
                    out.airtime.add_frame(params_.seed_bits, 1, ctx.timing()));
    }
    if (2 * busy < params_.pivot_slots_per_level) {
      quiet_level = j;
      break;
    }
  }
  // At the quiet level Pr{busy} = 1 − e^{−n·2^-j} < 1/2 ⇒ n ≲ ln2·2^j.
  double n_pivot =
      std::max(1.0, 0.693 * std::ldexp(1.0, static_cast<int>(quiet_level)));

  // ---- Stage 2: Fisher-weighted refinement frames.
  const double d = math::confidence_d(req.delta);
  const double f_d = static_cast<double>(params_.frame_size);
  double info = 0.0;        // accumulated Fisher information about n
  double weighted = 0.0;    // information-weighted estimate accumulator
  double n_hat = n_pivot;
  for (std::uint32_t r = 0; r < params_.max_rounds; ++r) {
    const double p =
        std::min(1.0, params_.lambda_target * f_d / std::max(1.0, n_hat));
    const std::uint64_t seed = ctx.next_seed();
    const rfid::FrameResult frame =
        ctx.run_frame(rfid::FrameRequest::aloha(params_.frame_size, p, seed));
    out.airtime.tag_tx_bits += frame.tx;
    ++out.rounds;

    std::size_t idle = 0;
    for (const rfid::SlotState s : frame.states) {
      if (!rfid::is_busy(s)) ++idle;
    }
    ctx.log_frame(rfid::FrameKind::kAloha, params_.frame_size, p,
                  static_cast<std::uint32_t>(params_.frame_size - idle),
                  out.airtime.add_frame(params_.seed_bits + params_.size_bits,
                                        params_.frame_size, ctx.timing()));
    const double rho = std::clamp(
        static_cast<double>(idle) / f_d, 1.0 / (2.0 * f_d),
        1.0 - 1.0 / (2.0 * f_d));
    const double est = core::estimate_from_rho(rho, params_.frame_size, 1, p);

    // Fisher information of one frame about n at load λ: the relative
    // variance of the inversion is (e^λ − 1)/(λ²·f), so the information
    // is its reciprocal (per unit n²).
    const double lambda = p * std::max(1.0, est) / f_d;
    if (lambda > 1e-9) {
      const double rel_var =
          (std::exp(lambda) - 1.0) / (lambda * lambda * f_d);
      const double w = 1.0 / rel_var;
      weighted += w * est;
      info += w;
      n_hat = weighted / info;
      // Stop once the accumulated information pins n to ε at confidence d:
      // combined relative sd = 1/√info ≤ ε/d.
      if (std::sqrt(1.0 / info) * d <= req.epsilon) break;
    }
  }

  out.n_hat = n_hat;
  if (out.rounds >= params_.max_rounds) {
    out.met_by_design = false;
    out.note = "round cap reached before the information target";
  }
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
