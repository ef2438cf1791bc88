#include "estimators/src_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/analysis.hpp"
#include "math/erf.hpp"
#include "math/hypothesis.hpp"
#include "math/stats.hpp"

namespace bfce::estimators {

std::uint32_t SrcEstimator::frame_size(double epsilon, double per_round_delta,
                                       double lambda_star,
                                       double calibration) {
  const double d = math::confidence_d(per_round_delta);
  const double idle = std::exp(-lambda_star);
  const double sigma = std::sqrt(idle * (1.0 - idle));
  const double denom = idle * (1.0 - std::exp(-epsilon * lambda_star));
  const double base = d * sigma / denom;
  return static_cast<std::uint32_t>(
      std::ceil(calibration * base * base));
}

EstimateOutcome SrcEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;

  // Phase 1: constant-factor rough estimate from lottery frames.
  LofEstimator lof(params_.rough);
  const EstimateOutcome rough = lof.estimate(ctx, req);
  out.airtime += rough.airtime;
  const double n_rough = std::max(1.0, rough.n_hat);

  // Phase 2: m independent (ε, 0.2) frames, median-aggregated.
  const std::uint32_t f = frame_size(req.epsilon, params_.per_round_delta,
                                     params_.lambda_star,
                                     params_.calibration);
  const std::size_t m = math::src_round_count(req.delta,
                                              1.0 - params_.per_round_delta);
  const double p =
      std::min(1.0, params_.lambda_star * static_cast<double>(f) / n_rough);

  std::vector<double> round_estimates;
  round_estimates.reserve(m);
  for (std::size_t r = 0; r < m; ++r) {
    const std::uint64_t seed = ctx.next_seed();
    const rfid::FrameResult frame =
        ctx.run_frame(rfid::FrameRequest::aloha(f, p, seed));
    out.airtime.tag_tx_bits += frame.tx;
    const std::vector<rfid::SlotState>& states = frame.states;
    ++out.rounds;

    std::size_t idle = 0;
    for (const rfid::SlotState s : states) {
      if (!rfid::is_busy(s)) ++idle;
    }
    ctx.log_frame(rfid::FrameKind::kAloha, f, p,
                  static_cast<std::uint32_t>(f - idle),
                  out.airtime.add_frame(params_.seed_bits + params_.size_bits,
                                        f, ctx.timing()));
    // Clamp degenerate frames (rough estimate far off) to the finest
    // resolvable ratio — these are the runs behind SRC's accuracy
    // exceptions in Fig 9.
    const double rho = std::clamp(
        static_cast<double>(idle) / static_cast<double>(f),
        1.0 / static_cast<double>(2 * f),
        1.0 - 1.0 / static_cast<double>(2 * f));
    round_estimates.push_back(core::estimate_from_rho(rho, f, 1, p));
  }

  out.n_hat = math::median(round_estimates);
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
