#include "estimators/upe.hpp"

#include <algorithm>
#include <cmath>

#include "estimators/lof.hpp"
#include "math/erf.hpp"

namespace bfce::estimators {

double UpeEstimator::invert_collision_ratio(double c) {
  // g(λ) = 1 − (1+λ)e^{−λ} is strictly increasing from 0 to 1; bisect.
  double lo = 1e-9;
  double hi = 64.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double g = 1.0 - (1.0 + mid) * std::exp(-mid);
    if (g < c) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo < 1e-12) break;
  }
  return 0.5 * (lo + hi);
}

EstimateOutcome UpeEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;

  // Magnitude pilot (two lottery frames), as for the other fixed-frame
  // estimators.
  LofEstimator pilot(LofParams{32, 2, params_.seed_bits});
  const EstimateOutcome pilot_out = pilot.estimate(ctx, req);
  out.airtime += pilot_out.airtime;
  const double n_pilot = std::max(1.0, pilot_out.n_hat);

  // Frame size from the CLT bound on the collision-count estimator; the
  // collision ratio has per-slot variance ≤ 1/4, and the sensitivity
  // dc/dλ = λe^{−λ}, so relative accuracy ε at load λ* needs
  //   f ≥ (d/(2·ε·λ*²·e^{−λ*}))² · λ*² … folded into the expression below.
  const double d = math::confidence_d(req.delta);
  const double lam = params_.lambda_target;
  const double sensitivity = lam * std::exp(-lam);  // d c / d ln λ at λ*
  const double f_needed = std::pow(d * 0.5 / (req.epsilon * sensitivity), 2);
  const std::uint32_t f = static_cast<std::uint32_t>(std::clamp(
      std::ceil(f_needed), 64.0, static_cast<double>(params_.max_frame)));

  const double p =
      std::min(1.0, lam * static_cast<double>(f) / n_pilot);

  const std::uint64_t seed = ctx.next_seed();
  const rfid::FrameResult frame =
      ctx.run_frame(rfid::FrameRequest::aloha(f, p, seed));
  out.airtime.tag_tx_bits += frame.tx;
  const std::vector<rfid::SlotState>& states = frame.states;
  out.rounds = 1;

  std::size_t idle = 0;
  std::size_t collisions = 0;
  for (const rfid::SlotState s : states) {
    if (!rfid::is_busy(s)) ++idle;
    if (s == rfid::SlotState::kCollision) ++collisions;
  }
  // UPE slots carry enough bits to tell singletons from collisions.
  ctx.log_frame(rfid::FrameKind::kAloha, f, p,
                static_cast<std::uint32_t>(f - idle),
                out.airtime.add_frame(
                    params_.seed_bits + params_.size_bits,
                    static_cast<std::uint64_t>(f) * params_.slot_bits,
                    ctx.timing()));
  const double f_d = static_cast<double>(f);
  const double ratio =
      std::clamp(static_cast<double>(collisions) / f_d, 1.0 / (2.0 * f_d),
                 1.0 - 1.0 / (2.0 * f_d));
  const double lambda_hat = invert_collision_ratio(ratio);
  out.n_hat = lambda_hat * f_d / p;
  if (f_needed > static_cast<double>(params_.max_frame)) {
    out.met_by_design = false;
    out.note = "frame cap reached before the (eps, delta) bound";
  }
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
