#include "estimators/ezb.hpp"

#include <algorithm>
#include <cmath>

#include "core/analysis.hpp"
#include "estimators/lof.hpp"
#include "math/erf.hpp"

namespace bfce::estimators {

std::uint32_t EzbEstimator::required_rounds(double epsilon, double delta,
                                            double lambda, std::uint32_t f) {
  // (ε, δ) needs total slot count W with ε·√(W·λ-ish) ≥ d; reuse the
  // Theorem-3 edge with w = W: the binding condition is
  //   (e^{−λ} − e^{−λ(1+ε)})·√W / σ(X) ≥ d.
  const double d = math::confidence_d(delta);
  const double idle = std::exp(-lambda);
  const double sigma = std::sqrt(idle * (1.0 - idle));
  const double gap = idle * (1.0 - std::exp(-epsilon * lambda));
  const double w_needed = (d * sigma / gap) * (d * sigma / gap);
  return static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(w_needed / static_cast<double>(f))));
}

EstimateOutcome EzbEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;

  // Magnitude pilot: EZB's original anonymous-tracking setting assumed a
  // known universe size. For the single-set problem we bootstrap the
  // persistence from two cheap lottery frames (the standard adaptation —
  // the same trick SRC's rough phase uses).
  LofEstimator pilot(LofParams{32, 2, params_.seed_bits});
  const EstimateOutcome pilot_out = pilot.estimate(ctx, req);
  out.airtime += pilot_out.airtime;
  const double n_pilot = std::max(1.0, pilot_out.n_hat);
  const double f_d = static_cast<double>(params_.frame_size);

  const double p = std::min(1.0, params_.lambda_target * f_d / n_pilot);
  const double lambda_actual = p * n_pilot / f_d;  // ≈ target unless p hit 1
  const std::uint32_t rounds = std::min(
      params_.max_rounds,
      required_rounds(req.epsilon, req.delta, lambda_actual,
                      params_.frame_size));

  std::uint64_t idle_total = 0;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const std::uint64_t seed = ctx.next_seed();
    const rfid::FrameResult frame =
        ctx.run_frame(rfid::FrameRequest::aloha(params_.frame_size, p, seed));
    out.airtime.tag_tx_bits += frame.tx;
    out.airtime.add_reader_broadcast(params_.seed_bits + params_.size_bits);
    out.airtime.add_tag_slots(params_.frame_size);
    ++out.rounds;
    for (const rfid::SlotState s : frame.states) {
      if (!rfid::is_busy(s)) ++idle_total;
    }
  }

  const double total_slots = f_d * static_cast<double>(rounds);
  const double rho =
      std::clamp(static_cast<double>(idle_total) / total_slots,
                 1.0 / (2.0 * total_slots), 1.0 - 1.0 / (2.0 * total_slots));
  out.n_hat = core::estimate_from_rho(rho, params_.frame_size, 1, p);
  if (rounds >= params_.max_rounds) {
    out.met_by_design = false;
    out.note = "round cap reached before the (eps, delta) bound";
  }
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
