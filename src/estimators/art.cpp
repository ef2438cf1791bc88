#include "estimators/art.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "estimators/lof.hpp"
#include "math/erf.hpp"
#include "math/stats.hpp"

namespace bfce::estimators {

double ArtEstimator::average_busy_run(
    const std::vector<rfid::SlotState>& states) {
  std::size_t runs = 0;
  std::size_t busy = 0;
  bool in_run = false;
  for (const rfid::SlotState s : states) {
    if (rfid::is_busy(s)) {
      ++busy;
      if (!in_run) {
        ++runs;
        in_run = true;
      }
    } else {
      in_run = false;
    }
  }
  return runs == 0 ? 0.0
                   : static_cast<double>(busy) / static_cast<double>(runs);
}

EstimateOutcome ArtEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;

  LofEstimator pilot(LofParams{32, 2, params_.seed_bits});
  const EstimateOutcome pilot_out = pilot.estimate(ctx, req);
  out.airtime += pilot_out.airtime;
  const double n_pilot = std::max(1.0, pilot_out.n_hat);
  const double f_d = static_cast<double>(params_.frame_size);
  const double p = std::min(1.0, params_.lambda_target * f_d / n_pilot);

  const double d = math::confidence_d(req.delta);
  math::RunningStats per_round;
  for (std::uint32_t r = 0; r < params_.max_rounds; ++r) {
    const std::uint64_t seed = ctx.next_seed();
    const rfid::FrameResult frame =
        ctx.run_frame(rfid::FrameRequest::aloha(params_.frame_size, p, seed));
    out.airtime.tag_tx_bits += frame.tx;
    ctx.log_frame(rfid::FrameKind::kAloha, params_.frame_size, p,
                  static_cast<std::uint32_t>(std::count_if(
                      frame.states.begin(), frame.states.end(), rfid::is_busy)),
                  out.airtime.add_frame(params_.seed_bits + params_.size_bits,
                                        params_.frame_size, ctx.timing()));
    ++out.rounds;

    const double run = average_busy_run(frame.states);
    if (run > 1e-12) {
      // b̂ from the run statistic; clamp into (0,1) before the logs.
      const double b = std::clamp(1.0 - 1.0 / run, 1.0 / (2.0 * f_d),
                                  1.0 - 1.0 / (2.0 * f_d));
      const double lambda_hat = -std::log1p(-b);
      per_round.add(lambda_hat * f_d / p);
    } else {
      per_round.add(0.0);  // an all-idle frame is evidence of few tags
    }

    // Sequential stop: CLT half-width of the running mean vs ε·mean.
    if (per_round.count() >= params_.min_rounds && per_round.mean() > 0.0) {
      const double half_width =
          d * per_round.stddev() /
          std::sqrt(static_cast<double>(per_round.count()));
      if (half_width <= req.epsilon * per_round.mean()) break;
    }
  }

  out.n_hat = per_round.mean();
  if (out.rounds >= params_.max_rounds) {
    out.met_by_design = false;
    out.note = "round cap reached before the sequential rule converged";
  }
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
