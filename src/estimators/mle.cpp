#include "estimators/mle.hpp"

#include <algorithm>
#include <cmath>

#include "estimators/lof.hpp"
#include "math/erf.hpp"

namespace bfce::estimators {

namespace {

double log_likelihood(const std::vector<MleEstimator::FrameEvidence>& frames,
                      std::uint32_t f, double n) {
  const double f_d = static_cast<double>(f);
  double ll = 0.0;
  for (const auto& fr : frames) {
    const double q = std::exp(-fr.p * n / f_d);
    // Clamp away from {0,1} so saturated frames contribute finitely.
    const double qc = std::clamp(q, 1e-12, 1.0 - 1e-12);
    const double e = static_cast<double>(fr.empties);
    ll += e * std::log(qc) + (f_d - e) * std::log1p(-qc);
  }
  return ll;
}

}  // namespace

double MleEstimator::maximize_likelihood(
    const std::vector<FrameEvidence>& frames, std::uint32_t frame_size,
    double n_max) {
  // Golden-section search on ln n; L is unimodal in n for this family.
  constexpr double kInvPhi = 0.6180339887498949;
  double lo = 0.0;  // ln 1
  double hi = std::log(n_max);
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  double f1 = log_likelihood(frames, frame_size, std::exp(x1));
  double f2 = log_likelihood(frames, frame_size, std::exp(x2));
  for (int it = 0; it < 200 && hi - lo > 1e-10; ++it) {
    if (f1 < f2) {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      f2 = log_likelihood(frames, frame_size, std::exp(x2));
    } else {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      f1 = log_likelihood(frames, frame_size, std::exp(x1));
    }
  }
  return std::exp(0.5 * (lo + hi));
}

EstimateOutcome MleEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;

  LofEstimator pilot(LofParams{32, 2, params_.seed_bits});
  const EstimateOutcome pilot_out = pilot.estimate(ctx, req);
  out.airtime += pilot_out.airtime;
  double n_hat = std::max(1.0, pilot_out.n_hat);

  const double f_d = static_cast<double>(params_.frame_size);
  const double d = math::confidence_d(req.delta);
  std::vector<FrameEvidence> evidence;
  evidence.reserve(params_.max_rounds);

  for (std::uint32_t r = 0; r < params_.max_rounds; ++r) {
    const double p = std::min(1.0, params_.lambda_target * f_d / n_hat);
    const std::uint64_t seed = ctx.next_seed();
    const rfid::FrameResult frame =
        ctx.run_frame(rfid::FrameRequest::aloha(params_.frame_size, p, seed));
    out.airtime.tag_tx_bits += frame.tx;
    out.airtime.add_reader_broadcast(params_.seed_bits + params_.size_bits);
    out.airtime.add_tag_slots(params_.frame_size);
    ++out.rounds;

    std::uint32_t empties = 0;
    for (const rfid::SlotState s : frame.states) {
      if (!rfid::is_busy(s)) ++empties;
    }
    evidence.push_back(FrameEvidence{p, empties});
    n_hat = maximize_likelihood(evidence, params_.frame_size,
                                params_.n_search_max);

    // Fisher-information stop: at load λ per frame, each frame pins n to
    // a relative sd of √((e^λ−1))/(λ√f); r frames shrink it by √r.
    const double lam = std::min(params_.lambda_target, p * n_hat / f_d);
    if (lam > 1e-9) {
      const double rel_sd_one =
          std::sqrt(std::exp(lam) - 1.0) / (lam * std::sqrt(f_d));
      const double rel_sd =
          rel_sd_one / std::sqrt(static_cast<double>(r + 1));
      if (d * rel_sd <= req.epsilon) break;
    }
  }

  out.n_hat = n_hat;
  if (out.rounds >= params_.max_rounds) {
    out.met_by_design = false;
    out.note = "round cap reached before the Fisher bound";
  }
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
