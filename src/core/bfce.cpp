#include "core/bfce.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "math/erf.hpp"
#include "math/stats.hpp"
#include "util/bitvector.hpp"

namespace bfce::core {

namespace {

/// Fresh per-phase frame configuration with newly broadcast seeds.
rfid::BloomFrameConfig make_config(rfid::ReaderContext& ctx,
                                   const BfceParams& params,
                                   std::uint32_t p_n) {
  rfid::BloomFrameConfig cfg;
  cfg.w = params.w;
  cfg.k = params.k;
  cfg.hash = params.hash;
  cfg.persistence = params.persistence;
  cfg.set_p_numerator(p_n);
  for (std::uint32_t j = 0; j < params.k; ++j) cfg.seeds[j] = ctx.next_seed();
  return cfg;
}

/// Idle ratio over slots [from, to) of a busy bitmap.
double idle_ratio(const util::BitVector& busy, std::size_t from,
                  std::size_t to) {
  const std::size_t busy_count =
      busy.count_ones_prefix(to) - busy.count_ones_prefix(from);
  return 1.0 - static_cast<double>(busy_count) /
                   static_cast<double>(to - from);
}

/// One reader: every frame runs through the context's own engine (which
/// dispatches on the execution mode), and the bitmap is inverted at the
/// broadcast persistence itself.
class ReaderFrameSource final : public BloomFrameSource {
 public:
  explicit ReaderFrameSource(rfid::ReaderContext& ctx) : ctx_(ctx) {}

  rfid::ReaderContext& coordinator() override { return ctx_; }

  util::BitVector run(const rfid::BloomFrameConfig& cfg,
                      std::uint64_t& tx) override {
    rfid::FrameResult res = ctx_.run_frame(rfid::FrameRequest::bloom(cfg));
    tx += res.tx;
    return std::move(res.busy);
  }

 private:
  rfid::ReaderContext& ctx_;
};

}  // namespace

estimators::EstimateOutcome run_bfce(BloomFrameSource& source,
                                     const BfceParams& prm,
                                     const estimators::Requirement& req,
                                     BfceTrace& trace) {
  estimators::EstimateOutcome out;
  trace = BfceTrace{};
  rfid::ReaderContext& ctx = source.coordinator();
  const PersistenceLaw law = source.law();
  // The persistence that inverts a bitmap broadcast at p. An empty law
  // returns p itself, so one reader's arithmetic is untouched.
  const auto g = [&law](double p) { return law ? law(p) : p; };
  const std::uint64_t seed_broadcast_bits =
      static_cast<std::uint64_t>(prm.k) * prm.seed_bits;

  // ---- Persistence probe and rough phase (§IV-C) --------------------
  // Find a p_s whose 32-slot window shows both idle and busy slots. A
  // degenerate window abandons its frame for a new broadcast: doubled p
  // after an all-idle window, −1/1024 after an all-busy one; each
  // abandoned probe costs its broadcast and window. The last probe frame
  // is not abandoned: it is the rough frame, and the reader keeps
  // listening on it.
  std::uint32_t p_s_n = prm.probe_start_pn;
  rfid::BloomFrameConfig rough_cfg;
  util::BitVector rough_busy;
  double t_rough_before = 0.0;
  for (std::uint32_t iter = 1;; ++iter) {
    ++trace.probe_iterations;
    rough_cfg = make_config(ctx, prm, p_s_n);
    t_rough_before = out.airtime.total_us(ctx.timing());
    rough_busy = source.run(rough_cfg, out.airtime.tag_tx_bits);

    const std::size_t busy_count =
        rough_busy.count_ones_prefix(prm.probe_slots);
    std::uint32_t next = p_s_n;  // a mixed window keeps p_s
    if (busy_count == 0) {
      next = std::min<std::uint32_t>(1023, p_s_n * 2);
    } else if (busy_count == prm.probe_slots) {
      next = p_s_n > prm.probe_down_step ? p_s_n - prm.probe_down_step : 1;
    }
    // Mixed, or at the ceiling, floor or iteration cap: listen on.
    if (next == p_s_n || iter >= prm.max_probe_iters) break;

    out.airtime.add_reader_broadcast(seed_broadcast_bits + prm.p_bits);
    out.airtime.add_tag_slots(prm.probe_slots);
    ctx.log_frame(rfid::FrameKind::kProbe, prm.probe_slots, rough_cfg.p,
                  static_cast<std::uint32_t>(busy_count),
                  out.airtime.total_us(ctx.timing()) - t_rough_before);
    p_s_n = next;
  }
  trace.p_s_numerator = p_s_n;

  // The rough phase listens to `rough_prefix` slots of the probe's frame
  // and doubles the window up to the full w while it is degenerate (all
  // idle / all busy). n̂_r comes from the slots after the probe window:
  // that window was kept for being mixed, so counting it would bias n̂_r.
  std::uint32_t observed = prm.rough_prefix;
  double rho = idle_ratio(rough_busy, prm.probe_slots, observed);
  while ((rho <= 0.0 || rho >= 1.0) && observed < prm.w) {
    observed = std::min(prm.w, observed * 2);
    rho = idle_ratio(rough_busy, prm.probe_slots, observed);
  }
  out.airtime.add_reader_broadcast(seed_broadcast_bits + prm.p_bits);
  // The ledger mirrors §IV-E.1: the interval preceding the reply window
  // is already charged by add_reader_broadcast; the slots follow without
  // a trailing gap (the next broadcast charges its own).
  out.airtime.tag_bits += observed;
  ctx.log_frame(rfid::FrameKind::kBloomRough, observed, rough_cfg.p,
                static_cast<std::uint32_t>(
                    rough_busy.count_ones_prefix(observed)),
                out.airtime.total_us(ctx.timing()) - t_rough_before);

  trace.rho_rough = rho;
  trace.rough_slots_observed = observed;

  double n_rough;
  if (rho >= 1.0) {
    // Even the full bitmap is all idle: fewer tags than the estimator can
    // see at the ceiling probability. Report the smallest resolvable n.
    n_rough = 1.0;
    out.met_by_design = false;
    out.note = "rough phase saw an all-idle bitmap";
  } else if (rho <= 0.0) {
    // Saturated even at the floor probability: clamp at the scalability
    // envelope (γ_max · w, the >19M bound of §IV-B).
    n_rough = estimate_from_rho(1.0 / static_cast<double>(prm.w), prm.w,
                                prm.k, g(rough_cfg.p));
    out.met_by_design = false;
    out.note = "rough phase saw an all-busy bitmap";
  } else {
    n_rough = estimate_from_rho(rho, prm.w, prm.k, g(rough_cfg.p));
  }
  trace.n_rough = n_rough;
  const double n_low = std::max(1.0, prm.c * n_rough);
  trace.n_low = n_low;

  // ---- Phase 2: accurate estimation (§IV-D) --------------------------
  // The identity law goes through the shared planner, keyed like every
  // plain BFCE job; any other law runs the law-aware scan.
  const PersistenceChoice choice =
      prm.planner != nullptr && !law
          ? prm.planner->choose(n_low, prm.w, prm.k, req.epsilon, req.delta)
          : PersistencePlanner::search(n_low, prm.w, prm.k, req.epsilon,
                                       req.delta, law);
  trace.p_choice = choice;
  if (!choice.satisfies) {
    out.met_by_design = false;
    out.infeasible =
        !PersistencePlanner::feasibility(prm.w, req.epsilon, req.delta)
             .feasible;
    if (out.note.empty()) {
      out.note = "no p on the 1/1024 grid satisfies Theorem 3 at n_low";
    }
  }

  const auto acc_cfg = make_config(ctx, prm, choice.p_n);
  const double t_acc_before = out.airtime.total_us(ctx.timing());
  const util::BitVector acc_busy = source.run(acc_cfg, out.airtime.tag_tx_bits);
  out.airtime.intervals += 1;  // gap between phase-1 replies and broadcast
  out.airtime.add_reader_broadcast(seed_broadcast_bits + prm.p_bits);
  out.airtime.tag_bits += prm.w;
  ctx.log_frame(rfid::FrameKind::kBloomAccurate, prm.w, acc_cfg.p,
                static_cast<std::uint32_t>(acc_busy.count_ones()),
                out.airtime.total_us(ctx.timing()) - t_acc_before);

  double rho_acc = idle_ratio(acc_busy, 0, prm.w);
  if (rho_acc <= 0.0) {
    rho_acc = 1.0 / static_cast<double>(prm.w);
    trace.rho_clamped = true;
  } else if (rho_acc >= 1.0) {
    rho_acc = 1.0 - 1.0 / static_cast<double>(prm.w);
    trace.rho_clamped = true;
  }
  trace.rho_accurate = rho_acc;

  const double g_o = g(acc_cfg.p);
  out.n_hat = estimate_from_rho(rho_acc, prm.w, prm.k, g_o);
  const ConfidenceInterval ci =
      interval_from_rho(rho_acc, prm.w, prm.k, g_o, req.delta);
  out.ci_low = ci.lo;
  out.ci_high = ci.hi;
  out.rounds = 1;  // the whole protocol is a single two-phase round
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

estimators::EstimateOutcome BfceEstimator::estimate(
    rfid::ReaderContext& ctx, const estimators::Requirement& req) {
  BfceTrace trace;
  return estimate_traced(ctx, req, trace);
}

estimators::EstimateOutcome BfceEstimator::estimate_traced(
    rfid::ReaderContext& ctx, const estimators::Requirement& req,
    BfceTrace& trace) {
  ReaderFrameSource source(ctx);
  return run_bfce(source, params_, req, trace);
}

estimators::EstimateOutcome AveragedBfceEstimator::estimate(
    rfid::ReaderContext& ctx, const estimators::Requirement& req) {
  estimators::EstimateOutcome out;
  out.rounds = 0;
  math::RunningStats estimates;
  for (std::uint32_t r = 0; r < rounds_; ++r) {
    const estimators::EstimateOutcome one = inner_.estimate(ctx, req);
    estimates.add(one.n_hat);
    out.airtime += one.airtime;
    ++out.rounds;
    out.met_by_design = out.met_by_design && one.met_by_design;
    out.infeasible = out.infeasible || one.infeasible;
    if (!one.note.empty() && out.note.empty()) out.note = one.note;
  }
  out.n_hat = estimates.mean();
  if (estimates.count() >= 2) {
    const double half = math::confidence_d(req.delta) * estimates.stddev() /
                        std::sqrt(static_cast<double>(estimates.count()));
    out.ci_low = out.n_hat - half;
    out.ci_high = out.n_hat + half;
  }
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::core
