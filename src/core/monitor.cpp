#include "core/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "math/erf.hpp"

namespace bfce::core {

std::string render_engine_counters(const rfid::EngineCounters& counters) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-8s %14s %16s %16s %12s\n", "shape",
                "frames", "slots", "tag_tx", "wall_ms");
  out += line;
  const auto row = [&](const char* label, const rfid::ShapeCounters& c) {
    std::snprintf(line, sizeof(line),
                  "%-8s %14llu %16llu %16llu %12.2f\n", label,
                  static_cast<unsigned long long>(c.frames),
                  static_cast<unsigned long long>(c.slots),
                  static_cast<unsigned long long>(c.tag_tx),
                  c.wall_us / 1000.0);
    out += line;
  };
  for (std::size_t i = 0; i < rfid::kFrameShapeCount; ++i) {
    const auto shape = static_cast<rfid::FrameShape>(i);
    const rfid::ShapeCounters& c = counters.of(shape);
    if (c.frames == 0) continue;  // don't print shapes that never ran
    row(rfid::to_cstring(shape), c);
  }
  row("total", counters.total());
  std::snprintf(line, sizeof(line),
                "batches: %llu (%llu sharded walks)\n",
                static_cast<unsigned long long>(counters.batches),
                static_cast<unsigned long long>(counters.sharded_walks));
  out += line;
  return out;
}

MonitorReading CardinalityMonitor::update(
    estimators::CardinalityEstimator& estimator, rfid::ReaderContext& ctx) {
  const estimators::EstimateOutcome out =
      estimator.estimate(ctx, params_.req);
  return ingest(out.n_hat, out.airtime.total_seconds(ctx.timing()));
}

MonitorReading CardinalityMonitor::ingest(double n_hat, double time_s) {
  MonitorReading r;
  r.n_hat = n_hat;
  r.time_s = time_s;

  if (!primed_) {
    primed_ = true;
    level_ = n_hat;
    r.level = level_;
    return r;  // first reading only establishes the baseline
  }

  // One (ε, δ) estimate has sd ≈ ε·n/d: the contract bounds the
  // d-sigma half-width by ε·n, so ε·n/d is the per-reading noise unit.
  const double d = math::confidence_d(params_.req.delta);
  const double sd =
      std::max(1.0, params_.req.epsilon * std::max(level_, 1.0) / d);
  const double z = (n_hat - level_) / sd;
  r.innovation_sd = sd;

  cusum_high_ = std::max(0.0, cusum_high_ + z - params_.cusum_k);
  cusum_low_ = std::max(0.0, cusum_low_ - z - params_.cusum_k);
  r.cusum_high = cusum_high_;
  r.cusum_low = cusum_low_;
  r.gain_alarm = cusum_high_ > params_.cusum_h;
  r.loss_alarm = cusum_low_ > params_.cusum_h;

  if (r.gain_alarm || r.loss_alarm) {
    // Re-anchor on the new level; accumulators restart.
    level_ = n_hat;
    cusum_high_ = 0.0;
    cusum_low_ = 0.0;
  } else {
    level_ += params_.alpha * (n_hat - level_);
  }
  r.level = level_;
  return r;
}

void CardinalityMonitor::reset() noexcept {
  primed_ = false;
  level_ = 0.0;
  cusum_low_ = 0.0;
  cusum_high_ = 0.0;
}

}  // namespace bfce::core
