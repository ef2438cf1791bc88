// Composite scenario test: the library's pieces working together over a
// 30-period warehouse story — churn timeline, BFCE estimates, CUSUM
// monitor.
#include <gtest/gtest.h>

#include "core/bfce.hpp"
#include "core/monitor.hpp"
#include "rfid/reader.hpp"
#include "sim/churn.hpp"

namespace bfce {
namespace {

TEST(Scenario, ThirtyPeriodWarehouseStory) {
  // Phase A (periods 1-10): balanced churn around 40000 tags.
  // Phase B (periods 11-30): departures exceed arrivals (net ~1.5%/period
  // loss).
  sim::PopulationTimeline warehouse(40000, 2026);
  core::BfceEstimator bfce;
  core::CardinalityMonitor monitor;

  const sim::ChurnModel balanced{0.02, 800.0};  // stationary at 40000
  const sim::ChurnModel draining{0.03, 600.0};  // stationary at 20000

  int alarms_phase_a = 0;
  int first_alarm_period = -1;
  for (int period = 1; period <= 30; ++period) {
    warehouse.step(period <= 10 ? balanced : draining);

    // Daily BFCE round feeding the monitor.
    rfid::ReaderContext ctx(warehouse.current(),
                            9000 + static_cast<std::uint64_t>(period),
                            rfid::FrameMode::kSampled);
    const auto reading = monitor.update(bfce, ctx);
    if (period <= 10 && (reading.loss_alarm || reading.gain_alarm)) {
      ++alarms_phase_a;
    }
    if (period > 10 && reading.loss_alarm && first_alarm_period < 0) {
      first_alarm_period = period;
    }
  }

  // Balanced phase: the monitor stays quiet.
  EXPECT_EQ(alarms_phase_a, 0);
  // Draining phase: the drift is caught within the window.
  EXPECT_GT(first_alarm_period, 10);
  EXPECT_LE(first_alarm_period, 30);
}

}  // namespace
}  // namespace bfce
