// Fig 10 — overall execution-time comparison of BFCE vs ZOE vs SRC on
// the T2 distribution, same three sweeps as Fig 9.
//
// Paper shape: ZOE costs seconds (up to ~18 s worst case, dominated by
// per-slot 32-bit seed broadcasts and rough-phase restarts); SRC sits in
// between with visible variance; BFCE is flat at < 0.19 s (0.1846 s for a
// one-probe estimate, 6.04 ms more per abandoned probe). Headline
// averages: BFCE ~30× faster than ZOE, ~2× faster than SRC.
//
// Flags: [--trials=15] [--exact] [--shards=N] — --shards routes every
// trial through the sharded engine pipeline (reported protocol times are
// simulated airtime, so only host wall-clock changes).

#include <iostream>

#include "comparison_common.hpp"
#include "core/monitor.hpp"
#include "math/stats.hpp"

using namespace bfce;

namespace {

struct SpeedupAccumulator {
  math::RunningStats zoe_ratio;
  math::RunningStats src_ratio;
  // The paper's headline averages are over the primary (n) sweep at the
  // default requirement; the ε/δ sweeps include points where everything
  // is cheap and dilute the ratio.
  math::RunningStats zoe_ratio_nsweep;
  math::RunningStats src_ratio_nsweep;
  bool in_n_sweep = false;
};

void sweep(const char* title, bench::PopulationCache& pops,
           const util::Cli& cli, std::size_t trials,
           const std::vector<std::tuple<std::size_t, double, double>>& axis,
           const char* axis_name, SpeedupAccumulator& acc) {
  util::Table table({axis_name, "protocol", "time_mean_s", "time_min_s",
                     "time_max_s"});
  for (const auto& [n, eps, delta] : axis) {
    double bfce_mean = 0.0;
    for (const std::string& proto : bench::comparison_protocols()) {
      const auto s =
          bench::comparison_point(pops, proto, n, eps, delta, cli, trials);
      if (proto == "BFCE") bfce_mean = s.time_s.mean;
      if (proto == "ZOE") {
        acc.zoe_ratio.add(s.time_s.mean / bfce_mean);
        if (acc.in_n_sweep) acc.zoe_ratio_nsweep.add(s.time_s.mean / bfce_mean);
      }
      if (proto == "SRC") {
        acc.src_ratio.add(s.time_s.mean / bfce_mean);
        if (acc.in_n_sweep) acc.src_ratio_nsweep.add(s.time_s.mean / bfce_mean);
      }
      std::string x;
      if (std::string(axis_name) == "n") {
        x = util::Table::num(static_cast<std::uint64_t>(n));
      } else if (std::string(axis_name) == "eps") {
        x = util::Table::num(eps, 2);
      } else {
        x = util::Table::num(delta, 2);
      }
      table.add_row({x, proto, util::Table::num(s.time_s.mean, 4),
                     util::Table::num(s.time_s.min, 4),
                     util::Table::num(s.time_s.max, 4)});
    }
  }
  bench::emit(cli, title, table);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"trials", "exact", "shards"});
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 15));
  bench::PopulationCache pops(cli.seed());
  SpeedupAccumulator acc;

  std::vector<std::tuple<std::size_t, double, double>> axis_n;
  for (const std::size_t n : bench::comparison_ns()) {
    axis_n.emplace_back(n, 0.05, 0.05);
  }
  acc.in_n_sweep = true;
  sweep("Fig 10(a): execution time vs n on T2, (eps,delta)=(0.05,0.05)",
        pops, cli, trials, axis_n, "n", acc);
  acc.in_n_sweep = false;

  std::vector<std::tuple<std::size_t, double, double>> axis_eps;
  for (const double eps : bench::comparison_eps()) {
    axis_eps.emplace_back(500000, eps, 0.05);
  }
  sweep("Fig 10(b): execution time vs eps on T2, n=500000, delta=0.05",
        pops, cli, trials, axis_eps, "eps", acc);

  std::vector<std::tuple<std::size_t, double, double>> axis_delta;
  for (const double delta : bench::comparison_deltas()) {
    axis_delta.emplace_back(500000, 0.05, delta);
  }
  sweep("Fig 10(c): execution time vs delta on T2, n=500000, eps=0.05",
        pops, cli, trials, axis_delta, "delta", acc);

  util::Table headline(
      {"ratio", "avg_n_sweep", "avg_all_points", "paper"});
  headline.add_row({"ZOE time / BFCE time",
                    util::Table::num(acc.zoe_ratio_nsweep.mean(), 1),
                    util::Table::num(acc.zoe_ratio.mean(), 1), "~30x"});
  headline.add_row({"SRC time / BFCE time",
                    util::Table::num(acc.src_ratio_nsweep.mean(), 1),
                    util::Table::num(acc.src_ratio.mean(), 1), "~2x"});
  bench::emit(cli,
              "Fig 10 headline: average speedups (primary n sweep at the "
              "default requirement, and all sweep points)",
              headline);
  std::puts("shape check (paper): BFCE flat (0.1846 s closed form, +6 ms "
            "per extra probe) at every point; ZOE seconds (worst cases from "
            "restarts); SRC between, shrinking as eps/delta loosen.");
  std::cout << "\n== frame-engine counters (all sweeps) ==\n"
            << core::render_engine_counters(bench::comparison_counters());
  return 0;
}
