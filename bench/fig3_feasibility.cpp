// Fig 3 — feasibility of BFCE: the near-linear relation between the tag
// cardinality n and the number of 0s/1s in the Bloom vector B, for
// w = 8192, k = 3 and p ∈ {0.1, 0.2}.
//
// Paper shape to reproduce: #1s (idle slots) decays with n, #0s (busy
// slots) rises, and for moderate loads the relation looks linear; the
// analytic expectation w·e^{−λ} tracks the measurements.

#include <cmath>

#include "bench_common.hpp"
#include "core/analysis.hpp"
#include "rfid/frame_engine.hpp"
#include "util/rng.hpp"

using namespace bfce;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"trials", "exact"});
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 10));
  bench::PopulationCache pops(cli.seed());

  util::Table table({"n", "p", "ones_measured", "zeros_measured",
                     "ones_expected", "zeros_expected"});

  constexpr std::uint32_t kW = 8192;
  constexpr std::uint32_t kK = 3;
  for (std::size_t n = 0; n <= 100000; n += 10000) {
    for (const double p : {0.1, 0.2}) {
      double ones_sum = 0.0;
      const auto& pop =
          pops.get(n, rfid::TagIdDistribution::kT1Uniform);
      rfid::FrameEngine engine(
          pop, rfid::Channel{},
          cli.has("exact") ? rfid::FrameMode::kExact
                           : rfid::FrameMode::kSampled);
      for (std::size_t t = 0; t < trials; ++t) {
        util::Xoshiro256ss rng(util::derive_seed(cli.seed(), t * 7919 + n));
        rfid::BloomFrameConfig cfg;
        cfg.w = kW;
        cfg.k = kK;
        cfg.p = p;
        cfg.p_n = static_cast<std::uint32_t>(p * 1024.0);
        for (std::uint32_t j = 0; j < kK; ++j) cfg.seeds[j] = rng();
        const util::BitVector busy =
            engine.execute(rfid::FrameRequest::bloom(cfg), rng).busy;
        // Paper polarity: B(i)=1 ⇔ idle.
        ones_sum += static_cast<double>(kW - busy.count_ones());
      }
      const double ones = ones_sum / static_cast<double>(trials);
      const double lambda =
          core::slot_load(static_cast<double>(n), kW, kK, p);
      const double ones_exp = kW * std::exp(-lambda);
      table.add_row({util::Table::num(static_cast<std::uint64_t>(n)),
                     util::Table::num(p, 1), util::Table::num(ones, 1),
                     util::Table::num(8192.0 - ones, 1),
                     util::Table::num(ones_exp, 1),
                     util::Table::num(8192.0 - ones_exp, 1)});
    }
  }
  bench::emit(cli, "Fig 3: #0s/#1s in B vs n (w=8192, k=3)", table);
  std::puts("shape check: ones decay ~ w*exp(-3pn/w); near-linear for small "
            "lambda; measurements should track the expectation columns.");
  return 0;
}
