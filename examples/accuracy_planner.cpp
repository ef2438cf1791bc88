// Protocol planner: explore BFCE's Theorem 3/4 machinery without running
// a simulation. Given a rough idea of the population size and an (ε, δ)
// target, prints the persistence probability BFCE would select, the
// resulting slot load, the expected bitmap composition, and the fixed
// airtime budget.
//
//   $ accuracy_planner [--n_low=250000] [--eps=0.05] [--delta=0.05]

#include <cmath>
#include <cstdio>

#include "core/analysis.hpp"
#include "core/planner.hpp"
#include "math/erf.hpp"
#include "rfid/timing.hpp"
#include "util/cli.hpp"

using namespace bfce;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"n_low", "eps", "delta", "w", "k"});
  const double n_low = cli.get_double("n_low", 250000.0);
  const double eps = cli.get_double("eps", 0.05);
  const double delta = cli.get_double("delta", 0.05);
  const auto w = static_cast<std::uint32_t>(cli.get_int("w", 8192));
  const auto k = static_cast<std::uint32_t>(cli.get_int("k", 3));

  const double d = math::confidence_d(delta);
  std::printf("requirement: Pr{|n_hat - n| <= %.2f n} >= %.2f  "
              "(z-score d = %.4f)\n\n",
              eps, 1.0 - delta, d);

  const core::PersistenceChoice choice =
      core::PersistencePlanner::search(n_low, w, k, eps, delta);
  if (choice.satisfies) {
    std::printf("selected p_o = %u/1024 = %.6f (minimal satisfying "
                "Theorem 3 at n_low=%.0f)\n",
                choice.p_n, choice.p, n_low);
  } else {
    std::printf("NO grid p satisfies Theorem 3 at n_low=%.0f; "
                "best-effort p = %u/1024 (margin %.3f)\n",
                n_low, choice.p_n, choice.margin);
    std::printf("(the paper restricts BFCE to n > 1000 for this reason)\n");
  }

  // What the accurate phase will look like if n is up to 1/c times n_low.
  std::printf("\n%-12s %-10s %-12s %-12s %-8s %-8s\n", "assumed n",
              "lambda", "E[idle] (1s)", "E[busy] (0s)", "f1", "f2");
  for (const double mult : {1.0, 1.5, 2.0, 3.0}) {
    const double n = n_low * mult;
    const double lambda = core::slot_load(n, w, k, choice.p);
    const double idle = std::exp(-lambda) * w;
    std::printf("%-12.0f %-10.4f %-12.1f %-12.1f %-8.2f %-8.2f\n", n,
                lambda, idle, w - idle, core::f1(n, w, k, choice.p, eps),
                core::f2(n, w, k, choice.p, eps));
  }

  // Scalability envelope and the fixed time budget.
  const core::GammaBounds b = core::gamma_bounds(k);
  std::printf("\nscalability: %.6f*w <= n_hat <= %.1f*w  "
              "(max cardinality %.1f million for w=%u)\n",
              b.min, b.max, b.max_cardinality(w) / 1e6, w);

  rfid::Airtime budget;
  budget.reader_bits = 2 * (k * 32 + 32);
  budget.intervals = 3;
  budget.tag_bits = 1024 + w;
  std::printf("fixed two-phase airtime (excl. probes): %.4f s  "
              "(paper bound: < 0.19 s at w=8192)\n",
              budget.total_seconds(rfid::TimingModel{}));
  return 0;
}
