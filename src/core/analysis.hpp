#pragma once
// The closed-form machinery behind BFCE (Theorems 1-4 of the paper).
//
// All functions here are pure: they let the reader choose parameters and
// invert observations without touching the simulator, and they are what
// the analytical benches (Fig 4, Fig 5) evaluate directly.

#include <cstdint>
#include <optional>

namespace bfce::core {

/// λ = k·p·n / w — the per-slot load of Theorem 1.
double slot_load(double n, std::uint32_t w, std::uint32_t k, double p);

/// Pr{B(i) = 1} = e^{−λ}: probability a slot stays idle (Theorem 1).
double idle_probability(double lambda);

/// σ(X) = √(e^{−λ}(1 − e^{−λ})): per-slot Bernoulli deviation.
double sigma_x(double lambda);

/// Theorem 2's inversion: n̂ = −w·ln(ρ̄)/(k·p).
/// Precondition: 0 < rho < 1 (callers must handle the degenerate all-0 /
/// all-1 bitmaps before inverting).
double estimate_from_rho(double rho, std::uint32_t w, std::uint32_t k,
                         double p);

/// f1 of Theorem 3: standardised distance of the lower accuracy edge.
/// f1 = (e^{−λ(1+ε)} − e^{−λ}) / (σ(X)/√w); decreasing in n for small p.
double f1(double n, std::uint32_t w, std::uint32_t k, double p, double eps);

/// f2 of Theorem 3: standardised distance of the upper accuracy edge.
/// f2 = (e^{−λ(1−ε)} − e^{−λ}) / (σ(X)/√w); increasing in n for small p.
double f2(double n, std::uint32_t w, std::uint32_t k, double p, double eps);

/// Outcome of the Theorem 4 persistence-probability search.
struct PersistenceChoice {
  std::uint32_t p_n = 0;   ///< numerator: p = p_n / 1024
  double p = 0.0;          ///< the probability itself
  bool satisfies = false;  ///< true iff f1 ≤ −d and f2 ≥ d at n_low
  double margin = 0.0;     ///< min(−f1, f2) − d (≥ 0 iff satisfies)

  /// Exact (bit-pattern) equality; makes PlannerEntry comparable for
  /// snapshot round-trip checks.
  bool operator==(const PersistenceChoice&) const = default;
};

/// γ = −ln(ρ̄)/(k·p) scalability envelope of §IV-B / Fig 4, evaluated on
/// the paper's {1/1024, …, 1023/1024} grid for both p and ρ̄.
struct GammaBounds {
  double min = 0.0;  ///< paper: 0.000326 for k = 3
  double max = 0.0;  ///< paper: 2365.9 for k = 3
  double p_at_min = 0.0, rho_at_min = 0.0;
  double p_at_max = 0.0, rho_at_max = 0.0;

  /// Maximum estimable cardinality, max·w (paper: > 19 million).
  double max_cardinality(std::uint32_t w) const {
    return max * static_cast<double>(w);
  }
};

/// Scans the grid and returns the γ envelope for `k` hash functions.
GammaBounds gamma_bounds(std::uint32_t k, std::uint32_t grid = 1024);

/// CLT prediction for the relative standard deviation of n̂ at true
/// cardinality n: delta-method through Theorem 2's inversion gives
///     sd(n̂)/n = σ(X) / (√w · λ · e^{−λ}),   λ = k·p·n/w.
/// This is what the accurate phase's p_o search implicitly bounds; the
/// variance-validation bench compares it against measurement.
double predicted_relative_sd(double n, std::uint32_t w, std::uint32_t k,
                             double p);

/// Two-sided confidence interval for n from one observed idle ratio.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Inverts ρ̄ ± d·√(ρ̄(1−ρ̄)/w) through Theorem 2 (ρ̄ is decreasing in n,
/// so the upper ρ edge gives the lower n edge). `delta` is the error
/// probability; preconditions as for estimate_from_rho.
ConfidenceInterval interval_from_rho(double rho, std::uint32_t w,
                                     std::uint32_t k, double p,
                                     double delta);

}  // namespace bfce::core
