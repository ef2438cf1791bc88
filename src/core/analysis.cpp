#include "core/analysis.hpp"

#include <cassert>
#include <cmath>

#include "math/erf.hpp"

namespace bfce::core {

double slot_load(double n, std::uint32_t w, std::uint32_t k, double p) {
  assert(w > 0 && k > 0);
  return static_cast<double>(k) * p * n / static_cast<double>(w);
}

double idle_probability(double lambda) { return std::exp(-lambda); }

double sigma_x(double lambda) {
  const double e = std::exp(-lambda);
  return std::sqrt(e * (1.0 - e));
}

double estimate_from_rho(double rho, std::uint32_t w, std::uint32_t k,
                         double p) {
  assert(rho > 0.0 && rho < 1.0);
  assert(p > 0.0);
  return -static_cast<double>(w) * std::log(rho) /
         (static_cast<double>(k) * p);
}

namespace {

/// Shared kernel of f1/f2: (e^{−λ(1+s·ε)} − e^{−λ}) · √w / σ(X).
double f_edge(double n, std::uint32_t w, std::uint32_t k, double p,
              double eps, double sign) {
  const double lambda = slot_load(n, w, k, p);
  const double sigma = sigma_x(lambda);
  if (sigma == 0.0) {
    // λ = 0 (empty system) or λ = ∞ (saturated): the CLT edge degenerates.
    return 0.0;
  }
  return (std::exp(-lambda * (1.0 + sign * eps)) - std::exp(-lambda)) *
         std::sqrt(static_cast<double>(w)) / sigma;
}

}  // namespace

double f1(double n, std::uint32_t w, std::uint32_t k, double p, double eps) {
  return f_edge(n, w, k, p, eps, +1.0);
}

double f2(double n, std::uint32_t w, std::uint32_t k, double p, double eps) {
  return f_edge(n, w, k, p, eps, -1.0);
}

double predicted_relative_sd(double n, std::uint32_t w, std::uint32_t k,
                             double p) {
  const double lambda = slot_load(n, w, k, p);
  if (lambda <= 0.0) return 0.0;
  return sigma_x(lambda) /
         (std::sqrt(static_cast<double>(w)) * lambda * std::exp(-lambda));
}

ConfidenceInterval interval_from_rho(double rho, std::uint32_t w,
                                     std::uint32_t k, double p,
                                     double delta) {
  assert(rho > 0.0 && rho < 1.0);
  const double d = math::confidence_d(delta);
  const double half_width =
      d * std::sqrt(rho * (1.0 - rho) / static_cast<double>(w));
  const double floor_rho = 1.0 / (2.0 * static_cast<double>(w));
  const double rho_hi =
      std::fmin(rho + half_width, 1.0 - floor_rho);  // → n lower edge
  const double rho_lo = std::fmax(rho - half_width, floor_rho);  // → upper
  ConfidenceInterval ci;
  ci.lo = estimate_from_rho(rho_hi, w, k, p);
  ci.hi = estimate_from_rho(rho_lo, w, k, p);
  return ci;
}

GammaBounds gamma_bounds(std::uint32_t k, std::uint32_t grid) {
  assert(k > 0 && grid > 1);
  GammaBounds b;
  bool first = true;
  for (std::uint32_t i = 1; i < grid; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(grid);
    for (std::uint32_t j = 1; j < grid; ++j) {
      const double rho = static_cast<double>(j) / static_cast<double>(grid);
      const double gamma = -std::log(rho) / (static_cast<double>(k) * p);
      if (first || gamma < b.min) {
        b.min = gamma;
        b.p_at_min = p;
        b.rho_at_min = rho;
      }
      if (first || gamma > b.max) {
        b.max = gamma;
        b.p_at_max = p;
        b.rho_at_max = rho;
      }
      first = false;
    }
  }
  return b;
}

}  // namespace bfce::core
