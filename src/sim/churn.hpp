#pragma once
// Dynamic tag populations: arrival/departure processes over monitoring
// periods. Drives population tracking, the CUSUM monitor and their
// tests and examples (a warehouse is never static).

#include <cstdint>

#include "rfid/population.hpp"
#include "util/rng.hpp"

namespace bfce::sim {

/// Per-period churn process: each present tag departs independently
/// with `departure_prob`; a Poisson(`arrival_mean`) batch of brand-new
/// tags arrives.
struct ChurnModel {
  double departure_prob = 0.0;
  double arrival_mean = 0.0;

  bool operator==(const ChurnModel&) const = default;
};

/// What one period did to the population.
struct ChurnStep {
  std::size_t departed = 0;
  std::size_t arrived = 0;
  std::size_t population = 0;  ///< size after the step
};

/// A tag population evolving over discrete periods with persistent tag
/// identities (the same Tag object survives across periods until it
/// departs).
class PopulationTimeline {
 public:
  /// Starts with `initial` tags drawn uniformly; deterministic in seed.
  PopulationTimeline(std::size_t initial, std::uint64_t seed);

  [[nodiscard]] const rfid::TagPopulation& current() const noexcept { return current_; }
  [[nodiscard]] std::size_t size() const noexcept { return current_.size(); }

  /// Advances one period under `model`.
  ChurnStep step(const ChurnModel& model);

 private:
  rfid::Tag fresh_tag();

  util::Xoshiro256ss rng_;
  std::uint64_t next_id_salt_ = 0;
  rfid::TagPopulation current_;
};

}  // namespace bfce::sim
