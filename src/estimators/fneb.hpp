#pragma once
// FNEB — First-Non-Empty-slot-Based estimator (Han et al., INFOCOM 2010).
//
// The reader announces a very large virtual frame; every tag picks a
// uniform slot. The frame is terminated as soon as the first busy slot
// is heard; with U the first busy slot index (0-based),
//     E[U] ≈ f/(n+1),
// so repeating R rounds and averaging gives n̂ = f/Ū − 1. U is nearly
// exponentially distributed (coefficient of variation ≈ 1), so R =
// ⌈(d/ε)²⌉ rounds deliver an (ε, δ) mean — and each round costs only
// ~f/n slots thanks to early termination. Each round logs one
// rfid::FrameKind::kAloha record covering the u + 1 slots it heard.

#include <cstdint>
#include <string>

#include "estimators/estimator.hpp"

namespace bfce::estimators {

struct FnebParams {
  std::uint32_t frame_size = 1u << 20;  ///< virtual frame (announced, never run)
  std::uint32_t seed_bits = 32;
  std::uint32_t size_bits = 32;         ///< the large frame needs a wide field
  std::uint32_t max_rounds = 4096;
};

class FnebEstimator final : public CardinalityEstimator {
 public:
  FnebEstimator() = default;
  explicit FnebEstimator(FnebParams params) : params_(params) {}

  std::string name() const override { return "FNEB"; }
  [[nodiscard]] const FnebParams& params() const noexcept { return params_; }

  EstimateOutcome estimate(rfid::ReaderContext& ctx,
                           const Requirement& req) override;

 private:
  FnebParams params_;
};

}  // namespace bfce::estimators
