#pragma once
// Common interface for all cardinality-estimation protocols.

#include <cmath>
#include <cstdint>
#include <string>

#include "rfid/reader.hpp"
#include "rfid/timing.hpp"

namespace bfce::estimators {

/// The (ε, δ) accuracy requirement of §III-B:
/// Pr{ |n̂ − n| ≤ ε·n } ≥ 1 − δ.
struct Requirement {
  double epsilon = 0.05;  ///< confidence interval (relative error bound)
  double delta = 0.05;    ///< error probability
};

/// Result of one complete run of a protocol.
struct EstimateOutcome {
  double n_hat = 0.0;       ///< estimated cardinality
  /// Two-sided (1−δ) confidence interval around n_hat, when the
  /// protocol can derive one from its final observation (BFCE does, via
  /// the CLT on the accurate-phase idle ratio). Both zero if unset.
  double ci_low = 0.0;
  double ci_high = 0.0;
  rfid::Airtime airtime;    ///< full communication ledger
  double time_us = 0.0;     ///< airtime under the context's timing model
  std::uint32_t rounds = 1; ///< protocol-level rounds (frames vary by protocol)
  /// False when the protocol had to fall back from its design point
  /// (e.g. BFCE found no p satisfying Theorem 3 for tiny populations).
  bool met_by_design = true;
  /// True when the design point was missed because no population can
  /// meet the requirement at this protocol's configuration (BFCE: no
  /// load satisfies Theorem 3 at w). Another seed would miss as well.
  bool infeasible = false;
  std::string note;  ///< human-readable diagnostic, empty when unremarkable

  /// |n̂ − n| / n — the paper's accuracy metric (§V-A).
  double relative_error(double n) const {
    return n <= 0.0 ? std::fabs(n_hat) : std::fabs(n_hat - n) / n;
  }
};

/// A cardinality-estimation protocol. Implementations are stateless
/// between calls except for their configuration; all randomness and
/// population access go through the ReaderContext.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Protocol name as used in the paper's figures ("BFCE", "ZOE", ...).
  virtual std::string name() const = 0;

  /// Runs one complete estimation against `ctx` for requirement `req`.
  virtual EstimateOutcome estimate(rfid::ReaderContext& ctx,
                                   const Requirement& req) = 0;
};

}  // namespace bfce::estimators
