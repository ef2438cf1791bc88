#pragma once
// Self-contained ("portable") job descriptions.
//
// A JobSpec is an in-process object: it points at a caller-owned
// TagPopulation and may carry an arbitrary factory closure. Neither
// survives a process boundary, so two service features need a second
// representation:
//
//  * the wire front door (service/wire.hpp) — a remote client has no
//    way to pass a pointer, so SUBMIT frames carry a PortableJobSpec;
//  * the crash snapshot (service/snapshot.hpp) — jobs still queued or
//    running when the snapshot is cut must be re-admittable in a fresh
//    process, which requires the full job to be value data.
//
// A portable job describes its population instead of pointing at one:
// either synthetically (size, distribution, seed — the service re-runs
// rfid::make_population, which is deterministic) or as an explicit
// membership bitmap over a dense id universe (bit i ⇒ tag id i+1; the
// per-tag RN32 values are derived from the population seed, so the
// materialized population is a pure function of the spec). Because
// materialization is deterministic, a portable job re-admitted after a
// crash produces estimates bit-identical to the uninterrupted run.

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "estimators/estimator.hpp"
#include "rfid/population.hpp"
#include "service/job.hpp"
#include "util/bitvector.hpp"
#include "util/serial.hpp"

namespace bfce::service {

/// Value description of a job's population.
struct PortablePopulation {
  enum class Kind : std::uint8_t {
    kNone = 0,        ///< no population (tracking jobs build their own)
    kSynthetic = 1,   ///< rfid::make_population(size, distribution, seed)
    kMembership = 2,  ///< explicit bitmap: bit i set ⇒ tag id i+1 present
  };

  Kind kind = Kind::kSynthetic;
  std::uint64_t size = 0;  ///< tag count (kSynthetic only)
  rfid::TagIdDistribution distribution = rfid::TagIdDistribution::kT1Uniform;
  /// kSynthetic: the make_population seed. kMembership: the base the
  /// per-tag RN32 values are derived from.
  std::uint64_t seed = 0;
  util::BitVector membership;  ///< kMembership only

  bool operator==(const PortablePopulation& o) const noexcept {
    return kind == o.kind && size == o.size &&
           distribution == o.distribution && seed == o.seed &&
           membership.size() == o.membership.size() &&
           membership.words() == o.membership.words();
  }
};

/// A complete estimation request as value data. Mirrors JobSpec minus
/// the pointer/closure fields (factories cannot cross a process
/// boundary; federation jobs reference a caller-owned Fleet and are
/// therefore not portable either).
struct PortableJobSpec {
  std::string estimator = "BFCE";
  estimators::Requirement req{};
  std::uint64_t seed = 0;
  double airtime_budget_s = std::numeric_limits<double>::infinity();
  double deadline_s = std::numeric_limits<double>::infinity();
  std::uint32_t max_attempts = 1;
  PortablePopulation population;
  std::optional<TrackingJobSpec> tracking;

  bool operator==(const PortableJobSpec& o) const noexcept {
    return estimator == o.estimator && req.epsilon == o.req.epsilon &&
           req.delta == o.req.delta && seed == o.seed &&
           airtime_budget_s == o.airtime_budget_s &&
           deadline_s == o.deadline_s && max_attempts == o.max_attempts &&
           population == o.population && tracking == o.tracking;
  }
};

/// Caps enforced by validate_portable_job (and therefore by every wire
/// SUBMIT and snapshot decode): a hostile or corrupt spec can never make
/// materialization allocate unboundedly.
inline constexpr std::uint64_t kMaxPortableTags = std::uint64_t{1} << 24;
inline constexpr std::uint64_t kMaxMembershipBits = std::uint64_t{1} << 26;
inline constexpr std::size_t kMaxSchedulePhases = 4096;
inline constexpr std::uint64_t kMaxPhaseRounds = std::uint64_t{1} << 20;
inline constexpr std::size_t kMaxEstimatorName = 64;

/// nullptr when the spec is well-formed; otherwise a static description
/// of the first problem (used verbatim in wire error replies).
const char* validate_portable_job(const PortableJobSpec& spec) noexcept;

/// A materialized portable job: the runnable spec plus the population it
/// owns (null for tracking jobs, which build their own timeline).
struct MaterializedJob {
  JobSpec spec;
  std::shared_ptr<const rfid::TagPopulation> population;
};

/// Builds the runnable job. Returns nullopt exactly when
/// validate_portable_job(spec) != nullptr. Deterministic: the same spec
/// always materializes the same population, tag for tag.
std::optional<MaterializedJob> materialize(const PortableJobSpec& spec);

/// Binary codec (shared by the wire SUBMIT frame and the snapshot's
/// pending-job section; field-by-field layout in docs/SERVICE.md).
void encode_portable_job(util::ByteWriter& w, const PortableJobSpec& spec);
/// Decode failure latches r.fail(); the returned spec is then partial.
PortableJobSpec decode_portable_job(util::ByteReader& r);

}  // namespace bfce::service
