#pragma once
// Crash-safe service state: versioned, checksummed snapshots.
//
// A snapshot captures everything an EstimationService must carry across
// a process death to behave as if it never died:
//
//  * every terminal JobResult, verbatim (completed work is never
//    re-executed; restored waiters see the recorded bytes);
//  * every queued or running *portable* job (service/portable.hpp) — on
//    restore these are re-admitted under their original JobIds and
//    re-executed from their seeds. Job execution is a pure function of
//    the spec, so the re-run is bit-identical to what the dead process
//    would have produced — including in-flight busy-map BitVectors,
//    which rebuild identically from the same counter-addressed streams;
//  * the PersistencePlanner memo cache (core::PlannerEntry list), so the
//    restored service serves the same Theorem-4 answers from the same
//    warm keys;
//  * per-reader Kalman tracker rows and every other metrics aggregate —
//    not serialized separately but recomputed on restore by re-running
//    the terminal results through the accounting path, which keeps the
//    two representations impossible to desynchronize.
//
// File format (all integers little-endian; doubles by bit pattern;
// field-by-field layout in docs/SERVICE.md):
//
//   [0..3]   magic  "BFSS" (0x53534642 as LE u32)
//   [4..7]   format version (kSnapshotVersion)
//   [8..15]  payload byte count
//   [16..23] CRC-64/ECMA of the payload
//   [24..]   payload (decoded only after the CRC verifies)
//
// Version policy: the version is bumped on ANY payload layout change;
// there are no in-band extension points. load_snapshot rejects other
// versions with kBadVersion — a warm restart across an upgrade falls
// back to a cold start, never to a misparse. The committed golden
// fixture (tests/data/golden_snapshot.bin) pins the byte layout, so
// accidental drift fails a test instead of shipping.
//
// save_snapshot is crash-atomic: bytes go to "<path>.tmp.<pid>", are
// fsync'd, and only then rename(2)'d over the destination (the POSIX
// atomic-replace idiom), followed by an fsync of the directory. A crash
// at any point leaves either the old snapshot or the new one, never a
// torn file.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "rfid/channel.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/timing.hpp"
#include "service/job.hpp"
#include "service/portable.hpp"

namespace bfce::service {

/// Every way loading a snapshot can fail, as a closed set: the reader
/// never throws and never invokes UB on hostile bytes — fault-injection
/// tests feed it truncated, bit-flipped and version-bumped files under
/// ASan/UBSan and expect exactly these codes.
enum class SnapshotError : std::uint8_t {
  kNone = 0,            ///< success
  kIoError,             ///< open/read/write/rename failed (see errno)
  kTruncated,           ///< file shorter than header + declared payload
  kBadMagic,            ///< first four bytes are not "BFSS"
  kBadVersion,          ///< payload layout from another format version
  kChecksumMismatch,    ///< payload bytes do not match the header CRC
  kMalformed,           ///< CRC passed but a field failed validation
  kConfigMismatch,      ///< snapshot from an incompatible service substrate
  kBadState,            ///< restore() target is not a fresh service
};

/// Short lowercase label ("truncated", "bad_version", ...).
const char* to_cstring(SnapshotError error) noexcept;

inline constexpr std::uint32_t kSnapshotMagic = 0x53534642u;  // "BFSS"
/// 2: an outcome's design byte also says whether the requirement was
/// infeasible (0 missed, 1 met, 2 infeasible).
inline constexpr std::uint32_t kSnapshotVersion = 2;
/// Refuse to even read files larger than this (a snapshot is state, not
/// bulk data; 1 GiB is far beyond any real service).
inline constexpr std::uint64_t kMaxSnapshotBytes = std::uint64_t{1} << 30;

/// The planner cache section.
struct PlannerSnapshot {
  bool present = false;
  std::uint32_t n_low_mantissa_bits = 52;
  std::vector<core::PlannerEntry> entries;
};

/// In-memory form of one snapshot. Produced by
/// EstimationService::snapshot(), consumed by restore(); the codec
/// below moves it to and from bytes.
struct ServiceSnapshot {
  /// Fingerprint of (mode, channel, timing) — the substrate every job's
  /// results depend on. restore() refuses a mismatch (kConfigMismatch):
  /// replaying a job on a different substrate would silently change its
  /// estimates. The engine policy is deliberately excluded — sharding
  /// is bit-identical by construction, so a snapshot may be restored
  /// under any shard policy.
  std::uint64_t substrate_fingerprint = 0;
  std::uint64_t next_id = 1;
  std::uint64_t rejected = 0;
  /// Queued/running jobs that could NOT be captured (in-process
  /// pointer/factory specs, federation jobs). They are lost on restore;
  /// callers that need crash-safety submit portable jobs.
  std::uint64_t non_portable_skipped = 0;
  PlannerSnapshot planner;
  /// Terminal results, sorted by id (deterministic encoding).
  std::vector<std::pair<JobId, JobResult>> completed;
  /// Queued/running portable jobs, sorted by id.
  std::vector<std::pair<JobId, PortableJobSpec>> pending;
};

/// Fingerprint over the substrate triple (see
/// ServiceSnapshot::substrate_fingerprint).
std::uint64_t substrate_fingerprint(rfid::FrameMode mode,
                                    const rfid::ChannelModel& channel,
                                    const rfid::TimingModel& timing) noexcept;

/// JobResult codec, shared with the wire front door's RESULT frame.
/// Decode failure latches r.fail(); the result is then partial.
void encode_job_result(util::ByteWriter& w, const JobResult& result);
void decode_job_result(util::ByteReader& r, JobResult& result);

/// Full file image (header + payload). Deterministic: equal snapshots
/// encode to equal bytes.
std::vector<std::uint8_t> encode_snapshot(const ServiceSnapshot& snap);

/// Decodes a full file image. On failure `out` is partially filled and
/// must be discarded.
SnapshotError decode_snapshot(const std::uint8_t* data, std::size_t size,
                              ServiceSnapshot& out);
SnapshotError decode_snapshot(const std::vector<std::uint8_t>& bytes,
                              ServiceSnapshot& out);

/// Crash-atomic write (temp + fsync + rename + directory fsync).
SnapshotError save_snapshot(const ServiceSnapshot& snap,
                            const std::string& path);

/// Reads and decodes `path` with the full typed-error contract.
SnapshotError load_snapshot(const std::string& path, ServiceSnapshot& out);

}  // namespace bfce::service
