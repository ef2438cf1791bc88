#pragma once
// Frame-level protocol log.
//
// When a ReaderContext carries a FrameLog, protocols append one record
// per over-the-air frame: what kind of frame, its parameters, what came
// back, and what it cost. The log serves three purposes:
//
//  * tests assert protocol *structure* (BFCE = probes → one truncated
//    rough frame → one full accurate frame, in that order);
//  * the `protocol_timeline` example renders the log as an ASCII
//    timeline, making "where does ZOE's time go?" visible;
//  * users get a machine-readable transcript of any estimation run.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "rfid/timing.hpp"

namespace bfce::rfid {

enum class FrameKind : std::uint8_t {
  kProbe,        ///< BFCE persistence-probe window
  kBloomRough,   ///< BFCE phase-1 (truncated) Bloom frame
  kBloomAccurate,///< BFCE phase-2 full Bloom frame
  kSingleSlot,   ///< ZOE/PET/A³ one-slot frame
  kAloha,        ///< slotted ALOHA frame (SRC, EZB, UPE, ART, MLE, A³, FNEB)
  kLottery,      ///< geometric lottery frame (LOF, rough phases)
  kOther,
};

std::string to_string(FrameKind kind);

/// One over-the-air frame as the log sees it.
struct FrameRecord {
  FrameKind kind = FrameKind::kOther;
  std::uint32_t slots_observed = 0;  ///< bit-slots the reader listened to
  double p = 0.0;                    ///< persistence/sampling probability
  std::uint32_t busy = 0;            ///< busy slots observed
  /// Airtime of this frame including its parameter broadcast (µs under
  /// the context's timing model).
  double duration_us = 0.0;
};

/// Append-only per-run frame transcript.
class FrameLog {
 public:
  void append(FrameRecord record) { records_.push_back(record); }
  void clear() noexcept { records_.clear(); }

  const std::vector<FrameRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Number of records of one kind.
  std::size_t count(FrameKind kind) const noexcept;

  /// Total logged duration (µs).
  double total_duration_us() const noexcept;

  /// Renders an ASCII timeline: one bar per frame kind, width
  /// proportional to its share of the total duration, with counts.
  void render_timeline(std::ostream& os, std::uint32_t width = 60) const;

 private:
  std::vector<FrameRecord> records_;
};

}  // namespace bfce::rfid
