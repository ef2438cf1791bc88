#pragma once
// EPCglobal C1G2 timing model and airtime accounting.
//
// The paper computes execution time from three constants (§IV-E.1, §V-A):
//   reader → tag : 37.76 µs per bit  (26.5 kb/s)
//   tag → reader : 18.88 µs per bit  (53 kb/s)
//   gap between consecutive transmissions: 302 µs
// Every protocol in this repository charges its communication to an
// Airtime ledger; wall-clock numbers in the figures are derived purely
// from this model, exactly as in the paper.

#include <cstdint>

namespace bfce::rfid {

/// The three C1G2 constants (microseconds). Mutable so sensitivity
/// studies can model faster/slower links.
struct TimingModel {
  double reader_bit_us = 37.76;
  double tag_bit_us = 18.88;
  double interval_us = 302.0;
};

/// Communication ledger: everything a protocol put on the air.
struct Airtime {
  std::uint64_t reader_bits = 0;  ///< bits broadcast reader → tags
  std::uint64_t tag_bits = 0;     ///< bit-slots tags → reader (1 bit each)
  std::uint64_t intervals = 0;    ///< inter-transmission gaps
  /// Individual tag transmissions summed over tags (collisions count
  /// every replier). Not part of the wall-clock total — colliding
  /// replies overlap — but the basis of the tag-side energy model.
  std::uint64_t tag_tx_bits = 0;

  /// Charges a reader broadcast of `bits` bits followed by one gap.
  void add_reader_broadcast(std::uint64_t bits) noexcept {
    reader_bits += bits;
    intervals += 1;
  }

  /// Charges `slots` tag→reader bit-slots followed by one gap.
  void add_tag_slots(std::uint64_t slots) noexcept {
    tag_bits += slots;
    intervals += 1;
  }

  /// Charges one frame — a reader broadcast of `bits` bits, then `slots`
  /// tag bit-slots, each followed by a gap — and returns what it adds to
  /// total_us(model): the duration a FrameLog record carries.
  double add_frame(std::uint64_t bits, std::uint64_t slots,
                   const TimingModel& model) noexcept {
    add_reader_broadcast(bits);
    add_tag_slots(slots);
    return static_cast<double>(bits) * model.reader_bit_us +
           static_cast<double>(slots) * model.tag_bit_us +
           2.0 * model.interval_us;
  }

  Airtime& operator+=(const Airtime& other) noexcept {
    reader_bits += other.reader_bits;
    tag_bits += other.tag_bits;
    intervals += other.intervals;
    tag_tx_bits += other.tag_tx_bits;
    return *this;
  }

  /// Total microseconds under `model`.
  double total_us(const TimingModel& model) const noexcept {
    return static_cast<double>(reader_bits) * model.reader_bit_us +
           static_cast<double>(tag_bits) * model.tag_bit_us +
           static_cast<double>(intervals) * model.interval_us;
  }

  double total_seconds(const TimingModel& model) const noexcept {
    return total_us(model) / 1e6;
  }
};

}  // namespace bfce::rfid
