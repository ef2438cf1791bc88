#pragma once
// The reader-side execution context handed to estimation protocols.

#include <cstdint>
#include <vector>

#include "rfid/channel.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/framelog.hpp"
#include "rfid/population.hpp"
#include "rfid/timing.hpp"
#include "util/rng.hpp"

namespace bfce::rfid {

/// Everything a protocol needs to run against one tag population:
/// the tags, the channel, the timing model, the frame-execution mode and
/// a deterministic RNG stream (used both for protocol randomness — seed
/// generation — and for the channel/persistence draws).
///
/// Frames are executed by the context's FrameEngine: protocols build a
/// FrameRequest and submit it via run_frame / run_batch; the engine
/// dispatches on (shape, mode), reuses its scratch buffers across the
/// run and keeps per-shape execution counters.
///
/// Multiple physical readers synchronised by a back-end server behave as
/// one logical reader (§III-A, following ZOE); this context *is* that
/// logical reader.
class ReaderContext {
 public:
  ReaderContext(const TagPopulation& tags, std::uint64_t seed,
                FrameMode mode = FrameMode::kExact,
                ChannelModel channel_model = {},
                TimingModel timing_model = {},
                ExecutionPolicy engine_policy = {})
      : tags_(&tags),
        timing_(timing_model),
        engine_(tags, Channel(channel_model), mode, engine_policy),
        rng_(util::derive_seed(seed, 0x5EEDED5EEDED5EEDULL)) {}

  [[nodiscard]] const TagPopulation& tags() const noexcept { return *tags_; }
  [[nodiscard]] const Channel& channel() const noexcept { return engine_.channel(); }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }
  [[nodiscard]] FrameMode mode() const noexcept { return engine_.mode(); }
  util::Xoshiro256ss& rng() noexcept { return rng_; }

  /// The context's frame executor (counters, batch submission).
  FrameEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const FrameEngine& engine() const noexcept { return engine_; }

  /// Executes one frame in the context's mode through the engine.
  FrameResult run_frame(const FrameRequest& request) {
    return engine_.execute(request, rng_);
  }

  /// Executes a batch of frames through the engine (one sharded walk
  /// under a sharded policy, else the frames one by one in order).
  std::vector<FrameResult> run_batch(const std::vector<FrameRequest>& batch) {
    return engine_.execute_batch(batch, rng_);
  }

  /// Fresh 64-bit random seed for a reader broadcast (hash seeds etc.).
  std::uint64_t next_seed() noexcept { return rng_(); }

  /// Attaches a frame log; protocols append one record per frame while
  /// it is attached. The log must outlive the estimation calls.
  void attach_log(FrameLog* log) noexcept { log_ = log; }
  [[nodiscard]] FrameLog* log() const noexcept { return log_; }

  /// Protocol-side helper: records a frame if a log is attached.
  void log_frame(FrameKind kind, std::uint32_t slots_observed, double p,
                 std::uint32_t busy, double duration_us) {
    if (log_ == nullptr) return;
    log_->append(FrameRecord{kind, slots_observed, p, busy, duration_us});
  }

 private:
  const TagPopulation* tags_;
  TimingModel timing_;
  FrameEngine engine_;
  util::Xoshiro256ss rng_;
  FrameLog* log_ = nullptr;
};

}  // namespace bfce::rfid
