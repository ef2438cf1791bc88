#pragma once
// FrameEngine — the unified dispatch point for frame execution.
//
// Every protocol in this repository reduces to the four frame shapes of
// frame.hpp (Bloom, ALOHA, single-slot, lottery), each with an exact
// (agent-level) and a sampled (aggregate-law) executor. The engine puts
// all 4 × 2 behind one `FrameRequest` → `FrameResult` seam and adds what
// the free functions cannot offer:
//
//  * reused scratch buffers — no per-frame slot-count allocation;
//  * hashers premixed once per frame, outside the tag loop;
//  * `execute_batch`: a blocked exact-mode path that walks the
//    population ONCE per batch, computing all k slots of every queued
//    Bloom frame per tag — the many-frames-over-one-population workload
//    of the Fig 9/10 sweeps pays the population walk once per batch
//    instead of once per frame;
//  * per-shape execution counters (frames, slots simulated, tag
//    transmissions, host wall-clock), the instrumentation the benches
//    print via core/monitor.
//
// Determinism contract:
//  * `execute` consumes the caller's RNG in exactly the order the legacy
//    `run_*` / `sampled_*` executors did — results are bit-identical, so
//    `sim::run_experiment` stays a pure function of (master seed, trial
//    index) across the refactor.
//  * `execute_batch` is equally deterministic (a pure function of the
//    engine state, the request list and the RNG state), but the blocked
//    path draws its persistence decisions from a stream derived from one
//    draw of the caller's generator, so it is bit-identical to sequential
//    execution only when the tag-side responses draw no RNG
//    (PersistenceMode::kRnBits). For the stochastic persistence modes it
//    realises the same law (tests verify by two-sample KS).
//  * The opt-in sharded pipeline (ExecutionPolicy) extends the same
//    contract to intra-frame parallelism for EVERY shape × mode through
//    one plan/render/reduce decomposition: each frame is hoisted into a
//    small plan (slot geometry + a per-tag or per-draw decision rule),
//    the render stage walks the population (exact) or the response
//    draws (sampled) across shards with counter-addressed randomness —
//    util::splitmix_at over a per-frame SeedMixer base, exactly one
//    caller-RNG draw per stochastic frame — and the reduce stage merges
//    shard-private planes and observes through the channel in request
//    order. Results are bit-identical for ANY shard count; frames whose
//    tag-side decisions draw no RNG (kRnBits Bloom, p = 1 ALOHA,
//    single-slot, lottery) are bit-identical to the sequential walk
//    too, and sampled mode additionally batches all binomial responder
//    draws through one pass (the batched sampler).
//
// The legacy free functions in frame.hpp survive as thin wrappers over a
// transient engine, so untouched estimators keep working unchanged.

#include <array>
#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "rfid/channel.hpp"
#include "rfid/frame.hpp"
#include "rfid/population.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace bfce::rfid {

/// The four frame shapes. Values index EngineCounters::by_shape.
enum class FrameShape : std::uint8_t {
  kBloom = 0,
  kAloha = 1,
  kSingleSlot = 2,
  kLottery = 3,
};

inline constexpr std::size_t kFrameShapeCount = 4;

/// Short lowercase label ("bloom", "aloha", ...).
const char* to_cstring(FrameShape shape) noexcept;

/// Parameters of one slotted-ALOHA frame (1 hashed slot, persistence p).
struct AlohaFrameConfig {
  std::uint32_t f = 128;   ///< frame size in slots
  double p = 1.0;          ///< persistence probability
  std::uint64_t seed = 0;  ///< broadcast slot-hash seed
};

/// Parameters of one ZOE-style single-slot frame.
struct SingleSlotConfig {
  double q = 1.0;          ///< participation probability
  std::uint64_t seed = 0;  ///< broadcast participation-hash seed
};

/// Parameters of one geometric lottery frame.
struct LotteryFrameConfig {
  std::uint32_t f = 32;    ///< frame size in slots
  std::uint64_t seed = 0;  ///< broadcast geometric-hash seed
};

/// One frame to execute. The active alternative selects the shape; the
/// exact/sampled decision belongs to the engine's FrameMode.
struct FrameRequest {
  std::variant<BloomFrameConfig, AlohaFrameConfig, SingleSlotConfig,
               LotteryFrameConfig>
      config;

  FrameShape shape() const noexcept {
    return static_cast<FrameShape>(config.index());
  }

  static FrameRequest bloom(const BloomFrameConfig& cfg) {
    return FrameRequest{cfg};
  }
  static FrameRequest aloha(std::uint32_t f, double p, std::uint64_t seed) {
    return FrameRequest{AlohaFrameConfig{f, p, seed}};
  }
  static FrameRequest single_slot(double q, std::uint64_t seed) {
    return FrameRequest{SingleSlotConfig{q, seed}};
  }
  static FrameRequest lottery(std::uint32_t f, std::uint64_t seed) {
    return FrameRequest{LotteryFrameConfig{f, seed}};
  }
};

/// What one frame produced. Only the member matching the request's shape
/// is populated (`busy` for Bloom/lottery, `states` for ALOHA, `single`
/// for single-slot); `tx` always holds the number of individual tag
/// transmissions — the input to the tag-side energy model.
struct FrameResult {
  FrameShape shape = FrameShape::kBloom;
  util::BitVector busy;
  std::vector<SlotState> states;
  SlotState single = SlotState::kIdle;
  std::uint64_t tx = 0;
};

/// Opt-in intra-frame parallelism for every frame shape × mode.
///
/// Exact mode: the sharded walk splits the population into contiguous
/// tag ranges, one per shard; each shard decides and hashes its own
/// tags into private per-frame planes (word-packed bitmaps for
/// Bloom/lottery, a two-plane ≥1/≥2 bitmap for ALOHA, responder tallies
/// for single-slot; all cache-line padded) and the shards merge with
/// word-wide ORs / sums. Per-tag stochastic decisions are
/// counter-addressed — util::splitmix_at(frame base, tag index), the
/// base derived via util::SeedMixer from one caller-RNG draw and the
/// frame's broadcast parameters — so the result is a pure function of
/// the seed and bit-identical for ANY shard count (tests assert 1/4/8,
/// and tools/analyze's determinism rules keep the walk free of ambient
/// entropy).
///
/// Sampled mode: the batched sampler draws every frame's binomial
/// responder count on the caller's stream in request order (phase 1),
/// scatters all response draws into shard-private count planes with
/// counter-addressed slots (phase 2, the only parallel stage), then
/// sums the planes and observes through the channel in request order
/// (phase 3) — equally shard-count invariant.
///
/// Contract relative to the sequential paths: frames whose tag-side
/// decisions draw no RNG (kRnBits Bloom, p = 1 ALOHA, single-slot,
/// lottery) are bit-identical to sequential execution, RNG position
/// included; stochastic persistence and the sampled scatter realise the
/// same law with different bits (tests verify by two-sample KS).
/// Channel observation stays slot-major on the caller's stream in every
/// case.
struct ExecutionPolicy {
  /// Walk selection. kSequential preserves the legacy RNG-stream
  /// contract; kSharded trades it for intra-frame parallelism plus the
  /// vectorised decision/scatter kernels; kAuto prices each frame /
  /// batch with the committed cost model (rfid/exec_plan.hpp) and picks
  /// whichever walk is cheaper — never slower than kSequential, and for
  /// law-divergent batches the choice is a pure function of the request
  /// list, the population size and the committed table (not the host),
  /// so kAuto results stay reproducible across machines.
  enum class Walk : std::uint8_t { kSequential = 0, kSharded = 1, kAuto = 2 };

  Walk walk = Walk::kSequential;
  /// Worker shards; 0 ⇒ util::default_thread_count() (BFCE_THREADS).
  std::uint32_t shards = 0;
  /// Work items (tags in exact mode, response draws in sampled mode)
  /// below shards·min_tags_per_shard run on fewer shards — purely a
  /// scheduling decision, results do not change.
  std::size_t min_tags_per_shard = 4096;
  /// Gate for the AVX-512 decision/scatter kernels. Results are
  /// bit-identical with it on or off (tests flip this to compare SIMD
  /// vs scalar).
  bool allow_simd = true;

  [[nodiscard]] constexpr bool is_sharded() const noexcept {
    return walk == Walk::kSharded;
  }
  [[nodiscard]] constexpr bool is_auto() const noexcept {
    return walk == Walk::kAuto;
  }

  static constexpr ExecutionPolicy sequential() noexcept { return {}; }
  static constexpr ExecutionPolicy sharded(std::uint32_t count = 0) noexcept {
    ExecutionPolicy policy;
    policy.walk = Walk::kSharded;
    policy.shards = count;
    return policy;
  }
  /// Adaptive policy: the engine routes each frame / batch through
  /// whichever walk the cost model prices cheaper. `count` caps the
  /// shard hint like sharded()'s argument does (0 ⇒ BFCE_THREADS /
  /// hardware count).
  static constexpr ExecutionPolicy automatic(std::uint32_t count = 0) noexcept {
    ExecutionPolicy policy;
    policy.walk = Walk::kAuto;
    policy.shards = count;
    return policy;
  }
};

/// Execution counters for one frame shape.
struct ShapeCounters {
  std::uint64_t frames = 0;   ///< frames executed
  std::uint64_t slots = 0;    ///< slots simulated (w, f or 1 per frame)
  std::uint64_t tag_tx = 0;   ///< individual tag transmissions generated
  double wall_us = 0.0;       ///< host wall-clock spent executing

  ShapeCounters& operator+=(const ShapeCounters& o) noexcept {
    frames += o.frames;
    slots += o.slots;
    tag_tx += o.tag_tx;
    wall_us += o.wall_us;
    return *this;
  }
};

/// Per-shape counters plus batch statistics. Summable across engines
/// (sim::summarize_records aggregates them over trials).
struct EngineCounters {
  std::array<ShapeCounters, kFrameShapeCount> by_shape{};
  std::uint64_t batches = 0;          ///< execute_batch calls
  std::uint64_t blocked_batches = 0;  ///< batches taken by the blocked path
  std::uint64_t sharded_walks = 0;    ///< sharded walks / batched-sampler runs
  std::uint64_t sampled_batches = 0;  ///< batched-sampler runs (subset)
  std::uint64_t auto_sharded = 0;     ///< kAuto decisions routed sharded
  std::uint64_t auto_sequential = 0;  ///< kAuto decisions routed sequential

  ShapeCounters& of(FrameShape s) noexcept {
    return by_shape[static_cast<std::size_t>(s)];
  }
  const ShapeCounters& of(FrameShape s) const noexcept {
    return by_shape[static_cast<std::size_t>(s)];
  }

  /// Sum over all shapes.
  ShapeCounters total() const noexcept {
    ShapeCounters t;
    for (const ShapeCounters& s : by_shape) t += s;
    return t;
  }

  EngineCounters& operator+=(const EngineCounters& o) noexcept {
    for (std::size_t i = 0; i < kFrameShapeCount; ++i) {
      by_shape[i] += o.by_shape[i];
    }
    batches += o.batches;
    blocked_batches += o.blocked_batches;
    sharded_walks += o.sharded_walks;
    sampled_batches += o.sampled_batches;
    auto_sharded += o.auto_sharded;
    auto_sequential += o.auto_sequential;
    return *this;
  }
};

/// Batched frame executor over one tag population (or, in sampled mode,
/// over an abstract cardinality). Not thread-safe; one engine per reader
/// context / per worker, exactly like the RNG streams it consumes.
class FrameEngine {
 public:
  /// Engine over a concrete population; serves both modes.
  FrameEngine(const TagPopulation& tags, Channel channel, FrameMode mode,
              ExecutionPolicy policy = {})
      : tags_(&tags),
        n_(tags.size()),
        channel_(channel),
        mode_(mode),
        policy_(policy) {}

  /// Sampled-only engine over an abstract cardinality `n` (no per-tag
  /// state exists, so kExact requests are invalid).
  FrameEngine(std::size_t n, Channel channel)
      : tags_(nullptr), n_(n), channel_(channel), mode_(FrameMode::kSampled) {}

  [[nodiscard]] FrameMode mode() const noexcept { return mode_; }
  [[nodiscard]] const Channel& channel() const noexcept { return channel_; }
  [[nodiscard]] std::size_t population_size() const noexcept { return n_; }

  /// The intra-frame parallelism policy (see ExecutionPolicy).
  [[nodiscard]] const ExecutionPolicy& policy() const noexcept { return policy_; }
  void set_policy(ExecutionPolicy policy) noexcept { policy_ = policy; }

  /// Executes one frame in the engine's mode. Under a sequential policy
  /// it consumes `rng` exactly as the legacy executor for (shape, mode)
  /// did — bit-identical results; a sharded policy routes through the
  /// plan/render/reduce walk (exact) or the batched sampler (sampled),
  /// see the ExecutionPolicy contract. A kAuto policy picks per frame
  /// with the cost model (use_sharded_path).
  FrameResult execute(const FrameRequest& request, util::Xoshiro256ss& rng);

  /// Executes a batch of frames. A sharded policy runs the whole batch
  /// (any shape mix) through one plan/render/reduce walk (exact) or one
  /// batched-sampler pass (sampled); a kAuto policy does the same only
  /// when the cost model prices the walk cheaper than the sequential
  /// dispatch below, pinning the decision to the committed scalar floor
  /// whenever the two walks diverge in bits. Sequential policies keep the
  /// legacy dispatch: all-Bloom exact-mode batches of ≥ 2 frames take
  /// the blocked path (one population walk for the whole batch);
  /// everything else runs the frames sequentially through execute().
  /// See the determinism contract above.
  std::vector<FrameResult> execute_batch(
      const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng);

  [[nodiscard]] const EngineCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = EngineCounters{}; }

 private:
  // Scalar per-frame paths, bit-identical to the legacy executors.
  void exact_bloom(const BloomFrameConfig& cfg, util::Xoshiro256ss& rng,
                   FrameResult& out);
  void sampled_bloom(const BloomFrameConfig& cfg, util::Xoshiro256ss& rng,
                     FrameResult& out);
  void exact_aloha(const AlohaFrameConfig& cfg, util::Xoshiro256ss& rng,
                   FrameResult& out);
  void sampled_aloha(const AlohaFrameConfig& cfg, util::Xoshiro256ss& rng,
                     FrameResult& out);
  void exact_single(const SingleSlotConfig& cfg, util::Xoshiro256ss& rng,
                    FrameResult& out);
  void sampled_single(const SingleSlotConfig& cfg, util::Xoshiro256ss& rng,
                      FrameResult& out);
  void exact_lottery(const LotteryFrameConfig& cfg, util::Xoshiro256ss& rng,
                     FrameResult& out);
  void sampled_lottery(const LotteryFrameConfig& cfg, util::Xoshiro256ss& rng,
                       FrameResult& out);

  /// Blocked exact-mode Bloom batch: one population walk for all frames.
  std::vector<FrameResult> execute_bloom_batch_blocked(
      const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng);

  /// Universal sharded exact-mode frame / batch (any shape mix): the
  /// plan/render/reduce walk with counter-addressed decisions,
  /// shard-private planes and word-wide merge.
  void exact_sharded(const FrameRequest& request, util::Xoshiro256ss& rng,
                     FrameResult& out);
  std::vector<FrameResult> execute_batch_sharded(
      const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng);

  /// Batched sampler: all sampled-mode frames of a batch planned in one
  /// pass (binomials on the caller's stream, request order), response
  /// draws scattered across shards, planes summed and observed in
  /// request order. Used whenever the policy is sharded.
  std::vector<FrameResult> execute_sampled_batch(
      const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng);

  /// Shard count the policy resolves to for `work` items (tags in exact
  /// mode, response draws in sampled mode).
  [[nodiscard]] std::uint32_t effective_shards(std::size_t work) const noexcept;

  /// The kAuto routing decision for one frame / batch: prices both
  /// walks with the committed cost model (rfid/exec_plan.hpp) and bumps
  /// the auto_sharded / auto_sequential counter for the winner.
  bool use_sharded_path(const FrameRequest* const* requests,
                        std::size_t count);

  /// counts_[0..w) → busy bitmap through the channel (frame-major RNG).
  util::BitVector counts_to_busy(const std::uint32_t* counts, std::size_t w,
                                 util::Xoshiro256ss& rng) const;

  const TagPopulation* tags_;
  std::size_t n_;
  Channel channel_;
  FrameMode mode_;
  ExecutionPolicy policy_;
  EngineCounters counters_;
  std::vector<std::uint32_t> counts_;        ///< per-frame scratch
  std::vector<std::uint32_t> batch_counts_;  ///< blocked/sampler slot counts
  std::vector<std::uint64_t> shard_bits_;    ///< walk + sampler word planes
  std::vector<std::uint64_t> shard_tx_;      ///< sharded-path tx tallies
  std::vector<std::uint16_t> lane_scratch_;  ///< sharded-path lane ids
  std::vector<std::uint32_t> slot_scratch_;  ///< sampler scatter slot ids
};

}  // namespace bfce::rfid
