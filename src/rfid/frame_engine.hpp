#pragma once
// FrameEngine — the one place frames are executed.
//
// Every estimation protocol in this repository reduces to four frame
// shapes:
//
//   * Bloom frame      — each tag picks k slots by hashing and answers in
//                        each with persistence p (BFCE).
//   * ALOHA frame      — each tag picks 1 slot and answers with
//                        persistence p (UPE, EZB, SRC, ART, A3, MLE).
//   * Single-slot frame— each tag answers in the sole slot with
//                        probability q (ZOE, A3's pivot, PET).
//   * Lottery frame    — each tag picks a geometrically distributed slot
//                        (LOF).
//
// Each shape has an exact executor (`kExact`: walks every tag, the
// ground-truth agent-level simulation) and a sampled one (`kSampled`:
// draws aggregate participation counts from the exact Binomial /
// multinomial laws, statistically equivalent under ideal hashing). The
// engine puts all 4 × 2 behind one `FrameRequest` → `FrameResult` seam
// and adds:
//
//  * reused scratch buffers — no per-frame slot-count allocation;
//  * hashers premixed once per frame, outside the tag loop;
//  * two walks, picked by ExecutionPolicy and nothing else: the
//    sequential per-frame executors and the sharded plan/render/reduce
//    pipeline;
//  * per-shape execution counters (frames, slots simulated, tag
//    transmissions, host wall-clock), the instrumentation the benches
//    print via core/monitor.
//
// Frames enter through ReaderContext::run_frame / run_batch
// (rfid/reader.hpp) or FrameEngine::execute / execute_batch directly.
//
// Determinism contract:
//  * Under a sequential policy `execute` runs the scalar executor for
//    (shape, mode) and consumes the caller's RNG exactly as the
//    pre-engine executors did (tests/frame_engine_test.cpp keeps them as
//    `ref_*`) — results are bit-identical, so `sim::run_experiment`
//    stays a pure function of (master seed, trial index) — and
//    `execute_batch` is `execute` over the requests in order.
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "hash/persistence.hpp"
#include "rfid/channel.hpp"
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

/// Agent-level (`kExact`) vs aggregate-law (`kSampled`) execution.
enum class FrameMode { kExact, kSampled };

/// Which slot-selection hash the tags use in Bloom frames.
enum class HashScheme {
  kIdeal,        ///< full-avalanche seeded hash of the tagID
  kLightweight,  ///< the paper's RN ⊕ RS bitget hash (§IV-E.2)
};

/// Maximum k supported by the fixed-size seed array (the paper uses 3).
inline constexpr std::uint32_t kMaxHashes = 8;

/// Parameters of one Bloom frame.
struct BloomFrameConfig {
  std::uint32_t w = 8192;  ///< number of bit-slots (power of 2 for kLightweight)
  std::uint32_t k = 3;     ///< hash functions per tag
  double p = 1.0;          ///< persistence probability
  /// Numerator of p = p_n/1024 for PersistenceMode::kRnBits; ignored by
  /// the other persistence modes.
  std::uint32_t p_n = 1024;
  HashScheme hash = HashScheme::kIdeal;
  hash::PersistenceMode persistence = hash::PersistenceMode::kIdealBernoulli;
  std::array<std::uint64_t, kMaxHashes> seeds{};

  /// Sets p (and the matching p_n) from a numerator over 1024.
  void set_p_numerator(std::uint32_t numerator) noexcept {
    p_n = numerator;
    p = static_cast<double>(numerator) / 1024.0;
  }
};

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
/// transmissions — the input to the tag-side energy model. `busy` has
/// bit i set ⇔ the reader sensed energy in slot i; the paper's B is its
/// complement (B(i) = 1 for idle), which the estimators convert.
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
  /// vectorised decision/scatter kernels.
  enum class Walk : std::uint8_t { kSequential = 0, kSharded = 1 };

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

  static constexpr ExecutionPolicy sequential() noexcept { return {}; }
  static constexpr ExecutionPolicy sharded(std::uint32_t count = 0) noexcept {
    ExecutionPolicy policy;
    policy.walk = Walk::kSharded;
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
  std::uint64_t blocked_batches = 0;  ///< always 0; bench_e2e, snapshot read it
  std::uint64_t sharded_walks = 0;    ///< sharded walks / batched-sampler runs
  std::uint64_t sampled_batches = 0;  ///< batched-sampler runs (subset)
  std::uint64_t auto_sharded = 0;     ///< always 0; bench_e2e reads it
  std::uint64_t auto_sequential = 0;  ///< always 0; bench_e2e reads it

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
  /// see the ExecutionPolicy contract.
  FrameResult execute(const FrameRequest& request, util::Xoshiro256ss& rng);

  /// Executes a batch of frames. A sharded policy runs the whole batch
  /// (any shape mix) through one plan/render/reduce walk (exact) or one
  /// batched-sampler pass (sampled); a sequential policy runs execute()
  /// over the requests in order. See the determinism contract above.
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
  std::vector<std::uint32_t> batch_counts_;  ///< sampler lottery slot counts
  std::vector<std::uint64_t> shard_bits_;    ///< walk + sampler word planes
  std::vector<std::uint64_t> shard_tx_;      ///< sharded-path tx tallies
  std::vector<std::uint16_t> lane_scratch_;  ///< sharded-path lane ids
  std::vector<std::uint32_t> slot_scratch_;  ///< sampler scatter slot ids
};

}  // namespace bfce::rfid
