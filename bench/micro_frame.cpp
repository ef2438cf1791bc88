// Micro-benchmarks (google-benchmark): frame-executor throughput — the
// simulator's hot path. Shows the exact/sampled cost gap that motivates
// the two-mode design (DESIGN.md §5), and what FrameEngine's two walks
// (sequential per-frame, sharded plan/render/reduce) buy over the
// pre-engine executor.
//
// Two entry points:
//   * default — the usual google-benchmark driver (filters, repetitions,
//     --benchmark_* flags all work);
//   * `--baseline` — a self-timed comparison at n ∈ {1e4, 1e5, 1e6},
//     written as machine-readable JSON to BENCH_frame.json (and echoed
//     to stdout): the 16-frame exact Bloom batch through the pre-engine
//     executor / the sequential engine (frame by frame, the walk a
//     sequential ReaderContext runs) / the sharded walk, the same batch
//     in sampled mode (sequential executors vs the batched sampler), and
//     a 16-frame exact ALOHA batch (sequential vs sharded). Every column
//     is the median of at least 51 reps; tools/ci.sh --perf-smoke gates
//     the three sequential ones (`engine`, `sampled`, `aloha`).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string_view>
#include <vector>

#include "hash/slot_hash.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/population.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace {

using namespace bfce;

constexpr std::size_t kBatchFrames = 16;

// The PRE-engine Bloom executor, verbatim (per-(tag, j) hasher
// construction, one Bernoulli draw per hash): the "legacy" side of the
// batch comparison.
util::BitVector legacy_run_bloom_frame(const rfid::TagPopulation& tags,
                                       const rfid::BloomFrameConfig& cfg,
                                       const rfid::Channel& channel,
                                       util::Xoshiro256ss& rng) {
  std::vector<std::uint32_t> counts(cfg.w, 0);
  for (const rfid::Tag& tag : tags.tags()) {
    bool shared_respond = true;
    if (cfg.persistence == hash::PersistenceMode::kSharedDraw) {
      shared_respond = rng.bernoulli(cfg.p);
      if (!shared_respond) continue;
    }
    for (std::uint32_t j = 0; j < cfg.k; ++j) {
      std::uint32_t slot;
      if (cfg.hash == rfid::HashScheme::kIdeal) {
        slot = hash::IdealSlotHash(cfg.seeds[j]).slot(tag.id, cfg.w);
      } else {
        slot = hash::LightweightSlotHash(
                   static_cast<std::uint32_t>(cfg.seeds[j]))
                   .slot(tag.rn, cfg.w);
      }
      bool respond;
      switch (cfg.persistence) {
        case hash::PersistenceMode::kIdealBernoulli:
          respond = rng.bernoulli(cfg.p);
          break;
        case hash::PersistenceMode::kSharedDraw:
          respond = shared_respond;
          break;
        case hash::PersistenceMode::kRnBits:
          respond = hash::rn_bits_respond(
              tag.rn, slot, static_cast<std::uint32_t>(cfg.seeds[j]),
              cfg.p_n);
          break;
        default:
          respond = false;
      }
      if (respond) ++counts[slot];
    }
  }
  util::BitVector busy(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (rfid::is_busy(channel.observe(counts[i], rng))) busy.set(i);
  }
  return busy;
}

const rfid::TagPopulation& pop_of(std::size_t n) {
  static std::map<std::size_t, rfid::TagPopulation> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache
             .emplace(n, rfid::make_population(
                             n, rfid::TagIdDistribution::kT1Uniform, n))
             .first;
  }
  return it->second;
}

rfid::BloomFrameConfig bloom_cfg() {
  rfid::BloomFrameConfig cfg;
  cfg.set_p_numerator(64);
  cfg.seeds = {1, 2, 3};
  return cfg;
}

/// The 16-frame Bloom batch of the acceptance benchmark: same (w, k, p)
/// at 16 distinct seed triples, as a probe sequence would broadcast.
std::vector<rfid::FrameRequest> bloom_batch() {
  std::vector<rfid::FrameRequest> batch;
  batch.reserve(kBatchFrames);
  for (std::size_t i = 0; i < kBatchFrames; ++i) {
    rfid::BloomFrameConfig cfg = bloom_cfg();
    cfg.seeds = {3 * i + 1, 3 * i + 2, 3 * i + 3};
    batch.push_back(rfid::FrameRequest::bloom(cfg));
  }
  return batch;
}

void BM_BloomFrameExact(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256ss rng(1);
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact);
  const auto request = rfid::FrameRequest::bloom(bloom_cfg());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(request, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomFrameExact)->Arg(10000)->Arg(100000);

void BM_BloomFrameSampled(benchmark::State& state) {
  util::Xoshiro256ss rng(2);
  rfid::FrameEngine engine(static_cast<std::size_t>(state.range(0)),
                           rfid::Channel{});
  const auto request = rfid::FrameRequest::bloom(bloom_cfg());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(request, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomFrameSampled)->Arg(10000)->Arg(100000)->Arg(1000000);

// Legacy side of the acceptance comparison: 16 exact Bloom frames run
// one by one through the pre-engine executor.
void BM_BloomBatch16Legacy(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256ss rng(7);
  const rfid::Channel ch;
  const auto batch = bloom_batch();
  for (auto _ : state) {
    for (const rfid::FrameRequest& req : batch) {
      benchmark::DoNotOptimize(legacy_run_bloom_frame(
          pop, std::get<rfid::BloomFrameConfig>(req.config), ch, rng));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(kBatchFrames));
}
BENCHMARK(BM_BloomBatch16Legacy)->Arg(10000)->Arg(100000);

// Engine side: the same 16 frames through a sequential engine's
// execute_batch, i.e. one per-frame walk each (hoisted hashers, scratch
// reuse).
void BM_BloomBatch16Engine(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256ss rng(7);
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact);
  const auto batch = bloom_batch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute_batch(batch, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(kBatchFrames));
}
BENCHMARK(BM_BloomBatch16Engine)->Arg(10000)->Arg(100000)->Arg(1000000);

// Sharded side: the same 16 frames through the ExecutionPolicy-sharded
// walk (counter-addressed persistence, word-packed busy synthesis, the
// packed AVX-512 decision kernel where the CPU has one).
void BM_BloomBatch16Sharded(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256ss rng(7);
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact,
                           rfid::ExecutionPolicy::sharded());
  const auto batch = bloom_batch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute_batch(batch, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(kBatchFrames));
}
BENCHMARK(BM_BloomBatch16Sharded)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_SingleSlotExact(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256ss rng(3);
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact);
  const double q = 1.594 / static_cast<double>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.execute(rfid::FrameRequest::single_slot(q, ++seed), rng));
  }
}
BENCHMARK(BM_SingleSlotExact)->Arg(10000)->Arg(100000);

void BM_SingleSlotSampled(benchmark::State& state) {
  util::Xoshiro256ss rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  rfid::FrameEngine engine(n, rfid::Channel{});
  const auto request =
      rfid::FrameRequest::single_slot(1.594 / static_cast<double>(n), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(request, rng));
  }
}
BENCHMARK(BM_SingleSlotSampled)->Arg(100000)->Arg(10000000);

void BM_LotteryFrameExact(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256ss rng(5);
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.execute(rfid::FrameRequest::lottery(32, ++seed), rng));
  }
}
BENCHMARK(BM_LotteryFrameExact)->Arg(10000)->Arg(100000);

void BM_AlohaFrameSampled(benchmark::State& state) {
  util::Xoshiro256ss rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  rfid::FrameEngine engine(n, rfid::Channel{});
  const auto request = rfid::FrameRequest::aloha(
      1024, 1.594 * 1024 / static_cast<double>(n), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(request, rng));
  }
}
BENCHMARK(BM_AlohaFrameSampled)->Arg(100000)->Arg(1000000);

// ---------------------------------------------------------------------
// --baseline: the self-timed acceptance comparison → BENCH_frame.json.

/// Median seconds for one run of `body` over at least kMinReps runs and
/// kMinTotalS of accumulated time, after one untimed warm-up (page
/// faults, scratch growth). Every column uses it, so each speedup ratio
/// compares like with like; on a shared host the median discards the
/// reps a load spike landed in, where best-of and mean-of drift apart by
/// several percent between runs of the same code.
template <typename F>
double median_seconds(F&& body) {
  constexpr std::size_t kMinReps = 51;
  constexpr double kMinTotalS = 0.5;
  using clock = std::chrono::steady_clock;
  body();
  std::vector<double> reps;
  double total = 0.0;
  while (reps.size() < kMinReps || total < kMinTotalS) {
    const auto t0 = clock::now();
    body();
    const auto t1 = clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    reps.push_back(s);
    total += s;
  }
  std::sort(reps.begin(), reps.end());
  const std::size_t mid = reps.size() / 2;
  return reps.size() % 2 == 1 ? reps[mid]
                              : 0.5 * (reps[mid - 1] + reps[mid]);
}

/// 16 exact ALOHA frames (f = 1024, p = 1) at distinct seeds — the
/// non-Bloom probe of the sharded plan/render/reduce walk. p = 1 draws
/// no tag-side RNG, so the sharded result is bit-identical to the
/// sequential one.
std::vector<rfid::FrameRequest> aloha_batch() {
  std::vector<rfid::FrameRequest> batch;
  batch.reserve(kBatchFrames);
  for (std::size_t i = 0; i < kBatchFrames; ++i) {
    batch.push_back(rfid::FrameRequest::aloha(1024, 1.0, 100 + i));
  }
  return batch;
}

int run_baseline() {
  const std::vector<std::size_t> ns = {10000, 100000, 1000000};
  const auto batch = bloom_batch();
  const auto exact_aloha = aloha_batch();
  const auto cfg = bloom_cfg();

  std::string json;
  char buf[2048];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"micro_frame\",\n"
                "  \"batch_frames\": %zu,\n"
                "  \"frame\": {\"w\": %u, \"k\": %u, \"p\": %.6f},\n"
                "  \"points\": [",
                kBatchFrames, cfg.w, cfg.k, cfg.p);
  json += buf;

  std::printf("16-frame exact Bloom batch, pre-engine executor vs the "
              "sequential engine vs the sharded walk;\n"
              "plus the same batch in sampled mode (batched sampler) and "
              "a 16-frame exact ALOHA batch (f=1024, p=1)\n");
  std::printf("%10s %15s %15s %15s %8s %8s %15s %8s %15s %8s\n", "n",
              "legacy_tags/s", "engine_tags/s", "sharded_tags/s", "eng_x",
              "shard_x", "sampled_tags/s", "samp_x", "aloha_tags/s",
              "aloha_x");

  bool first = true;
  for (const std::size_t n : ns) {
    const auto& pop = pop_of(n);
    const rfid::Channel ch;

    util::Xoshiro256ss legacy_rng(7);
    const double legacy_s = median_seconds([&] {
      for (const rfid::FrameRequest& req : batch) {
        benchmark::DoNotOptimize(legacy_run_bloom_frame(
            pop, std::get<rfid::BloomFrameConfig>(req.config), ch,
            legacy_rng));
      }
    });

    // Exact Bloom: the sequential engine runs the batch frame by frame.
    rfid::FrameEngine engine(pop, ch, rfid::FrameMode::kExact);
    util::Xoshiro256ss engine_rng(7);
    const double engine_s = median_seconds([&] {
      benchmark::DoNotOptimize(engine.execute_batch(batch, engine_rng));
    });

    rfid::FrameEngine sharded(pop, ch, rfid::FrameMode::kExact,
                              rfid::ExecutionPolicy::sharded());
    util::Xoshiro256ss sharded_rng(7);
    const double sharded_s = median_seconds([&] {
      benchmark::DoNotOptimize(sharded.execute_batch(batch, sharded_rng));
    });

    // Sampled mode: the same 16-frame Bloom batch as aggregate response
    // draws — sequential per-frame executors vs the batched sampler.
    rfid::FrameEngine sampled(n, ch);
    util::Xoshiro256ss sampled_rng(7);
    const double sampled_s = median_seconds([&] {
      benchmark::DoNotOptimize(sampled.execute_batch(batch, sampled_rng));
    });

    rfid::FrameEngine sampled_shd(n, ch);
    sampled_shd.set_policy(rfid::ExecutionPolicy::sharded());
    util::Xoshiro256ss sampled_shd_rng(7);
    const double sampled_sharded_s = median_seconds([&] {
      benchmark::DoNotOptimize(
          sampled_shd.execute_batch(batch, sampled_shd_rng));
    });

    // Exact ALOHA: sequential per-frame walk vs the sharded walk.
    rfid::FrameEngine aloha_eng(pop, ch, rfid::FrameMode::kExact);
    util::Xoshiro256ss aloha_rng(7);
    const double aloha_s = median_seconds([&] {
      benchmark::DoNotOptimize(aloha_eng.execute_batch(exact_aloha, aloha_rng));
    });

    rfid::FrameEngine aloha_shd(pop, ch, rfid::FrameMode::kExact,
                                rfid::ExecutionPolicy::sharded());
    util::Xoshiro256ss aloha_shd_rng(7);
    const double aloha_sharded_s = median_seconds([&] {
      benchmark::DoNotOptimize(
          aloha_shd.execute_batch(exact_aloha, aloha_shd_rng));
    });

    const double tags = static_cast<double>(n * kBatchFrames);
    const double legacy_tps = tags / legacy_s;
    const double engine_tps = tags / engine_s;
    const double sharded_tps = tags / sharded_s;
    const double sampled_tps = tags / sampled_s;
    const double sampled_sharded_tps = tags / sampled_sharded_s;
    const double aloha_tps = tags / aloha_s;
    const double aloha_sharded_tps = tags / aloha_sharded_s;
    const double speedup = legacy_s / engine_s;
    const double sharded_speedup = engine_s / sharded_s;
    const double sampled_sharded_speedup = sampled_s / sampled_sharded_s;
    const double aloha_sharded_speedup = aloha_s / aloha_sharded_s;

    std::printf(
        "%10zu %15.3e %15.3e %15.3e %7.2fx %7.2fx %15.3e %7.2fx %15.3e "
        "%7.2fx\n",
        n, legacy_tps, engine_tps, sharded_tps, speedup, sharded_speedup,
        sampled_tps, sampled_sharded_speedup, aloha_tps,
        aloha_sharded_speedup);

    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"n\": %zu, \"legacy_s\": %.6f, "
                  "\"engine_s\": %.6f, \"sharded_s\": %.6f, "
                  "\"legacy_tags_per_s\": %.1f, "
                  "\"engine_tags_per_s\": %.1f, "
                  "\"sharded_tags_per_s\": %.1f, \"speedup\": %.3f, "
                  "\"sharded_speedup\": %.3f,\n"
                  "     \"sampled_s\": %.6f, \"sampled_sharded_s\": %.6f, "
                  "\"sampled_tags_per_s\": %.1f, "
                  "\"sampled_sharded_tags_per_s\": %.1f, "
                  "\"sampled_sharded_speedup\": %.3f,\n"
                  "     \"aloha_s\": %.6f, \"aloha_sharded_s\": %.6f, "
                  "\"aloha_tags_per_s\": %.1f, "
                  "\"aloha_sharded_tags_per_s\": %.1f, "
                  "\"aloha_sharded_speedup\": %.3f}",
                  first ? "" : ",", n, legacy_s, engine_s, sharded_s,
                  legacy_tps, engine_tps, sharded_tps, speedup,
                  sharded_speedup, sampled_s, sampled_sharded_s, sampled_tps,
                  sampled_sharded_tps, sampled_sharded_speedup, aloha_s,
                  aloha_sharded_s, aloha_tps, aloha_sharded_tps,
                  aloha_sharded_speedup);
    json += buf;
    first = false;
  }
  json += "\n  ]\n}\n";

  const char* path = "BENCH_frame.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--baseline") return run_baseline();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
