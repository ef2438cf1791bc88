// Crash-recovery tier for the service snapshot (service/snapshot.hpp).
//
// Three concerns, mirroring the header's contract:
//  * round trip — a service killed mid-batch and restored from its
//    snapshot produces bit-identical results and planner-cache keys to
//    an uninterrupted run, across worker counts {1, 4, 8};
//  * fault injection — truncated, bit-flipped, version-bumped,
//    zero-length and hand-crafted hostile files all fail with a clean
//    typed error, never UB (this binary runs under the asan and
//    ubsan-integer presets via the `unit` label);
//  * format stability — the committed golden fixture pins the byte
//    layout; any unversioned drift fails here first.
#include "service/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/planner.hpp"
#include "service/portable.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace bfce::service {
namespace {

// ---------------------------------------------------------------------------
// Helpers

/// A fresh directory under /tmp, removed with its contents when the
/// test ends.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/bfce_snapshot_test_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// Manually opened gate; factory jobs block on it to pin workers.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return open; });
  }
};

class GateEstimator final : public estimators::CardinalityEstimator {
 public:
  explicit GateEstimator(std::shared_ptr<Gate> gate)
      : gate_(std::move(gate)) {}
  std::string name() const override { return "gate"; }
  estimators::EstimateOutcome estimate(
      rfid::ReaderContext&, const estimators::Requirement&) override {
    gate_->wait();
    estimators::EstimateOutcome out;
    out.n_hat = 1.0;
    return out;
  }

 private:
  std::shared_ptr<Gate> gate_;
};

/// Blocks `count` workers on the returned gate (non-portable jobs, so a
/// snapshot counts them as skipped, not pending).
std::shared_ptr<Gate> pin_workers(EstimationService& svc, unsigned count,
                                  const rfid::TagPopulation& pop) {
  auto gate = std::make_shared<Gate>();
  for (unsigned i = 0; i < count; ++i) {
    JobSpec spec;
    spec.population = &pop;
    spec.factory = [gate] { return std::make_unique<GateEstimator>(gate); };
    spec.seed = 77000 + i;
    (void)svc.submit(spec);
  }
  return gate;
}

util::BitVector pseudo_membership(std::size_t bits, std::uint64_t seed,
                                  std::uint32_t keep_mod) {
  util::BitVector bv(bits);
  util::Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng() % keep_mod == 0) bv.set(i);
  }
  return bv;
}

/// The mixed portable workload: synthetic + membership populations,
/// planner-shared BFCE variants, a registry protocol and a tracking job.
std::vector<PortableJobSpec> portable_workload() {
  std::vector<PortableJobSpec> specs;
  const estimators::Requirement reqs[] = {{0.05, 0.05}, {0.1, 0.1}};
  for (std::uint64_t i = 0; i < 10; ++i) {
    PortableJobSpec spec;
    spec.req = reqs[i % 2];
    spec.seed = 4200 + i;
    spec.max_attempts = 2;
    switch (i % 5) {
      case 0:
        spec.estimator = "BFCE";
        spec.population.kind = PortablePopulation::Kind::kSynthetic;
        spec.population.size = 20000 + 1000 * i;
        spec.population.distribution = rfid::TagIdDistribution::kT1Uniform;
        spec.population.seed = 10 + i;
        break;
      case 1:
        spec.estimator = "BFCE";
        spec.population.kind = PortablePopulation::Kind::kMembership;
        spec.population.seed = 20 + i;
        spec.population.membership = pseudo_membership(40000, 30 + i, 3);
        break;
      case 2:
        spec.estimator = "BFCE-avg";
        spec.population.kind = PortablePopulation::Kind::kSynthetic;
        spec.population.size = 12000;
        spec.population.distribution =
            rfid::TagIdDistribution::kT2ApproxNormal;
        spec.population.seed = 40 + i;
        break;
      case 3:
        spec.estimator = "ZOE";
        spec.req = {0.15, 0.15};
        spec.population.kind = PortablePopulation::Kind::kSynthetic;
        spec.population.size = 9000;
        spec.population.distribution = rfid::TagIdDistribution::kT3Normal;
        spec.population.seed = 50 + i;
        break;
      default: {
        spec.estimator = "BFCE";
        PortableTrackingSpec track;
        track.reader_id = 7 + i;
        track.initial_population = 8000;
        track.schedule.push_back({3, 0.05, 100.0});
        spec.tracking = track;
        break;
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Bit-identical comparison of everything deterministic in a JobResult
/// (wall-clock fields — queue_wait/exec/latency and engine wall_us —
/// are excluded; they are timing, not results).
void expect_bit_identical(const JobResult& a, const JobResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.outcome.n_hat, b.outcome.n_hat);
  EXPECT_EQ(a.outcome.ci_low, b.outcome.ci_low);
  EXPECT_EQ(a.outcome.ci_high, b.outcome.ci_high);
  EXPECT_EQ(a.outcome.airtime.reader_bits, b.outcome.airtime.reader_bits);
  EXPECT_EQ(a.outcome.airtime.tag_bits, b.outcome.airtime.tag_bits);
  EXPECT_EQ(a.outcome.airtime.intervals, b.outcome.airtime.intervals);
  EXPECT_EQ(a.outcome.airtime.tag_tx_bits, b.outcome.airtime.tag_tx_bits);
  EXPECT_EQ(a.outcome.rounds, b.outcome.rounds);
  EXPECT_EQ(a.outcome.met_by_design, b.outcome.met_by_design);
  EXPECT_EQ(a.outcome.infeasible, b.outcome.infeasible);
  EXPECT_EQ(a.outcome.note, b.outcome.note);
  EXPECT_EQ(a.airtime_s, b.airtime_s);
  for (std::size_t s = 0; s < rfid::kFrameShapeCount; ++s) {
    EXPECT_EQ(a.counters.by_shape[s].frames, b.counters.by_shape[s].frames);
    EXPECT_EQ(a.counters.by_shape[s].slots, b.counters.by_shape[s].slots);
    EXPECT_EQ(a.counters.by_shape[s].tag_tx, b.counters.by_shape[s].tag_tx);
  }
  EXPECT_EQ(a.counters.batches, b.counters.batches);
  EXPECT_EQ(a.counters.sampled_batches, b.counters.sampled_batches);
  ASSERT_EQ(a.tracking.has_value(), b.tracking.has_value());
  if (a.tracking.has_value()) {
    const tracking::TrackResult& ta = *a.tracking;
    const tracking::TrackResult& tb = *b.tracking;
    EXPECT_EQ(ta.reader_id, tb.reader_id);
    ASSERT_EQ(ta.trajectory.size(), tb.trajectory.size());
    for (std::size_t p = 0; p < ta.trajectory.size(); ++p) {
      EXPECT_EQ(ta.trajectory[p].true_n, tb.trajectory[p].true_n) << p;
      EXPECT_EQ(ta.trajectory[p].raw_n_hat, tb.trajectory[p].raw_n_hat) << p;
      EXPECT_EQ(ta.trajectory[p].tracked_n, tb.trajectory[p].tracked_n) << p;
      EXPECT_EQ(ta.trajectory[p].variance, tb.trajectory[p].variance) << p;
    }
    EXPECT_EQ(ta.summary.raw_rmse, tb.summary.raw_rmse);
    EXPECT_EQ(ta.summary.tracked_rmse, tb.summary.tracked_rmse);
    EXPECT_EQ(ta.summary.design_misses, tb.summary.design_misses);
  }
  ASSERT_EQ(a.federation.has_value(), b.federation.has_value());
  if (a.federation.has_value()) {
    EXPECT_EQ(a.federation->rng_fingerprint, b.federation->rng_fingerprint);
    EXPECT_EQ(a.federation->merge.merges, b.federation->merge.merges);
  }
}

using PlannerKey =
    std::tuple<std::uint64_t, std::uint32_t, std::uint32_t, std::uint64_t,
               std::uint64_t>;

std::set<PlannerKey> planner_keys(const core::PersistencePlanner& planner) {
  std::set<PlannerKey> keys;
  for (const core::PlannerEntry& e : planner.export_entries()) {
    keys.insert({e.n_low_bits, e.w, e.k, e.eps_bits, e.delta_bits});
  }
  return keys;
}

/// A fully fabricated snapshot with every section populated — the
/// codec-coverage and golden-fixture source of truth. Every value is a
/// compile-time constant so the encoding is stable forever.
ServiceSnapshot fabricated_snapshot() {
  ServiceSnapshot snap;
  snap.substrate_fingerprint = substrate_fingerprint(
      rfid::FrameMode::kSampled, rfid::ChannelModel{}, rfid::TimingModel{});
  snap.next_id = 9;
  snap.rejected = 3;
  snap.non_portable_skipped = 1;

  snap.planner.present = true;
  snap.planner.n_low_mantissa_bits = 52;
  for (std::uint32_t i = 0; i < 2; ++i) {
    core::PlannerEntry e;
    e.n_low_bits = 0x40C81C8000000000ULL + i;  // ~12345.0
    e.w = 1024;
    e.k = 3;
    e.eps_bits = 0x3FA999999999999AULL;   // 0.05
    e.delta_bits = 0x3FA999999999999AULL;
    e.choice = {static_cast<std::uint32_t>(37 + i), 0.0361328125, true,
                0.125};
    snap.planner.entries.push_back(e);
  }

  JobResult done;
  done.status = JobStatus::kDone;
  done.outcome.n_hat = 12001.5;
  done.outcome.ci_low = 11800.25;
  done.outcome.ci_high = 12202.75;
  done.outcome.airtime = {100000, 50000, 2000, 48000};
  done.outcome.time_us = 1.25e6;
  done.outcome.rounds = 2;
  done.outcome.met_by_design = true;
  done.airtime_s = 1.25;
  done.attempts = 1;
  done.counters.by_shape[0] = {4, 4096, 9000, 0.0};
  done.counters.batches = 2;
  snap.completed.emplace_back(2, done);

  JobResult tracked = done;
  tracked.outcome.met_by_design = false;
  tracked.outcome.infeasible = true;
  tracked.outcome.note = "tracking: fabricated";
  tracking::TrackResult t;
  t.reader_id = 7;
  tracking::TrackPoint p{};
  p.round = 1;
  p.true_n = 8000;
  p.raw_n_hat = 8050.5;
  p.tracked_n = 8010.25;
  p.predicted_n = 8000.0;
  p.innovation = 50.5;
  p.residual = 40.25;
  p.gain = 0.5;
  p.variance = 900.0;
  p.measurement_sd = 80.0;
  p.p_o = 0.0361328125;
  p.met_by_design = true;
  p.airtime_s = 0.75;
  t.trajectory.push_back(p);
  t.summary = {1, 50.5, 10.25, 0.0063, 0.0013, 50.5, 40.25, 0.75, 0};
  tracked.tracking = t;
  snap.completed.emplace_back(3, tracked);

  JobResult fed = done;
  FederationResult fr;
  fr.readers = 4;
  fr.schedule_rounds = 2;
  fr.fleet_airtime_s = 5.0;
  fr.correction_g = 1.0625;
  fr.overlap_fraction = 0.25;
  fr.merge = {3, 192, 2};
  fr.rng_fingerprint = 0xFEEDFACECAFEBEEFULL;
  fed.federation = fr;
  snap.completed.emplace_back(5, fed);

  JobResult failed;
  failed.status = JobStatus::kFailed;
  failed.outcome.note = "unknown estimator 'NOPE'";
  snap.completed.emplace_back(6, failed);

  PortableJobSpec synth;
  synth.estimator = "BFCE";
  synth.req = {0.05, 0.05};
  synth.seed = 42;
  synth.population.kind = PortablePopulation::Kind::kSynthetic;
  synth.population.size = 20000;
  synth.population.distribution = rfid::TagIdDistribution::kT1Uniform;
  synth.population.seed = 11;
  snap.pending.emplace_back(7, synth);

  PortableJobSpec member;
  member.estimator = "BFCE-avg";
  member.req = {0.1, 0.1};
  member.seed = 43;
  member.max_attempts = 2;
  member.population.kind = PortablePopulation::Kind::kMembership;
  member.population.seed = 12;
  member.population.membership = util::BitVector(130);
  member.population.membership.set(0);
  member.population.membership.set(64);
  member.population.membership.set(129);
  snap.pending.emplace_back(8, member);

  PortableJobSpec track_spec;
  track_spec.estimator = "BFCE";
  track_spec.seed = 44;
  track_spec.population.kind = PortablePopulation::Kind::kNone;
  PortableTrackingSpec ts;
  ts.reader_id = 9;
  ts.initial_population = 8000;
  ts.schedule.push_back({3, 0.05, 100.0});
  track_spec.tracking = ts;
  snap.pending.emplace_back(4, track_spec);
  std::sort(snap.pending.begin(), snap.pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

void expect_snapshot_equal(const ServiceSnapshot& a,
                           const ServiceSnapshot& b) {
  EXPECT_EQ(a.substrate_fingerprint, b.substrate_fingerprint);
  EXPECT_EQ(a.next_id, b.next_id);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.non_portable_skipped, b.non_portable_skipped);
  EXPECT_EQ(a.planner.present, b.planner.present);
  EXPECT_EQ(a.planner.n_low_mantissa_bits, b.planner.n_low_mantissa_bits);
  ASSERT_EQ(a.planner.entries.size(), b.planner.entries.size());
  for (std::size_t i = 0; i < a.planner.entries.size(); ++i) {
    EXPECT_EQ(a.planner.entries[i], b.planner.entries[i]) << i;
  }
  ASSERT_EQ(a.completed.size(), b.completed.size());
  for (std::size_t i = 0; i < a.completed.size(); ++i) {
    EXPECT_EQ(a.completed[i].first, b.completed[i].first);
    expect_bit_identical(a.completed[i].second, b.completed[i].second,
                         "completed " + std::to_string(i));
    EXPECT_EQ(a.completed[i].second.outcome.time_us,
              b.completed[i].second.outcome.time_us);
  }
  ASSERT_EQ(a.pending.size(), b.pending.size());
  for (std::size_t i = 0; i < a.pending.size(); ++i) {
    EXPECT_EQ(a.pending[i].first, b.pending[i].first);
    EXPECT_TRUE(a.pending[i].second == b.pending[i].second) << i;
  }
}

// ---------------------------------------------------------------------------
// Portable-spec codec and materialization

TEST(Portable, CodecRoundTripsEveryKind) {
  for (const auto& [id, spec] : fabricated_snapshot().pending) {
    util::ByteWriter w;
    encode_portable_job(w, spec);
    const std::vector<std::uint8_t> bytes = w.take();
    util::ByteReader r(bytes);
    const PortableJobSpec back = decode_portable_job(r);
    EXPECT_TRUE(r.exhausted()) << id;
    EXPECT_TRUE(back == spec) << id;
  }
}

TEST(Portable, ValidationRejectsBadSpecs) {
  PortableJobSpec good;
  good.population.kind = PortablePopulation::Kind::kSynthetic;
  good.population.size = 100;
  EXPECT_EQ(validate_portable_job(good), nullptr);

  PortableJobSpec bad = good;
  bad.req.epsilon = 0.0;
  EXPECT_NE(validate_portable_job(bad), nullptr);
  bad = good;
  bad.req.delta = 1.5;
  EXPECT_NE(validate_portable_job(bad), nullptr);
  bad = good;
  bad.estimator.clear();
  EXPECT_NE(validate_portable_job(bad), nullptr);
  bad = good;
  bad.airtime_budget_s = -1.0;
  EXPECT_NE(validate_portable_job(bad), nullptr);
  bad = good;
  bad.population.size = kMaxPortableTags + 1;
  EXPECT_NE(validate_portable_job(bad), nullptr);
  bad = good;
  bad.population.kind = PortablePopulation::Kind::kNone;
  EXPECT_NE(validate_portable_job(bad), nullptr);
  bad = good;
  bad.tracking = PortableTrackingSpec{};  // empty schedule
  EXPECT_NE(validate_portable_job(bad), nullptr);
  bad = good;
  PortableTrackingSpec ts;
  ts.schedule.push_back({0, 0.1, 10.0});  // zero rounds
  bad.tracking = ts;
  EXPECT_NE(validate_portable_job(bad), nullptr);
}

TEST(Portable, MembershipMaterializationIsDeterministic) {
  PortableJobSpec spec;
  spec.population.kind = PortablePopulation::Kind::kMembership;
  spec.population.seed = 99;
  spec.population.membership = pseudo_membership(5000, 5, 4);

  const auto a = materialize(spec);
  const auto b = materialize(spec);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->population->size(), b->population->size());
  EXPECT_EQ(a->population->size(),
            spec.population.membership.count_ones());
  for (std::size_t i = 0; i < a->population->size(); ++i) {
    EXPECT_EQ(a->population->tags()[i].id, b->population->tags()[i].id);
    EXPECT_EQ(a->population->tags()[i].rn, b->population->tags()[i].rn);
    // bit i ⇒ tag id i+1, so ids are positive and within the universe.
    EXPECT_GE(a->population->tags()[i].id, 1u);
    EXPECT_LE(a->population->tags()[i].id,
              spec.population.membership.size());
  }
}

// ---------------------------------------------------------------------------
// Snapshot codec

TEST(SnapshotCodec, RoundTripsEverySection) {
  const ServiceSnapshot snap = fabricated_snapshot();
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);

  ServiceSnapshot back;
  ASSERT_EQ(decode_snapshot(bytes, back), SnapshotError::kNone);
  expect_snapshot_equal(snap, back);

  // Determinism: encoding the decoded snapshot reproduces the bytes.
  EXPECT_EQ(encode_snapshot(back), bytes);
}

TEST(SnapshotCodec, ErrorLabelsAreStable) {
  EXPECT_STREQ(to_cstring(SnapshotError::kNone), "ok");
  EXPECT_STREQ(to_cstring(SnapshotError::kTruncated), "truncated");
  EXPECT_STREQ(to_cstring(SnapshotError::kChecksumMismatch),
               "checksum_mismatch");
  EXPECT_STREQ(to_cstring(SnapshotError::kBadState), "bad_state");
}

// ---------------------------------------------------------------------------
// Fault injection: every planted corruption fails with a typed error.

TEST(SnapshotFaults, ZeroLengthFileIsTruncated) {
  const TempDir dir;
  const std::string path = dir.path() + "/empty.bfss";
  write_file(path, {});
  ServiceSnapshot out;
  EXPECT_EQ(load_snapshot(path, out), SnapshotError::kTruncated);
}

TEST(SnapshotFaults, MissingFileIsIoError) {
  ServiceSnapshot out;
  EXPECT_EQ(load_snapshot("/nonexistent/bfce/snapshot.bfss", out),
            SnapshotError::kIoError);
}

TEST(SnapshotFaults, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(fabricated_snapshot());
  // Every prefix length (stride keeps runtime sane; boundaries exact).
  std::vector<std::size_t> cuts = {0, 1, 4, 8, 23, 24, 25, bytes.size() - 1};
  for (std::size_t cut = 0; cut < bytes.size(); cut += 97) cuts.push_back(cut);
  for (const std::size_t cut : cuts) {
    const std::vector<std::uint8_t> part(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<std::ptrdiff_t>(cut));
    ServiceSnapshot out;
    EXPECT_EQ(decode_snapshot(part, out), SnapshotError::kTruncated)
        << "cut at " << cut;
  }
}

TEST(SnapshotFaults, EveryBitFlipIsRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(fabricated_snapshot());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[byte] = static_cast<std::uint8_t>(flipped[byte] ^
                                              (1u << (byte % 8)));
    ServiceSnapshot out;
    const SnapshotError err = decode_snapshot(flipped, out);
    EXPECT_NE(err, SnapshotError::kNone) << "flip at byte " << byte;
    if (byte >= 24) {
      // Payload flips are always caught by the CRC, before any decode.
      EXPECT_EQ(err, SnapshotError::kChecksumMismatch) << byte;
    }
  }
}

TEST(SnapshotFaults, VersionBumpIsRejected) {
  std::vector<std::uint8_t> bytes = encode_snapshot(fabricated_snapshot());
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  ServiceSnapshot out;
  EXPECT_EQ(decode_snapshot(bytes, out), SnapshotError::kBadVersion);
}

TEST(SnapshotFaults, BadMagicIsRejected) {
  std::vector<std::uint8_t> bytes = encode_snapshot(fabricated_snapshot());
  bytes[0] = 'X';
  ServiceSnapshot out;
  EXPECT_EQ(decode_snapshot(bytes, out), SnapshotError::kBadMagic);
}

TEST(SnapshotFaults, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = encode_snapshot(fabricated_snapshot());
  bytes.push_back(0xAB);
  ServiceSnapshot out;
  EXPECT_EQ(decode_snapshot(bytes, out), SnapshotError::kMalformed);
}

/// Wraps a hand-crafted payload in a *valid* header (correct magic,
/// version and CRC) so the decoder itself — not the checksum — must
/// reject it.
std::vector<std::uint8_t> with_valid_header(
    const std::vector<std::uint8_t>& payload) {
  util::ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u64(payload.size());
  w.u64(util::crc64(payload.data(), payload.size()));
  w.raw(payload.data(), payload.size());
  return w.take();
}

TEST(SnapshotFaults, HostileCountsCannotForceAllocation) {
  // Planner section claiming 2^61 entries in a tiny payload.
  {
    util::ByteWriter w;
    w.u64(substrate_fingerprint(rfid::FrameMode::kSampled, {}, {}));
    w.u64(1);  // next_id
    w.u64(0);  // rejected
    w.u64(0);  // skipped
    w.u8(1);   // planner present
    w.u32(52);
    w.u64(std::uint64_t{1} << 61);  // entry count
    ServiceSnapshot out;
    EXPECT_EQ(decode_snapshot(with_valid_header(w.take()), out),
              SnapshotError::kMalformed);
  }
  // Completed section claiming 2^60 results.
  {
    util::ByteWriter w;
    w.u64(substrate_fingerprint(rfid::FrameMode::kSampled, {}, {}));
    w.u64(1);
    w.u64(0);
    w.u64(0);
    w.u8(0);                        // no planner
    w.u64(std::uint64_t{1} << 60);  // completed count
    ServiceSnapshot out;
    EXPECT_EQ(decode_snapshot(with_valid_header(w.take()), out),
              SnapshotError::kMalformed);
  }
  // Pending job with a membership bitmap claiming 2^50 bits.
  {
    util::ByteWriter w;
    w.u64(substrate_fingerprint(rfid::FrameMode::kSampled, {}, {}));
    w.u64(1);
    w.u64(0);
    w.u64(0);
    w.u8(0);
    w.u64(0);  // completed count
    w.u64(1);  // pending count
    w.u64(7);  // job id
    w.str("BFCE");
    w.f64(0.05);
    w.f64(0.05);
    w.u64(42);
    w.f64(1e9);
    w.f64(1e9);
    w.u32(1);
    w.u8(2);                        // membership kind
    w.u64(9);                       // population seed
    w.u64(std::uint64_t{1} << 50);  // bitmap bit count
    ServiceSnapshot out;
    EXPECT_EQ(decode_snapshot(with_valid_header(w.take()), out),
              SnapshotError::kMalformed);
  }
  // A non-terminal status in the completed section.
  {
    util::ByteWriter w;
    w.u64(substrate_fingerprint(rfid::FrameMode::kSampled, {}, {}));
    w.u64(1);
    w.u64(0);
    w.u64(0);
    w.u8(0);
    w.u64(1);  // completed count
    w.u64(3);  // id
    w.u8(static_cast<std::uint8_t>(JobStatus::kRunning));
    ServiceSnapshot out;
    EXPECT_EQ(decode_snapshot(with_valid_header(w.take()), out),
              SnapshotError::kMalformed);
  }
  // An outcome design byte outside {missed, met, infeasible}.
  {
    util::ByteWriter w;
    w.u64(substrate_fingerprint(rfid::FrameMode::kSampled, {}, {}));
    w.u64(1);
    w.u64(0);
    w.u64(0);
    w.u8(0);
    w.u64(1);  // completed count
    w.u64(3);  // id
    w.u8(static_cast<std::uint8_t>(JobStatus::kDone));
    for (int i = 0; i < 3; ++i) w.f64(1.0);  // n̂, CI
    for (int i = 0; i < 4; ++i) w.u64(1);    // airtime ledger
    w.f64(1.0);                              // time_us
    w.u32(1);                                // rounds
    w.u8(3);                                 // design byte
    ServiceSnapshot out;
    EXPECT_EQ(decode_snapshot(with_valid_header(w.take()), out),
              SnapshotError::kMalformed);
  }
}

// ---------------------------------------------------------------------------
// File IO

TEST(SnapshotFile, SaveLoadRoundTripAndAtomicReplace) {
  const TempDir dir;
  const std::string path = dir.path() + "/service.bfss";
  const ServiceSnapshot snap = fabricated_snapshot();

  ASSERT_EQ(save_snapshot(snap, path), SnapshotError::kNone);
  ServiceSnapshot back;
  ASSERT_EQ(load_snapshot(path, back), SnapshotError::kNone);
  expect_snapshot_equal(snap, back);

  // Overwrite in place (the rename path over an existing file).
  ServiceSnapshot second = snap;
  second.rejected = 99;
  ASSERT_EQ(save_snapshot(second, path), SnapshotError::kNone);
  ASSERT_EQ(load_snapshot(path, back), SnapshotError::kNone);
  EXPECT_EQ(back.rejected, 99u);

  // The temp file never lingers after a successful save.
  const std::string tmp_probe = path + ".tmp." + std::to_string(::getpid());
  EXPECT_TRUE(read_file(tmp_probe).empty());

  ASSERT_EQ(save_snapshot(snap, "/nonexistent/dir/x.bfss"),
            SnapshotError::kIoError);
}

// ---------------------------------------------------------------------------
// Golden fixture: the committed bytes pin format version 2.

TEST(SnapshotGolden, CommittedFixtureMatchesEncoder) {
  const std::string path = std::string(BFCE_TEST_DATA_DIR) +
                           "/golden_snapshot.bin";
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(fabricated_snapshot());

  if (std::getenv("BFCE_REGEN_GOLDEN") != nullptr) {
    write_file(path, bytes);
    GTEST_SKIP() << "regenerated " << path << " (" << bytes.size()
                 << " bytes)";
  }

  const std::vector<std::uint8_t> golden = read_file(path);
  ASSERT_FALSE(golden.empty())
      << "missing fixture " << path
      << " — regenerate with BFCE_REGEN_GOLDEN=1";
  // Byte equality both ways: an encoder change OR a fixture edit that
  // is not accompanied by a kSnapshotVersion bump fails here.
  EXPECT_EQ(bytes, golden)
      << "snapshot byte layout drifted without a version bump";

  ServiceSnapshot decoded;
  ASSERT_EQ(decode_snapshot(golden, decoded), SnapshotError::kNone);
  expect_snapshot_equal(fabricated_snapshot(), decoded);
}

// ---------------------------------------------------------------------------
// Service round trip: kill mid-batch, restore, bit-identical.

TEST(ServiceRecovery, RestoreRefusesWrongSubstrateAndUsedService) {
  ServiceSnapshot snap = fabricated_snapshot();
  snap.completed.clear();  // keep only pending (cheap to materialize)
  snap.pending.resize(1);

  // Wrong substrate: a service with a lossy channel.
  {
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.channel.false_busy_rate = 0.01;
    EstimationService svc(cfg);
    EXPECT_EQ(svc.restore(snap), SnapshotError::kConfigMismatch);
  }
  // Non-fresh service.
  {
    EstimationService svc({.workers = 1});
    PortableJobSpec spec;
    spec.population.kind = PortablePopulation::Kind::kSynthetic;
    spec.population.size = 500;
    (void)svc.submit_portable(spec);
    svc.drain();
    EXPECT_EQ(svc.restore(snap), SnapshotError::kBadState);
  }
  // Duplicate ids.
  {
    ServiceSnapshot dup = snap;
    dup.pending.push_back(dup.pending.front());
    EstimationService svc({.workers = 1});
    EXPECT_EQ(svc.restore(dup), SnapshotError::kMalformed);
  }
}

TEST(ServiceRecovery, KillAndRestoreIsBitIdenticalAcrossWorkerCounts) {
  const std::vector<PortableJobSpec> specs = portable_workload();
  const std::size_t half = specs.size() / 2;
  const auto pop =
      rfid::make_population(100, rfid::TagIdDistribution::kT1Uniform, 1);

  // Reference: one uninterrupted service runs the whole workload.
  core::PersistencePlanner ref_planner;
  std::vector<JobResult> reference;
  {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.planner = &ref_planner;
    EstimationService svc(cfg);
    std::vector<JobId> ids;
    for (const PortableJobSpec& spec : specs) {
      ids.push_back(svc.submit_portable(spec));
      ASSERT_NE(ids.back(), kInvalidJob);
    }
    for (const JobId id : ids) reference.push_back(svc.wait(id));
  }
  const std::set<PlannerKey> reference_keys = planner_keys(ref_planner);
  EXPECT_FALSE(reference_keys.empty());

  for (const unsigned workers : {1u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));

    // Interrupted run: finish the first half, pin every worker, queue
    // the second half, cut the snapshot, then kill the service.
    core::PersistencePlanner cut_planner;
    std::vector<std::uint8_t> bytes;
    std::vector<JobId> first_ids;
    std::vector<JobId> second_ids;
    std::vector<JobResult> first_results;
    {
      ServiceConfig cfg;
      cfg.workers = workers;
      cfg.planner = &cut_planner;
      EstimationService svc(cfg);
      for (std::size_t i = 0; i < half; ++i) {
        first_ids.push_back(svc.submit_portable(specs[i]));
      }
      svc.drain();
      for (const JobId id : first_ids) {
        first_results.push_back(svc.wait(id));
      }

      const std::shared_ptr<Gate> gate = pin_workers(svc, workers, pop);
      for (std::size_t i = half; i < specs.size(); ++i) {
        second_ids.push_back(svc.submit_portable(specs[i]));
      }
      // The gate guarantees the second half is still queued here.
      const ServiceSnapshot snap = svc.snapshot();
      EXPECT_EQ(snap.pending.size(), specs.size() - half);
      EXPECT_EQ(snap.completed.size(), half);
      EXPECT_EQ(snap.non_portable_skipped, workers);
      bytes = encode_snapshot(snap);
      gate->release();
    }  // service torn down — the "crash"

    // Restored run: decode, restore into a fresh service + planner.
    ServiceSnapshot snap;
    ASSERT_EQ(decode_snapshot(bytes, snap), SnapshotError::kNone);
    core::PersistencePlanner restore_planner;  // seeded by restore()
    EstimationService restored({.workers = workers,
                                .planner = &restore_planner});
    ASSERT_EQ(restored.restore(snap), SnapshotError::kNone);
    restored.drain();

    // Completed jobs: byte-for-byte the recorded results.
    for (std::size_t i = 0; i < first_ids.size(); ++i) {
      expect_bit_identical(restored.wait(first_ids[i]), first_results[i],
                           "completed job " + std::to_string(i));
    }
    // Pending jobs: re-executed, bit-identical to the uninterrupted run.
    for (std::size_t i = 0; i < second_ids.size(); ++i) {
      expect_bit_identical(restored.wait(second_ids[i]),
                           reference[half + i],
                           "recovered job " + std::to_string(i));
    }
    // Planner cache: same key set as the uninterrupted planner.
    EXPECT_EQ(planner_keys(restore_planner), reference_keys);

    // Aggregates were re-accounted: every job is terminal and counted.
    const ServiceMetrics m = restored.metrics();
    EXPECT_EQ(m.admitted, specs.size());
    EXPECT_EQ(m.completed, specs.size());
  }
}

TEST(ServiceRecovery, SnapshotOfRestoredServiceConverges) {
  // snapshot → restore → snapshot must reproduce the same jobs (ids,
  // results) once drained — the fixpoint property of re-accounting.
  const std::vector<PortableJobSpec> specs = portable_workload();
  core::PersistencePlanner planner;
  std::vector<std::uint8_t> bytes;
  {
    EstimationService svc({.workers = 2, .planner = &planner});
    for (std::size_t i = 0; i < 4; ++i) {
      (void)svc.submit_portable(specs[i]);
    }
    svc.drain();
    bytes = encode_snapshot(svc.snapshot());
  }
  ServiceSnapshot snap;
  ASSERT_EQ(decode_snapshot(bytes, snap), SnapshotError::kNone);

  EstimationService restored({.workers = 2, .planner = &planner});
  ASSERT_EQ(restored.restore(snap), SnapshotError::kNone);
  restored.drain();
  const ServiceSnapshot again = restored.snapshot();
  ASSERT_EQ(again.completed.size(), snap.completed.size());
  for (std::size_t i = 0; i < snap.completed.size(); ++i) {
    EXPECT_EQ(again.completed[i].first, snap.completed[i].first);
    expect_bit_identical(again.completed[i].second, snap.completed[i].second,
                         "converged job " + std::to_string(i));
  }
  EXPECT_TRUE(again.pending.empty());
}

}  // namespace
}  // namespace bfce::service
