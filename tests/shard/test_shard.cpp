// Sharded campaign execution (DESIGN.md §13): wire protocol round trips
// and hostile-payload rejection, coordinator/worker end-to-end
// determinism against the in-process runner and against pinned
// saved-campaign fixtures, hostile-text rejection by the saved-campaign
// decoder, worker-crash and misbehaving-worker recovery, and golden-store
// reuse.
//
// This binary has a custom main: the coordinator re-execs the test binary
// itself as its worker processes (--shard-worker=<fd>), so main must
// route to the worker loop before gtest ever sees argv.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "../binary_mutations.hpp"

#include "apps/app.hpp"
#include "fsefi/scenario.hpp"
#include "harness/campaign.hpp"
#include "harness/campaign_engine.hpp"
#include "harness/golden_store.hpp"
#include "harness/serialize.hpp"
#include "shard/coordinator.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"
#include "telemetry/telemetry.hpp"
#include "util/binio.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace {

using namespace resilience;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("resilience-shardtest-" + tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir.string();
}

harness::DeploymentConfig small_config(std::size_t trials) {
  harness::DeploymentConfig dep;
  dep.nranks = 4;
  dep.trials = trials;
  return dep;
}

std::string normalized_dump(harness::CampaignResult result) {
  result.wall_seconds = 0.0;  // the only timing-born field in the schema
  return harness::to_json(result).dump();
}

TEST(ShardProtocol, FramesRoundTripOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  const shard::UnitMsg sent{7, {{harness::kNoStratum, 3, 3}}};
  shard::write_message(sv[0], shard::Message(sent));
  const auto got = shard::read_message(sv[1]);
  ASSERT_TRUE(got.has_value());
  const auto* unit = std::get_if<shard::UnitMsg>(&*got);
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->id, sent.id);
  ASSERT_EQ(unit->refs.size(), 1u);
  EXPECT_EQ(unit->refs[0].index, 3u);

  ::close(sv[0]);  // EOF at a frame boundary: clean nullopt
  EXPECT_FALSE(shard::read_message(sv[1]).has_value());
  ::close(sv[1]);
}

TEST(ShardProtocol, TruncatedFrameThrows) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const unsigned char partial[] = {200, 0, 0, 0, 'x'};  // claims 200 bytes
  ASSERT_EQ(::write(sv[0], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(sv[0]);
  EXPECT_THROW((void)shard::read_message(sv[1]), std::runtime_error);
  ::close(sv[1]);
}

// ---- binary wire protocol ---------------------------------------------

telemetry::MetricsSnapshot sample_metrics() {
  telemetry::MetricsSnapshot m;
  m.counters[0] = 7;
  m.counters[telemetry::kCounterCount - 1] = 0xDEADBEEFCAFEull;
  m.histograms[0].buckets[0] = 1;
  m.histograms[telemetry::kHistogramCount - 1]
      .buckets[telemetry::kHistogramBuckets - 1] = 42;
  return m;
}

shard::InitMsg sample_init() {
  shard::InitMsg init;
  init.app = "CG";
  init.size_class = "small";
  init.config = small_config(17);
  init.config.errors_per_test = 2;
  init.config.seed = 99;
  init.config.hang_budget_factor = 2.5;
  init.config.adaptive.enabled = true;
  init.config.adaptive.batch = 5;
  init.config.adaptive.ci_half_width = 0.05;
  init.store = "/tmp/store";
  init.kill_after_units = 3;
  return init;
}

shard::UnitMsg sample_unit() {
  return {12, {{harness::kNoStratum, 3, 3}, {42, 7, 11}}};
}

shard::ResultMsg sample_result() {
  return {12,
          {{harness::Outcome::Success, 0},
           {harness::Outcome::SDC, 5},
           {harness::Outcome::Failure, 2}},
          1.25,
          sample_metrics()};
}

shard::Message round_trip(const shard::Message& message) {
  return shard::decode_message(shard::encode_message(message));
}

/// Overwrite the little-endian u64 at `offset`.
void patch_u64(std::vector<std::byte>& bytes, std::size_t offset,
               std::uint64_t value) {
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[offset + b] = static_cast<std::byte>((value >> (8 * b)) & 0xff);
  }
}

// UnitMsg and ResultMsg payloads open with tag (u8), id (u64), element
// count (u64); a ResultMsg's first outcome byte follows the count.
constexpr std::size_t kCountOffset = 1 + 8;
constexpr std::size_t kFirstOutcomeOffset = kCountOffset + 8;

// Every message kind: decode(encode(m)) == m, field by field — including
// the adaptive engine parameters and kNoStratum refs that only a
// full-fidelity codec preserves.
TEST(ShardWire, EveryMessageKindRoundTrips) {
  const shard::InitMsg init = sample_init();
  const shard::UnitMsg unit = sample_unit();
  const shard::ResultMsg result = sample_result();

  const auto init_back = round_trip(init);
  const auto* i = std::get_if<shard::InitMsg>(&init_back);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(i->app, init.app);
  EXPECT_EQ(i->size_class, init.size_class);
  EXPECT_EQ(i->store, init.store);
  EXPECT_EQ(i->kill_after_units, init.kill_after_units);
  EXPECT_EQ(i->config, init.config);

  const auto ready_back = round_trip(shard::ReadyMsg{sample_metrics()});
  const auto* rd = std::get_if<shard::ReadyMsg>(&ready_back);
  ASSERT_NE(rd, nullptr);
  EXPECT_TRUE(rd->metrics.counters == sample_metrics().counters);
  EXPECT_TRUE(rd->metrics.histograms == sample_metrics().histograms);

  const auto unit_back = round_trip(unit);
  const auto* u = std::get_if<shard::UnitMsg>(&unit_back);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->id, unit.id);
  ASSERT_EQ(u->refs.size(), unit.refs.size());
  for (std::size_t r = 0; r < unit.refs.size(); ++r) {
    EXPECT_EQ(u->refs[r].stratum, unit.refs[r].stratum);
    EXPECT_EQ(u->refs[r].index, unit.refs[r].index);
    EXPECT_EQ(u->refs[r].tag, unit.refs[r].tag);
  }

  const auto result_back = round_trip(result);
  const auto* res = std::get_if<shard::ResultMsg>(&result_back);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->id, result.id);
  EXPECT_EQ(res->wall_seconds, result.wall_seconds);
  ASSERT_EQ(res->outcomes.size(), result.outcomes.size());
  for (std::size_t r = 0; r < result.outcomes.size(); ++r) {
    EXPECT_EQ(res->outcomes[r].outcome, result.outcomes[r].outcome);
    EXPECT_EQ(res->outcomes[r].contaminated, result.outcomes[r].contaminated);
  }
  EXPECT_TRUE(res->metrics.counters == result.metrics.counters);
  EXPECT_TRUE(res->metrics.histograms == result.metrics.histograms);

  const auto err_back = round_trip(shard::ErrorMsg{"boom"});
  const auto* err = std::get_if<shard::ErrorMsg>(&err_back);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->message, "boom");

  EXPECT_TRUE(std::holds_alternative<shard::ShutdownMsg>(
      round_trip(shard::ShutdownMsg{})));
}

// An element count the payload cannot hold must fail as a BinError before
// any vector is sized by it: 2^61 used to escape as std::length_error
// from resize, and 2^27 would have zero-filled gigabytes first.
TEST(ShardWire, CountBeyondThePayloadIsRejected) {
  for (const shard::Message& message :
       {shard::Message(sample_unit()), shard::Message(sample_result())}) {
    for (const int log2 : {61, 27}) {
      auto bytes = shard::encode_message(message);
      patch_u64(bytes, kCountOffset, std::uint64_t{1} << log2);
      EXPECT_THROW((void)shard::decode_message(bytes), util::BinError)
          << "count 2^" << log2;
    }
  }
}

// An outcome byte past Outcome::Crash would be counted as a trial with no
// outcome bucket.
TEST(ShardWire, OutOfRangeOutcomeIsRejected) {
  auto bytes = shard::encode_message(sample_result());
  bytes[kFirstOutcomeOffset] = std::byte{200};
  EXPECT_THROW((void)shard::decode_message(bytes), util::BinError);
}

TEST(ShardWire, OutOfRangeDeploymentEnumsAreRejected) {
  const shard::InitMsg init = sample_init();
  // tag, three length-prefixed strings, kill_after_units, then the
  // deployment: nranks, errors_per_test, domain, pattern, arrival (u8s),
  // kinds, regions (u32s), mtbf, trials, seed, selection (u32).
  const std::size_t deployment = 1 + (4 + init.app.size()) +
                                 (4 + init.size_class.size()) +
                                 (4 + init.store.size()) + 4;
  const std::size_t domain = deployment + 8;
  const std::size_t selection = domain + 3 + 4 + 4 + 8 + 8 + 8;
  const auto valid = shard::encode_message(init);
  for (const std::size_t at : {domain, domain + 1, domain + 2, selection}) {
    auto bytes = valid;
    bytes[at] = std::byte{200};
    EXPECT_THROW((void)shard::decode_message(bytes), util::BinError) << at;
  }
}

TEST(ShardWire, TrailingBytesAreRejected) {
  for (const shard::Message& message :
       {shard::Message(sample_init()), shard::Message(sample_unit()),
        shard::Message(sample_result()), shard::Message(shard::ErrorMsg{"x"}),
        shard::Message(shard::ShutdownMsg{})}) {
    auto bytes = shard::encode_message(message);
    bytes.push_back(std::byte{0});
    EXPECT_THROW((void)shard::decode_message(bytes), util::BinError);
  }
}

// A few thousand fixed-seed mutations of one valid encoding of every
// message kind: each mutated payload either decodes or throws
// util::BinError — nothing else (length_error, bad_alloc, a crash) may
// escape the decoder. The handshake parser must never throw at all.
TEST(ShardWire, MutatedFramesDecodeOrThrowBinError) {
  const std::vector<std::pair<shard::Message, std::vector<std::size_t>>>
      seeds = {
          {sample_init(), {}},
          {shard::ReadyMsg{sample_metrics()}, {}},
          {sample_unit(), {kCountOffset}},
          {sample_result(), {kCountOffset}},
          {shard::ErrorMsg{"worker failed"}, {}},
          {shard::ShutdownMsg{}, {}},
      };
  util::Xoshiro256 rng(20180813);
  std::size_t rejected = 0;
  for (const auto& [message, counts] : seeds) {
    const auto valid = shard::encode_message(message);
    for (int n = 0; n < 600; ++n) {
      const auto bytes = test::mutate_encoding(valid, rng, counts);
      try {
        (void)shard::decode_message(bytes);
      } catch (const util::BinError&) {
        ++rejected;
      } catch (const std::exception& e) {
        FAIL() << "mutation " << n << " of a " << valid.size()
               << "-byte payload escaped as " << typeid(e).name() << ": "
               << e.what();
      }
    }
  }
  const auto handshake = shard::encode_handshake();
  for (int n = 0; n < 600; ++n) {
    EXPECT_NO_THROW(
        (void)shard::parse_handshake(test::mutate_encoding(handshake, rng)));
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ShardWire, HandshakeRoundTripsAndRejectsNonHandshakes) {
  EXPECT_EQ(shard::parse_handshake(shard::encode_handshake()),
            shard::kShardProtocolVersion);
  // An error frame from a bailing worker is not a handshake — nullopt,
  // not a throw, so the caller can decode it for its message.
  const auto error_payload =
      shard::encode_message(shard::Message(shard::ErrorMsg{"bad"}));
  EXPECT_FALSE(shard::parse_handshake(error_payload).has_value());
  EXPECT_FALSE(shard::parse_handshake({}).has_value());
}

TEST(ShardWire, ReadHandshakeRejectsVersionMismatchOverSocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  auto payload = shard::encode_handshake();
  payload[4] = std::byte{99};  // version field, little-endian low byte
  shard::write_frame_bytes(sv[0], payload, "test handshake");
  try {
    shard::read_handshake(sv[1]);
    FAIL() << "version mismatch not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(shard::kShardProtocolVersion)),
              std::string::npos)
        << what;
  }
  ::close(sv[0]);
  ::close(sv[1]);
}

// The frame cap is a knob, and the oversize error names the frame kind,
// unit id, and byte count — enough to tell a corrupt length prefix from a
// genuinely huge unit.
TEST(ShardWire, FrameCapErrorNamesFrameKindUnitAndByteCount) {
  auto opts = util::RuntimeOptions::from_env();
  opts.frame_cap_mb = 1;
  util::RuntimeOptions::set_global(opts);

  shard::UnitMsg unit;
  unit.id = 77;
  unit.refs.resize(100'000);  // >1 MiB of refs
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  try {
    shard::write_message(sv[0], shard::Message(unit));
    FAIL() << "oversize frame not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unit 77"), std::string::npos) << what;
    EXPECT_NE(what.find("bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("RESILIENCE_FRAME_CAP_MB"), std::string::npos) << what;
  }

  // Read side: a corrupt length prefix over the cap throws before any
  // allocation, naming the cap.
  const unsigned char huge_prefix[] = {0, 0, 0, 0x7F};  // ~2 GiB claimed
  ASSERT_EQ(::write(sv[0], huge_prefix, sizeof(huge_prefix)),
            static_cast<ssize_t>(sizeof(huge_prefix)));
  try {
    (void)shard::read_frame_bytes(sv[1]);
    FAIL() << "oversize prefix not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("RESILIENCE_FRAME_CAP_MB"), std::string::npos) << what;
  }
  ::close(sv[0]);
  ::close(sv[1]);
  util::RuntimeOptions::reset_global();
}

// The length prefix is 4 bytes, so the cap clamps to 2^32 - 1 however high
// RESILIENCE_FRAME_CAP_MB is set: a 4 GiB payload is refused before a
// byte goes out, instead of being sent behind a wrapped length.
TEST(ShardWire, FrameCapNeverExceedsTheLengthPrefix) {
  auto opts = util::RuntimeOptions::from_env();
  opts.frame_cap_mb = 8192;
  util::RuntimeOptions::set_global(opts);

  constexpr std::size_t kSize = std::size_t{1} << 32;
  void* huge = ::mmap(nullptr, kSize, PROT_READ,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(huge, MAP_FAILED);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, O_NONBLOCK), 0);
  try {
    shard::write_frame_bytes(
        sv[0], std::span(static_cast<const std::byte*>(huge), kSize),
        "test frame");
    FAIL() << "4 GiB frame not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frame cap"), std::string::npos) << what;
  }
  char byte = 0;
  EXPECT_EQ(::recv(sv[1], &byte, 1, MSG_DONTWAIT), -1);
  EXPECT_EQ(errno, EAGAIN);
  ::close(sv[0]);
  ::close(sv[1]);
  ::munmap(huge, kSize);
  util::RuntimeOptions::reset_global();
}

TEST(ShardCampaign, FixedShardedMatchesInProcess) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(24);

  const auto baseline = harness::CampaignRunner::run(*app, dep);

  shard::ShardOptions opts;
  opts.shards = 3;
  const auto sharded = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(sharded), normalized_dump(baseline));
  EXPECT_TRUE(sharded.metrics.logical_equal(baseline.metrics));
  EXPECT_GE(sharded.metrics.value(telemetry::Counter::ShardUnitsDispatched),
            3u);
  EXPECT_EQ(sharded.metrics.value(telemetry::Counter::HarnessCampaigns), 1u);
  EXPECT_EQ(sharded.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            1u);
}

TEST(ShardCampaign, AdaptiveShardedMatchesInProcess) {
  const auto app = apps::make_app(apps::AppId::CG);
  harness::DeploymentConfig dep = small_config(48);
  dep.adaptive.enabled = true;
  dep.adaptive.batch = 8;
  dep.adaptive.min_trials = 16;

  const auto baseline = harness::CampaignRunner::run(*app, dep);

  shard::ShardOptions opts;
  opts.shards = 2;
  const auto sharded = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(sharded), normalized_dump(baseline));
  EXPECT_TRUE(sharded.metrics.logical_equal(baseline.metrics));
  ASSERT_TRUE(sharded.adaptive.has_value());
  EXPECT_EQ(sharded.adaptive->trials_executed,
            baseline.adaptive->trials_executed);
  EXPECT_EQ(sharded.adaptive->stop_reason, baseline.adaptive->stop_reason);
}

// A worker SIGKILLed mid-campaign (before reporting its unit) must not
// perturb the result: the unit is re-run elsewhere bit-identically, and
// the lost process's unreported counts never reach the merged metrics.
TEST(ShardCampaign, KilledWorkerRecoversBitIdentically) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(24);

  const auto baseline = harness::CampaignRunner::run(*app, dep);

  shard::ShardOptions opts;
  opts.shards = 2;
  opts.debug_kill_unit = 0;  // worker 0 dies before its first result
  const auto sharded = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(sharded), normalized_dump(baseline));
  EXPECT_TRUE(sharded.metrics.logical_equal(baseline.metrics));
  EXPECT_GE(sharded.metrics.value(telemetry::Counter::ShardWorkerRestarts),
            1u);
}

// ---- misbehaving workers ------------------------------------------------
//
// The coordinator execs `worker_path` with argv[0] set to that path, so a
// symlink to this test binary named "rogue-<once|always>-<mode>" turns
// the worker into one that answers with a result frame the coordinator
// must reject. A "once" rogue misbehaves only in the first process that
// claims the marker file next to its symlink; the replacements behave.

/// Each rogue mode and the cause the coordinator names for it when the
/// rogue is the only worker of a four-unit, four-trials-per-unit campaign
/// (so it holds unit 0 first).
constexpr std::pair<const char*, const char*> kRogueModes[] = {
    {"wrong-id", "result for unit 1 while unit 0 is in flight"},
    {"wrong-count", "result for unit 0 carries 3 outcome(s) for 4 ref(s)"},
    {"duplicate", "result for unit 0 while unit 1 is in flight"},
    {"unsolicited", "from a worker with no unit in flight"},
    {"bad-contamination",
     "result for unit 0 reports 5 contaminated rank(s) in a 4-rank job"},
};

/// Run the rogue worker when argv[0] names one; -1 otherwise.
int maybe_rogue_worker_main(int argc, char** argv) {
  constexpr std::string_view kFlag = "--shard-worker=";
  if (argc < 2 || !std::string_view(argv[1]).starts_with(kFlag)) return -1;
  const std::string self = argv[0];
  const std::string name = std::filesystem::path(self).filename().string();
  std::string mode;
  if (name.starts_with("rogue-always-")) {
    mode = name.substr(std::strlen("rogue-always-"));
  } else if (name.starts_with("rogue-once-")) {
    const int marker =
        ::open((self + ".fired").c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (marker < 0) return -1;  // a replacement: run the real worker
    ::close(marker);
    mode = name.substr(std::strlen("rogue-once-"));
  } else {
    return -1;
  }
  const int fd = std::atoi(argv[1] + kFlag.size());
  try {
    shard::read_handshake(fd);
    shard::write_handshake(fd);
    const auto init = std::get<shard::InitMsg>(*shard::read_message(fd));
    // Real outcomes, so only the framing is wrong.
    const auto app =
        apps::make_app(apps::parse_app_id(init.app), init.size_class);
    harness::GoldenStore store(init.store);
    const auto golden = store.load(*app, init.config.nranks);
    const harness::TrialSpace space(*app, init.config, *golden);
    auto answer = [&](const shard::UnitMsg& unit) {
      shard::ResultMsg result;
      result.id = unit.id;
      for (const harness::TrialRef& ref : unit.refs) {
        result.outcomes.push_back(space.run(ref));
      }
      return result;
    };
    if (mode == "unsolicited") {
      // A result before the ready frame: no unit is in flight yet.
      shard::write_message(fd, shard::ResultMsg{});
    } else {
      shard::write_message(fd, shard::ReadyMsg{});
      shard::ResultMsg result =
          answer(std::get<shard::UnitMsg>(*shard::read_message(fd)));
      if (mode == "wrong-id") result.id += 1;
      if (mode == "wrong-count") result.outcomes.pop_back();
      if (mode == "bad-contamination") {
        result.outcomes.front().contaminated = init.config.nranks + 1;
      }
      shard::write_message(fd, result);
      if (mode == "duplicate") shard::write_message(fd, result);
    }
    // Answer later units honestly until the coordinator kills us, so a bad
    // frame it wrongly accepted shows up in the tallies, not as a hang.
    while (const auto msg = shard::read_message(fd)) {
      const auto* unit = std::get_if<shard::UnitMsg>(&*msg);
      if (unit == nullptr) break;
      shard::write_message(fd, answer(*unit));
    }
  } catch (const std::exception&) {
  }
  return 0;
}

/// A symlink to this test binary that the coordinator runs as the rogue
/// worker `name` (see maybe_rogue_worker_main).
std::string rogue_worker(const std::string& dir, const std::string& name) {
  std::filesystem::create_directories(dir);
  const auto link = std::filesystem::path(dir) / name;
  std::filesystem::create_symlink(
      std::filesystem::read_symlink("/proc/self/exe"), link);
  return link.string();
}

// Result frames that do not answer the unit in flight on their worker — a
// stray id, a wrong outcome count, a duplicate, a result before any unit,
// a contamination count past the job's ranks — never reach the tallies:
// the worker is replaced, its unit re-run, and the campaign still saves
// the in-process bytes.
TEST(ShardCampaign, MismatchedResultFramesAreRejectedAndReDispatched) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(16);
  const std::string expected =
      normalized_dump(harness::CampaignRunner::run(*app, dep));
  const std::string dir = fresh_dir("rogue-once");
  for (const auto& [mode, cause] : kRogueModes) {
    SCOPED_TRACE(mode);
    shard::ShardOptions opts;
    opts.shards = 2;
    opts.worker_path = rogue_worker(dir, std::string("rogue-once-") + mode);
    const auto sharded = shard::run_sharded_campaign(*app, dep, opts);
    EXPECT_EQ(normalized_dump(sharded), expected);
    EXPECT_GE(sharded.metrics.value(telemetry::Counter::ShardWorkerRestarts),
              1u);
  }
  std::filesystem::remove_all(dir);
}

// With no replacement allowed, the run fails and names the rejected frame.
TEST(ShardCampaign, RejectedResultFrameIsNamedInTheError) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(16);
  const std::string dir = fresh_dir("rogue-always");
  for (const auto& [mode, cause] : kRogueModes) {
    SCOPED_TRACE(mode);
    shard::ShardOptions opts;
    opts.shards = 1;
    opts.max_worker_restarts = 0;
    // A caller-owned store outlives a failed campaign: keep it in `dir`.
    opts.golden_store_dir = dir + "/store";
    opts.worker_path = rogue_worker(dir, std::string("rogue-always-") + mode);
    try {
      (void)shard::run_sharded_campaign(*app, dep, opts);
      ADD_FAILURE() << "bad result frame accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(cause), std::string::npos) << what;
    }
  }
  std::filesystem::remove_all(dir);
}

// The private temp golden store goes away on every exit path: here the
// only worker is rejected and no replacement is allowed, so the campaign
// throws after its pre-pass filled the store.
TEST(ShardCampaign, ThrowingCampaignRemovesItsTempStore) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(16);
  const std::string dir = fresh_dir("rogue-temp-store");
  const auto temp_store = std::filesystem::temp_directory_path() /
                          ("resilience-shard-" + std::to_string(::getpid()));
  shard::ShardOptions opts;
  opts.shards = 1;
  opts.max_worker_restarts = 0;
  opts.worker_path = rogue_worker(dir, "rogue-always-wrong-id");
  EXPECT_THROW((void)shard::run_sharded_campaign(*app, dep, opts),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(temp_store)) << temp_store;
  std::filesystem::remove_all(dir);
}

TEST(ShardCampaign, GoldenStoreServesSecondInvocation) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::DeploymentConfig dep = small_config(12);
  shard::ShardOptions opts;
  opts.shards = 2;
  opts.golden_store_dir = fresh_dir("persist");

  const auto first = shard::run_sharded_campaign(*app, dep, opts);
  const auto second = shard::run_sharded_campaign(*app, dep, opts);

  EXPECT_EQ(normalized_dump(first), normalized_dump(second));
  EXPECT_EQ(first.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            1u);
  // Second invocation: nobody re-profiles — coordinator and both workers
  // all hit the persisted file.
  EXPECT_EQ(second.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            0u);
  EXPECT_GE(second.metrics.value(telemetry::Counter::GoldenStoreHits), 3u);
  std::filesystem::remove_all(opts.golden_store_dir);
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Pinned fixtures: one saved campaign per valid (app, catalog scenario)
// pair at 8 ranks, 16 trials, default seed, written by the release that
// still had the multi-worker and thread-per-rank cores, running each job
// on one scheduler worker (the schedule the single-threaded core
// reproduces) with wall_seconds zeroed. Rerunning every fixture's config
// in-process and on 4 shards must reproduce its bytes exactly.
TEST(PinnedFixtures, EveryAppScenarioPairReproducesInProcessAndSharded) {
  const std::filesystem::path dir = RESILIENCE_CAMPAIGN_FIXTURE_DIR;
  shard::ShardOptions opts;
  opts.shards = 4;
  std::size_t checked = 0;
  for (const apps::AppId id : apps::all_app_ids()) {
    const auto app = apps::make_app(id);
    const std::string label = app->label();
    const std::string stem = label.substr(0, label.find(' '));
    const harness::GoldenRun golden = harness::profile_app(*app, 8);
    for (const auto& entry : fsefi::scenario_catalog()) {
      const auto path = dir / (stem + "-" + entry.name + ".json");
      harness::DeploymentConfig dep;
      dep.nranks = 8;
      dep.trials = 16;
      dep.scenario = entry.scenario;
      if (!std::filesystem::exists(path)) {
        // Only pairs the deployment validator rejects may lack a fixture.
        EXPECT_ANY_THROW(harness::TrialSpace(*app, dep, golden))
            << path << " is missing";
        continue;
      }
      const std::string expected = read_text(path);
      const harness::CampaignResult pinned =
          harness::campaign_from_json(util::Json::parse(expected));
      EXPECT_EQ(harness::to_json(pinned).dump(2) + "\n", expected) << path;
      EXPECT_EQ(pinned.config.scenario, dep.scenario) << path;
      EXPECT_EQ(pinned.config.nranks, dep.nranks) << path;
      EXPECT_EQ(pinned.config.trials, dep.trials) << path;

      harness::CampaignResult in_process =
          harness::CampaignRunner::run(*app, pinned.config);
      in_process.wall_seconds = 0.0;
      EXPECT_EQ(harness::to_json(in_process).dump(2) + "\n", expected)
          << path << " in-process";
      harness::CampaignResult sharded =
          shard::run_sharded_campaign(*app, pinned.config, opts);
      sharded.wall_seconds = 0.0;
      EXPECT_EQ(harness::to_json(sharded).dump(2) + "\n", expected)
          << path << " on 4 shards";
      ++checked;
    }
  }
  EXPECT_EQ(checked, 35u);
}

// Pinned adaptive fixtures at 8 ranks, default seed, a 128-trial cap in
// batches of 16 and a 0.1 CI half-width target: CG under `paper` flips
// (stratified; stops at its cap) and PENNANT under `payload` flips (left
// unstratified; converges after 96 trials). The saved config does not
// carry the adaptive engine's settings, so they are set here. Rerunning
// each in-process and on 2 shards must reproduce its bytes exactly.
TEST(PinnedFixtures, AdaptiveCampaignsReproduceInProcessAndSharded) {
  const std::filesystem::path dir =
      std::filesystem::path(RESILIENCE_CAMPAIGN_FIXTURE_DIR) / "adaptive";
  shard::ShardOptions opts;
  opts.shards = 2;
  const std::pair<apps::AppId, const char*> kPinned[] = {
      {apps::AppId::CG, "CG-paper.json"},
      {apps::AppId::PENNANT, "PENNANT-payload.json"},
  };
  for (const auto& [id, file] : kPinned) {
    const auto path = dir / file;
    const std::string expected = read_text(path);
    ASSERT_FALSE(expected.empty()) << path;
    const auto app = apps::make_app(id);
    harness::DeploymentConfig dep =
        harness::campaign_from_json(util::Json::parse(expected)).config;
    dep.adaptive.enabled = true;
    dep.adaptive.batch = 16;
    dep.adaptive.min_trials = 32;
    dep.adaptive.ci_half_width = 0.1;

    harness::CampaignResult in_process = harness::CampaignRunner::run(*app, dep);
    in_process.wall_seconds = 0.0;
    EXPECT_EQ(harness::to_json(in_process).dump(2) + "\n", expected)
        << path << " in-process";
    harness::CampaignResult sharded =
        shard::run_sharded_campaign(*app, dep, opts);
    sharded.wall_seconds = 0.0;
    EXPECT_EQ(harness::to_json(sharded).dump(2) + "\n", expected)
        << path << " on 2 shards";
  }
}

/// One corrupted copy of a saved-campaign text: one to three bit flips, a
/// truncation, one random byte, or one run of digits replaced by a number
/// no field holds (negative, past int64, past every count, past u32).
std::string mutate_text(const std::string& valid, util::Xoshiro256& rng) {
  static constexpr std::string_view kNumbers[] = {
      "-1", "99999999999999999999", "1e308", "4294967296"};
  constexpr std::string_view kDigits = "0123456789";
  std::string out = valid;
  switch (rng.uniform_below(4)) {
    case 0:
      for (std::uint64_t n = 1 + rng.uniform_below(3); n > 0; --n) {
        out[rng.uniform_below(out.size())] ^=
            static_cast<char>(1u << rng.uniform_below(8));
      }
      break;
    case 1:
      out.resize(rng.uniform_below(out.size()));
      break;
    case 2:
      out[rng.uniform_below(out.size())] = static_cast<char>(rng.next() & 0xff);
      break;
    default: {
      std::size_t start =
          out.find_first_of(kDigits, rng.uniform_below(out.size()));
      if (start == std::string::npos) start = out.find_first_of(kDigits);
      const std::size_t end = out.find_first_not_of(kDigits, start);
      out.replace(start, end - start, kNumbers[rng.uniform_below(4)]);
      break;
    }
  }
  return out;
}

// The saved-campaign decoder is the one JSON decoder whose input crosses a
// process boundary. Fixed-seed text mutations of every pinned fixture must
// each decode or throw util::JsonError: no other exception, no undefined
// behaviour under the sanitizers, no crash.
TEST(PinnedFixtures, MutatedFixturesDecodeOrThrowJsonError) {
  util::Xoshiro256 rng(20180813);
  std::size_t fixtures = 0, rejected = 0, decoded = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           RESILIENCE_CAMPAIGN_FIXTURE_DIR)) {
    if (!entry.is_regular_file()) continue;
    const std::string valid = read_text(entry.path());
    ++fixtures;
    for (int n = 0; n < 1000; ++n) {
      const std::string text = mutate_text(valid, rng);
      try {
        (void)harness::campaign_from_json(util::Json::parse(text));
        ++decoded;
      } catch (const util::JsonError&) {
        ++rejected;
      } catch (const std::exception& e) {
        FAIL() << "mutation " << n << " of " << entry.path()
               << " escaped as " << typeid(e).name() << ": " << e.what();
      }
    }
  }
  EXPECT_EQ(fixtures, 37u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

// Regression: how many ranks a Failure trial contaminated before teardown
// used to depend on how scheduler workers interleaved rank fibers, so a
// sharded adaptive campaign's saved JSON (contamination profile and the
// post-stratified r_x built on it) differed from the in-process one.
// PENNANT under payload flips, the benchmark's adaptive-sharded
// configuration at seed 1, showed it in most runs.
TEST(ShardCampaign, PennantPayloadAdaptiveShardedMatchesInProcess) {
  const auto app = apps::make_app(apps::AppId::PENNANT);
  harness::DeploymentConfig dep;
  dep.nranks = 8;
  dep.scenario = fsefi::scenario_by_name("payload");
  dep.trials = 4000;
  dep.seed = util::derive_seed(1, /*app index=*/1, /*scenario index=*/1);
  dep.adaptive.enabled = true;
  dep.adaptive.ci_half_width = 0.02;

  const auto baseline = harness::CampaignRunner::run(*app, dep);
  shard::ShardOptions opts;
  opts.shards = 4;
  const auto sharded = shard::run_sharded_campaign(*app, dep, opts);

  ASSERT_TRUE(baseline.adaptive.has_value());
  EXPECT_GT(baseline.overall.failure, 0u);  // the schedule-sensitive trials
  EXPECT_EQ(normalized_dump(sharded), normalized_dump(baseline));
  EXPECT_TRUE(sharded.metrics.logical_equal(baseline.metrics));
}

}  // namespace

int main(int argc, char** argv) {
  // Worker re-exec paths: must run before gtest touches the arguments.
  if (const int rc = maybe_rogue_worker_main(argc, argv); rc >= 0) return rc;
  if (const int rc = resilience::shard::maybe_worker_main(argc, argv);
      rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
