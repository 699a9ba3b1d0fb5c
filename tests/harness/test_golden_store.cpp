// The on-disk GoldenStore and campaign serialization: golden-v2
// full-fidelity round trips (profiles, signature, checkpoints with their
// rank state), byte-stable campaign re-serialization, and the store's
// miss/fill/hit and corruption-recovery behavior, hostile files included.
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../binary_mutations.hpp"

#include "apps/app.hpp"
#include "harness/campaign.hpp"
#include "harness/checkpoint.hpp"
#include "harness/golden_cache.hpp"
#include "harness/golden_store.hpp"
#include "harness/runner.hpp"
#include "harness/serialize.hpp"
#include "telemetry/telemetry.hpp"
#include "util/binio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace resilience;

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("resilience-test-" + tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  return {p, p + text.size()};
}

void write_bytes(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

harness::GoldenRun profile_cg(int nranks) {
  const auto app = apps::make_app(apps::AppId::CG);
  return harness::profile_app(*app, nranks);
}

TEST(CampaignJson, ReserializationIsByteStable) {
  const auto app = apps::make_app(apps::AppId::CG);
  harness::DeploymentConfig dep;
  dep.nranks = 2;
  dep.trials = 12;
  const auto campaign = harness::CampaignRunner::run(*app, dep);
  const std::string once = harness::to_json(campaign).dump();
  const std::string twice =
      harness::to_json(harness::campaign_from_json(util::Json::parse(once)))
          .dump();
  EXPECT_EQ(once, twice);
}

TEST(GoldenStore, MissFillHit) {
  const std::string dir = fresh_dir("store");
  const auto app = apps::make_app(apps::AppId::CG);
  telemetry::MetricScope metrics;
  int profiles = 0;
  {
    telemetry::ScopeGuard guard(&metrics);
    harness::GoldenStore store(dir);
    EXPECT_EQ(store.load(*app, 2), nullptr);  // cold: miss
    const auto filled = store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    ASSERT_NE(filled, nullptr);
    const auto again = store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->signature, filled->signature);
  }
  EXPECT_EQ(profiles, 1);  // second load_or_fill served from disk
  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.value(telemetry::Counter::GoldenStoreMisses), 2u);
  EXPECT_GE(snap.value(telemetry::Counter::GoldenStoreHits), 1u);
  std::filesystem::remove_all(dir);
}

TEST(GoldenStore, CorruptFileIsUnlinkedAndRefilled) {
  const std::string dir = fresh_dir("corrupt");
  const auto app = apps::make_app(apps::AppId::CG);
  harness::GoldenStore store(dir);
  int profiles = 0;
  (void)store.load_or_fill(*app, 2, [&] {
    ++profiles;
    return profile_cg(2);
  });
  const std::string path = store.path_for(*app, 2);
  ASSERT_TRUE(std::filesystem::exists(path));

  {  // not a golden-v2 file at all
    std::ofstream out(path, std::ios::trunc);
    out << "not a store file";
  }
  EXPECT_EQ(store.load(*app, 2), nullptr);
  EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt file not unlinked";

  (void)store.load_or_fill(*app, 2, [&] {
    ++profiles;
    return profile_cg(2);
  });
  EXPECT_EQ(profiles, 2);  // clean refill after the corruption
  ASSERT_TRUE(std::filesystem::exists(path));

  const auto bytes = read_bytes(path);  // a valid file, truncated
  write_bytes(path, std::span(bytes).first(bytes.size() / 2));
  EXPECT_EQ(store.load(*app, 2), nullptr);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

TEST(GoldenStore, KeyedByAppAndScale) {
  const std::string dir = fresh_dir("keys");
  harness::GoldenStore store(dir);
  const auto cg = apps::make_app(apps::AppId::CG);
  const auto ft = apps::make_app(apps::AppId::FT);
  EXPECT_NE(store.path_for(*cg, 2), store.path_for(*cg, 4));
  EXPECT_NE(store.path_for(*cg, 2), store.path_for(*ft, 2));
  int profiles = 0;
  (void)store.load_or_fill(*cg, 2, [&] {
    ++profiles;
    return profile_cg(2);
  });
  // A different scale is a different key: no cross-talk.
  EXPECT_EQ(store.load(*cg, 4), nullptr);
  EXPECT_EQ(profiles, 1);
  std::filesystem::remove_all(dir);
}

// A golden run loaded from the store must drive a campaign to the exact
// result a freshly profiled one produces — checkpoint fast path included.
TEST(GoldenStore, LoadedGoldenReproducesCampaign) {
  const std::string dir = fresh_dir("repro");
  const auto app = apps::make_app(apps::AppId::CG);
  harness::DeploymentConfig dep;
  dep.nranks = 2;
  dep.trials = 16;

  auto baseline = harness::CampaignRunner::run(*app, dep);

  harness::GoldenStore store(dir);
  harness::GoldenCache cache(&store);
  harness::CampaignContext context;
  context.golden_cache = &cache;
  auto first = harness::CampaignRunner::run(*app, dep, context);

  harness::GoldenCache cache2(&store);  // fresh process-equivalent: disk hit
  harness::CampaignContext context2;
  context2.golden_cache = &cache2;
  auto second = harness::CampaignRunner::run(*app, dep, context2);

  baseline.wall_seconds = first.wall_seconds = second.wall_seconds = 0.0;
  EXPECT_EQ(harness::to_json(first).dump(), harness::to_json(baseline).dump());
  EXPECT_EQ(harness::to_json(second).dump(),
            harness::to_json(baseline).dump());
  EXPECT_EQ(second.metrics.value(telemetry::Counter::HarnessGoldenProfiles),
            0u);
  EXPECT_GE(second.metrics.value(telemetry::Counter::GoldenStoreHits), 1u);
  std::filesystem::remove_all(dir);
}

// ---- golden-v2 binary format ------------------------------------------

void expect_same_golden(const harness::GoldenRun& a,
                        const harness::GoldenRun& b) {
  EXPECT_EQ(b.signature, a.signature);  // bit-exact doubles
  EXPECT_EQ(b.max_rank_ops, a.max_rank_ops);
  EXPECT_EQ(b.recv_reals, a.recv_reals);
  ASSERT_EQ(b.profiles.size(), a.profiles.size());
  for (std::size_t r = 0; r < a.profiles.size(); ++r) {
    EXPECT_EQ(b.profiles[r], a.profiles[r]) << r;
  }
  ASSERT_EQ(b.checkpoints == nullptr, a.checkpoints == nullptr);
  if (a.checkpoints == nullptr) return;
  const auto& ca = *a.checkpoints;
  const auto& cb = *b.checkpoints;
  EXPECT_EQ(cb.nranks, ca.nranks);
  EXPECT_EQ(cb.iterations, ca.iterations);
  EXPECT_EQ(cb.state_reals, ca.state_reals);
  EXPECT_EQ(cb.signature, ca.signature);
  ASSERT_EQ(cb.final_profiles.size(), ca.final_profiles.size());
  for (std::size_t r = 0; r < ca.final_profiles.size(); ++r) {
    EXPECT_EQ(cb.final_profiles[r], ca.final_profiles[r]) << r;
  }
  ASSERT_EQ(cb.boundaries.size(), ca.boundaries.size());
  for (std::size_t i = 0; i < ca.boundaries.size(); ++i) {
    EXPECT_EQ(cb.boundaries[i].iter, ca.boundaries[i].iter);
    EXPECT_EQ(cb.boundaries[i].profiles, ca.boundaries[i].profiles);
    EXPECT_EQ(cb.boundaries[i].digests, ca.boundaries[i].digests);
    ASSERT_EQ(cb.boundaries[i].state.size(), ca.boundaries[i].state.size());
    for (std::size_t r = 0; r < ca.boundaries[i].state.size(); ++r) {
      EXPECT_EQ(cb.boundaries[i].state[r], ca.boundaries[i].state[r]);
    }
  }
}

TEST(GoldenStoreBinary, RoundTripsGoldenWithoutCheckpoints) {
  harness::GoldenRun golden = profile_cg(2);
  golden.checkpoints = nullptr;  // apps without boundary hooks
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("no-ckpt");
  harness::GoldenStore store(dir);
  store.put(*app, 2, golden);
  const auto back = store.load(*app, 2);
  ASSERT_NE(back, nullptr);
  expect_same_golden(golden, *back);
  std::filesystem::remove_all(dir);
}

// The restore fast path copies checkpoint bytes exactly once: the store
// load must hand out state spans borrowed straight from the mmap, not
// heap copies of them.
TEST(GoldenStoreBinary, LoadedStateIsBorrowedFromTheMapping) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("borrow");
  harness::GoldenStore store(dir);
  store.put(*app, 2, profile_cg(2));
  const auto back = store.load(*app, 2);
  ASSERT_NE(back, nullptr);
  ASSERT_NE(back->checkpoints, nullptr);
  EXPECT_NE(back->checkpoints->backing, nullptr) << "mmap not pinned";
  bool saw_state = false;
  for (const auto& boundary : back->checkpoints->boundaries) {
    for (const auto& state : boundary.state) {
      if (state.size() == 0) continue;
      saw_state = true;
      EXPECT_TRUE(state.is_borrowed());
    }
  }
  EXPECT_TRUE(saw_state) << "CG checkpoints should carry rank state";
  std::filesystem::remove_all(dir);
}

// A borrowed golden must outlive both the store object and the file's
// directory entry: the mapping pins the inode. Also the field-by-field
// round trip of a checkpointed golden run through the store.
TEST(GoldenStoreBinary, LoadedGoldenSurvivesStoreAndFileRemoval) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::GoldenRun golden = profile_cg(2);
  const std::string dir = fresh_dir("pin");
  std::shared_ptr<const harness::GoldenRun> back;
  {
    harness::GoldenStore store(dir);
    store.put(*app, 2, golden);
    back = store.load(*app, 2);
    ASSERT_NE(back, nullptr);
  }
  std::filesystem::remove_all(dir);
  expect_same_golden(golden, *back);  // still reads the unlinked mapping
}

TEST(GoldenStoreBinary, BitFlippedFileIsUnlinkedAndRefilled) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("bitflip");
  telemetry::MetricScope metrics;
  int profiles = 0;
  {
    telemetry::ScopeGuard guard(&metrics);
    harness::GoldenStore store(dir);
    (void)store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    const std::string path = store.path_for(*app, 2);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Flip one bit in the middle of the section data: the section CRC
    // must catch it, unlink the file, and report a miss.
    auto bytes = read_bytes(path);
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] ^= std::byte{0x01};
    write_bytes(path, bytes);
    EXPECT_EQ(store.load(*app, 2), nullptr);
    EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt v2 not unlinked";

    (void)store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    EXPECT_EQ(profiles, 2);
  }
  const auto snap = metrics.snapshot();
  EXPECT_GE(snap.value(telemetry::Counter::GoldenStoreRefills), 1u);
  std::filesystem::remove_all(dir);
}

TEST(GoldenStoreBinary, TruncatedFileIsUnlinkedAndRefilled) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("trunc-bin");
  harness::GoldenStore store(dir);
  store.put(*app, 2, profile_cg(2));
  const std::string path = store.path_for(*app, 2);

  const auto bytes = read_bytes(path);
  write_bytes(path, std::span(bytes).first(bytes.size() / 2));
  EXPECT_EQ(store.load(*app, 2), nullptr);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

// A structurally valid file written under other checkpoint settings (an
// older binary's budget, or its checkpoints-off flag) is not what this
// process would profile. It loads as a plain miss and stays in place, and
// load_or_fill replaces it with a golden equal to a fresh profile.
TEST(GoldenStoreBinary, FileUnderOtherCheckpointSettingsIsReplaced) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::GoldenRun fresh = profile_cg(2);
  // golden-v2 header (DESIGN.md §15): magic[8], then u32 version,
  // sections, nranks and checkpoint flag, u64 budget, u32 header CRC.
  constexpr std::size_t kFlagAt = 20, kBudgetAt = 24, kCrcAt = 32;
  const auto patch = [](std::vector<std::byte>& bytes, std::size_t at,
                        std::uint64_t value, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes[at + i] = static_cast<std::byte>(value >> (8 * i));
    }
  };
  struct Rewrite {
    const char* field;
    std::size_t at;
    std::size_t width;
    std::uint64_t value;
  };
  for (const Rewrite& rw : {Rewrite{"budget", kBudgetAt, 8, 3},
                            Rewrite{"flag", kFlagAt, 4, 0}}) {
    const std::string dir = fresh_dir("settings");
    harness::GoldenStore store(dir);
    store.put(*app, 2, fresh);
    const std::string path = store.path_for(*app, 2);
    auto bytes = read_bytes(path);
    patch(bytes, rw.at, rw.value, rw.width);
    patch(bytes, kCrcAt, util::crc32(std::span(bytes).first(kCrcAt)), 4);
    write_bytes(path, bytes);

    EXPECT_EQ(store.load(*app, 2), nullptr) << rw.field;
    EXPECT_EQ(read_bytes(path), bytes) << rw.field << ": file not kept";
    int profiles = 0;
    const auto filled = store.load_or_fill(*app, 2, [&] {
      ++profiles;
      return profile_cg(2);
    });
    ASSERT_NE(filled, nullptr) << rw.field;
    EXPECT_EQ(profiles, 1) << rw.field;
    expect_same_golden(fresh, *filled);
    const auto reloaded = store.load(*app, 2);
    ASSERT_NE(reloaded, nullptr) << rw.field << ": file not replaced";
    expect_same_golden(fresh, *reloaded);
    std::filesystem::remove_all(dir);
  }
}

// Only `-v2.bin` files are store files: a leftover golden-v1 JSON file
// under the same key is never opened, so it neither serves a hit nor
// counts as a corrupt file to unlink.
TEST(GoldenStoreBinary, StrayV1FileIsNeverOpened) {
  const auto app = apps::make_app(apps::AppId::CG);
  const std::string dir = fresh_dir("stray-v1");
  harness::GoldenStore store(dir);
  const std::string v2_path = store.path_for(*app, 2);
  const std::string v1_path =
      v2_path.substr(0, v2_path.rfind("-v2.bin")) + "-v1.json";
  {
    std::ofstream out(v1_path);
    out << "{\"schema\": \"resilience-golden-store/1\"}\n";
  }
  telemetry::MetricScope metrics;
  {
    telemetry::ScopeGuard guard(&metrics);
    EXPECT_EQ(store.load(*app, 2), nullptr);
  }
  EXPECT_TRUE(std::filesystem::exists(v1_path));
  EXPECT_EQ(metrics.snapshot().value(telemetry::Counter::GoldenStoreRefills),
            0u);
  std::filesystem::remove_all(dir);
}

// A few thousand fixed-seed mutations of one golden-v2 file written by
// put (bit flips, truncations, inflated counts, random bytes), plus every
// byte of the header and section table overwritten with random values:
// each file must load either as a miss that unlinks it and counts a
// refill, or as the original golden run — never as a different run, never
// a crash.
TEST(GoldenStoreBinary, MutatedFilesLoadAsMissOrAsTheOriginal) {
  const auto app = apps::make_app(apps::AppId::CG);
  const harness::GoldenRun golden = profile_cg(2);
  ASSERT_NE(golden.checkpoints, nullptr);
  const std::string dir = fresh_dir("mutate");
  harness::GoldenStore store(dir);
  store.put(*app, 2, golden);
  const std::string path = store.path_for(*app, 2);
  const std::vector<std::byte> valid = read_bytes(path);

  std::size_t misses = 0;
  const auto load_mutated = [&](std::span<const std::byte> bytes) {
    write_bytes(path, bytes);
    telemetry::MetricScope metrics;
    std::shared_ptr<const harness::GoldenRun> back;  // unmapped per call
    {
      telemetry::ScopeGuard guard(&metrics);
      back = store.load(*app, 2);
    }
    if (back == nullptr) {
      ++misses;
      EXPECT_FALSE(std::filesystem::exists(path));
      EXPECT_EQ(
          metrics.snapshot().value(telemetry::Counter::GoldenStoreRefills),
          1u);
    } else {
      expect_same_golden(golden, *back);
    }
  };

  util::Xoshiro256 rng(20180813);
  for (int n = 0; n < 2000; ++n) {
    load_mutated(test::mutate_encoding(valid, rng));
    if (HasFailure()) FAIL() << "mutation " << n;
  }
  // 36-byte header + one 24-byte table entry per section (DESIGN.md §15).
  const std::size_t structural = 36 + 3 * 24;
  ASSERT_GT(valid.size(), structural);
  for (std::size_t at = 0; at < structural; ++at) {
    for (int n = 0; n < 4; ++n) {
      auto bytes = valid;
      bytes[at] = static_cast<std::byte>(rng.next() & 0xff);
      load_mutated(bytes);
      if (HasFailure()) FAIL() << "byte " << at;
    }
  }
  EXPECT_GT(misses, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
