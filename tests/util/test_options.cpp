// RuntimeOptions: the one place every RESILIENCE_* knob is resolved
// (src/util/options.cpp is the only translation unit allowed to read the
// process environment). These tests cover env resolution, defaults,
// malformed-value warnings, the warning for a variable no knob reads, and
// the set_global/reset_global injection hooks the other suites use to run
// with known options.
#include "util/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace resilience::util {
namespace {

const char* const kAllVars[] = {
    "RESILIENCE_TRIALS",       "RESILIENCE_SEED",
    "RESILIENCE_THREADS",      "RESILIENCE_GOLDEN_STORE",
    "RESILIENCE_SHARD_KILL",   "RESILIENCE_FRAME_CAP_MB",
};

/// Clears every knob before and after each test so the suite is immune
/// to the invoking shell's environment.
class RuntimeOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override {
    clear();
    RuntimeOptions::reset_global();
  }
  static void clear() {
    for (const char* var : kAllVars) ::unsetenv(var);
  }
};

TEST_F(RuntimeOptionsTest, DefaultsWhenNothingSet) {
  const RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.threads, 0);
  EXPECT_TRUE(opts.golden_store.empty());
  EXPECT_EQ(opts.shard_kill_unit, -1);
  EXPECT_EQ(opts.frame_cap_mb, 256u);
}

TEST_F(RuntimeOptionsTest, ResolvesEveryVariable) {
  ::setenv("RESILIENCE_THREADS", "6", 1);
  ::setenv("RESILIENCE_GOLDEN_STORE", "store", 1);
  ::setenv("RESILIENCE_SHARD_KILL", "2", 1);
  ::setenv("RESILIENCE_FRAME_CAP_MB", "64", 1);
  const RuntimeOptions opts = RuntimeOptions::from_env();
  EXPECT_EQ(opts.threads, 6);
  EXPECT_EQ(opts.golden_store, "store");
  EXPECT_EQ(opts.shard_kill_unit, 2);
  EXPECT_EQ(opts.frame_cap_mb, 64u);
}

TEST_F(RuntimeOptionsTest, WarnsAndFallsBackOnMalformedValues) {
  ::setenv("RESILIENCE_THREADS", "many", 1);
  ::setenv("RESILIENCE_SHARD_KILL", "soon", 1);
  ::setenv("RESILIENCE_FRAME_CAP_MB", "lots", 1);
  ::testing::internal::CaptureStderr();
  const RuntimeOptions opts = RuntimeOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(opts.threads, 0);
  EXPECT_EQ(opts.shard_kill_unit, -1);
  EXPECT_EQ(opts.frame_cap_mb, 256u);
  EXPECT_NE(err.find("warning"), std::string::npos);
  EXPECT_NE(err.find("RESILIENCE_THREADS"), std::string::npos);
  EXPECT_NE(err.find("RESILIENCE_SHARD_KILL"), std::string::npos);
  EXPECT_NE(err.find("RESILIENCE_FRAME_CAP_MB"), std::string::npos);
}

TEST_F(RuntimeOptionsTest, BelowMinimumValuesClamp) {
  ::setenv("RESILIENCE_THREADS", "-4", 1);
  ::setenv("RESILIENCE_SHARD_KILL", "-9", 1);
  ::setenv("RESILIENCE_FRAME_CAP_MB", "0", 1);
  ::testing::internal::CaptureStderr();
  const RuntimeOptions opts = RuntimeOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(opts.threads, 0);           // clamped to the 0 = auto floor
  EXPECT_EQ(opts.shard_kill_unit, -1);  // clamped to the -1 = off floor
  EXPECT_EQ(opts.frame_cap_mb, 1u);     // at least one MiB per frame
  EXPECT_NE(err.find("below the minimum"), std::string::npos);
}

// A knob that was deleted (its setting now has a CLI flag) must not vanish
// silently: from_env() names every RESILIENCE_* variable no knob reads,
// once, and stays quiet about the kept ones.
TEST_F(RuntimeOptionsTest, WarnsOnceForEachVariableNoKnobReads) {
  ::setenv("RESILIENCE_ADAPTIVE", "1", 1);
  for (const char* var : kAllVars) ::setenv(var, "1", 1);
  ::testing::internal::CaptureStderr();
  (void)RuntimeOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("RESILIENCE_ADAPTIVE");
  const std::string named = "RESILIENCE_ADAPTIVE:";
  const std::size_t at = err.find(named);
  ASSERT_NE(at, std::string::npos) << err;
  EXPECT_EQ(err.find(named, at + 1), std::string::npos) << err;
  for (const char* var : kAllVars) {
    EXPECT_EQ(err.find(var), std::string::npos) << var << ": " << err;
  }
}

TEST_F(RuntimeOptionsTest, GlobalInjectionForTests) {
  RuntimeOptions opts;
  opts.threads = 3;
  opts.frame_cap_mb = 2;
  RuntimeOptions::set_global(opts);
  EXPECT_EQ(RuntimeOptions::global().threads, 3);
  EXPECT_EQ(RuntimeOptions::global().frame_cap_mb, 2u);

  // reset_global() re-resolves from the (cleared) environment.
  RuntimeOptions::reset_global();
  EXPECT_EQ(RuntimeOptions::global().threads, 0);
  EXPECT_EQ(RuntimeOptions::global().frame_cap_mb, 256u);
}

TEST_F(RuntimeOptionsTest, GlobalPicksUpEnvironmentOnReset) {
  ::setenv("RESILIENCE_GOLDEN_STORE", "/tmp/store", 1);
  RuntimeOptions::reset_global();
  EXPECT_EQ(RuntimeOptions::global().golden_store, "/tmp/store");
}

}  // namespace
}  // namespace resilience::util
