// Tests for src/common: aligned buffers, saturating casts, RNG, partitioning,
// whole-file text persistence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "common/text_file.h"
#include "common/timer.h"
#include "parallel/partition.h"

namespace lowino {
namespace {

TEST(AlignedBuffer, AllocatesCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u, 4096u}) {
    AlignedBuffer<float> buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
    EXPECT_EQ(buf.size(), n);
  }
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(16);
  a[0] = 42;
  int* p = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move): asserting moved-from state
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, EnsureGrowsOnlyWhenNeeded) {
  AlignedBuffer<int> a(16);
  int* p = a.data();
  a.ensure(8);
  EXPECT_EQ(a.data(), p);  // no reallocation for smaller request
  a.ensure(32);
  EXPECT_EQ(a.size(), 32u);
}

TEST(AlignedBuffer, FillZero) {
  AlignedBuffer<std::int32_t> a(100);
  for (std::size_t i = 0; i < 100; ++i) a[i] = -1;
  a.fill_zero();
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i], 0);
}

TEST(RoundUp, Basics) {
  EXPECT_EQ(round_up(0, 64), 0u);
  EXPECT_EQ(round_up(1, 64), 64u);
  EXPECT_EQ(round_up(64, 64), 64u);
  EXPECT_EQ(round_up(65, 64), 128u);
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(8, 4), 2u);
  EXPECT_EQ(ceil_div(9, 4), 3u);
}

TEST(Saturate, Int8Clamps) {
  EXPECT_EQ(saturate_cast_i8(0.0f), 0);
  EXPECT_EQ(saturate_cast_i8(127.4f), 127);
  EXPECT_EQ(saturate_cast_i8(1000.0f), 127);
  EXPECT_EQ(saturate_cast_i8(-1000.0f), -128);
  EXPECT_EQ(saturate_cast_i8(-128.4f), -128);
}

TEST(Saturate, RoundsToNearestEven) {
  EXPECT_EQ(saturate_cast_i8(0.5f), 0);
  EXPECT_EQ(saturate_cast_i8(1.5f), 2);
  EXPECT_EQ(saturate_cast_i8(2.5f), 2);
  EXPECT_EQ(saturate_cast_i8(-0.5f), 0);
  EXPECT_EQ(saturate_cast_i8(-1.5f), -2);
}

TEST(Saturate, UInt8Clamps) {
  EXPECT_EQ(saturate_cast_u8(-1.0f), 0);
  EXPECT_EQ(saturate_cast_u8(0.0f), 0);
  EXPECT_EQ(saturate_cast_u8(255.2f), 255);
  EXPECT_EQ(saturate_cast_u8(300.0f), 255);
}

TEST(Saturate, Int32Narrowing) {
  EXPECT_EQ(saturate_i32_to_i8(200), 127);
  EXPECT_EQ(saturate_i32_to_i8(-200), -128);
  EXPECT_EQ(saturate_i32_to_i8(5), 5);
  EXPECT_EQ(saturate_i32_to_i16(100000), 32767);
  EXPECT_EQ(saturate_i32_to_i16(-100000), -32768);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, NormalHasReasonableMoments) {
  Rng rng(42);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(StaticPartition, CoversRangeExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 100u, 1023u}) {
    for (std::size_t workers : {1u, 2u, 3u, 8u, 17u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t tid = 0; tid < workers; ++tid) {
        const Range r = static_partition(n, workers, tid);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(prev_end, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(StaticPartition, BalancedWithinOne) {
  const std::size_t n = 1000, workers = 7;
  std::size_t mn = n, mx = 0;
  for (std::size_t tid = 0; tid < workers; ++tid) {
    const Range r = static_partition(n, workers, tid);
    mn = std::min(mn, r.size());
    mx = std::max(mx, r.size());
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(StaticPartitionGranular, RespectsGranule) {
  const std::size_t n = 100, workers = 3, granule = 16;
  std::size_t prev_end = 0;
  for (std::size_t tid = 0; tid < workers; ++tid) {
    const Range r = static_partition_granular(n, workers, tid, granule);
    EXPECT_EQ(r.begin, prev_end);
    if (tid + 1 < workers && r.end < n) EXPECT_EQ(r.end % granule, 0u);
    prev_end = r.end;
  }
  EXPECT_EQ(prev_end, n);
}

TEST(CpuFeatures, OverrideWorks) {
  CpuFeatures none;
  override_cpu_features_for_test(&none);
  EXPECT_FALSE(cpu_features().has_vnni_kernels());
  override_cpu_features_for_test(nullptr);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(TimingStats, Summarize) {
  const TimingStats s = summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_EQ(s.samples, 3u);
}

// --- Environment-knob parsing ----------------------------------------------
// Scoped setter so a failing assertion can't leak state into other tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Env, LongParsesAndFallsBack) {
  constexpr const char* kVar = "LOWINO_TEST_ENV_LONG";
  ::unsetenv(kVar);
  EXPECT_EQ(env_long(kVar, 7), 7);
  {
    ScopedEnv e(kVar, "42");
    EXPECT_EQ(env_long(kVar, 7), 42);
  }
  {
    ScopedEnv e(kVar, "-3");
    EXPECT_EQ(env_long(kVar, 7), -3);
  }
  {
    // Entirely non-numeric input falls back to the default — no crash, no 0.
    ScopedEnv e(kVar, "banana");
    EXPECT_EQ(env_long(kVar, 7), 7);
  }
  {
    ScopedEnv e(kVar, "");
    EXPECT_EQ(env_long(kVar, 7), 7);
  }
}

TEST(Env, FlagTruthTableAndCaseHandling) {
  constexpr const char* kVar = "LOWINO_TEST_ENV_FLAG";
  ::unsetenv(kVar);
  EXPECT_FALSE(env_flag(kVar));
  EXPECT_TRUE(env_flag(kVar, true));
  for (const char* truthy : {"1", "true", "TRUE", "True", "yes", "YES", "on", "ON"}) {
    ScopedEnv e(kVar, truthy);
    EXPECT_TRUE(env_flag(kVar)) << truthy;
  }
  for (const char* falsy : {"0", "false", "off", "no", "2", "yess", "garbage"}) {
    ScopedEnv e(kVar, falsy);
    EXPECT_FALSE(env_flag(kVar)) << falsy;
    // An *invalid* value is simply "not truthy": it also overrides a true
    // fallback, which is the documented set-means-explicit behaviour.
    EXPECT_FALSE(env_flag(kVar, true)) << falsy;
  }
}

TEST(Env, StringFallsBackOnlyWhenUnsetOrEmpty) {
  constexpr const char* kVar = "LOWINO_TEST_ENV_STRING";
  ::unsetenv(kVar);
  EXPECT_EQ(env_string(kVar, "dflt"), "dflt");
  {
    ScopedEnv e(kVar, "value");
    EXPECT_EQ(env_string(kVar, "dflt"), "value");
  }
  {
    ScopedEnv e(kVar, "");
    EXPECT_EQ(env_string(kVar, "dflt"), "dflt");
  }
}

// --- RuntimeConfig override layer -------------------------------------------

TEST(RuntimeConfig, OverrideBeatsEnvironmentAndClearsCleanly) {
  constexpr const char* kVar = "LOWINO_TEST_CONFIG_LONG";
  ScopedEnv env(kVar, "7");
  EXPECT_EQ(config_long(kVar, 0), 7);

  RuntimeConfig::set(kVar, "42");
  EXPECT_EQ(config_long(kVar, 0), 42) << "programmatic override must beat env";
  EXPECT_EQ(env_long(kVar, 0), 7) << "raw env reader must ignore overrides";

  RuntimeConfig::clear(kVar);
  EXPECT_EQ(config_long(kVar, 0), 7) << "clearing re-exposes the environment";
}

TEST(RuntimeConfig, StringAndFlagReadsHonourOverrides) {
  constexpr const char* kStr = "LOWINO_TEST_CONFIG_STRING";
  constexpr const char* kFlag = "LOWINO_TEST_CONFIG_FLAG";
  ::unsetenv(kStr);
  ::unsetenv(kFlag);
  EXPECT_EQ(config_string(kStr, "dflt"), "dflt");
  EXPECT_FALSE(config_flag(kFlag));

  RuntimeConfig::set(kStr, "fused");
  RuntimeConfig::set(kFlag, "yes");
  EXPECT_EQ(config_string(kStr, "dflt"), "fused");
  EXPECT_TRUE(config_flag(kFlag));
  // Flag parsing matches env_flag: an explicit non-truthy override means off
  // even against a true fallback.
  RuntimeConfig::set(kFlag, "garbage");
  EXPECT_FALSE(config_flag(kFlag, true));

  RuntimeConfig::clear(kStr);
  RuntimeConfig::clear(kFlag);
  EXPECT_EQ(config_string(kStr, "dflt"), "dflt");
  EXPECT_FALSE(config_flag(kFlag));
}

TEST(RuntimeConfig, GetReportsOverridesOnlyAndClearAllSweeps) {
  constexpr const char* kVar = "LOWINO_TEST_CONFIG_GET";
  ScopedEnv env(kVar, "env-value");
  EXPECT_FALSE(RuntimeConfig::get(kVar).has_value())
      << "get() must not fall through to the environment";
  RuntimeConfig::set(kVar, "a");
  RuntimeConfig::set("LOWINO_TEST_CONFIG_GET_2", "b");
  EXPECT_EQ(RuntimeConfig::get(kVar), "a");
  RuntimeConfig::clear_all();
  EXPECT_FALSE(RuntimeConfig::get(kVar).has_value());
  EXPECT_FALSE(RuntimeConfig::get("LOWINO_TEST_CONFIG_GET_2").has_value());
}

TEST(RuntimeConfig, ScopedOverrideRestoresPreviousState) {
  constexpr const char* kVar = "LOWINO_TEST_CONFIG_SCOPED";
  ::unsetenv(kVar);
  {
    ScopedRuntimeOverride outer(kVar, "outer");
    EXPECT_EQ(config_string(kVar, ""), "outer");
    {
      ScopedRuntimeOverride inner(kVar, "inner");
      EXPECT_EQ(config_string(kVar, ""), "inner");
    }
    EXPECT_EQ(config_string(kVar, ""), "outer") << "inner scope must restore outer value";
  }
  EXPECT_FALSE(RuntimeConfig::get(kVar).has_value())
      << "outermost scope must restore the no-override state";
  EXPECT_EQ(config_string(kVar, "dflt"), "dflt");
}

// --- Whole-file text persistence ----------------------------------------------
// The fault-injected crash window is covered through both stores in
// test_fault.cc; these cover the plain I/O paths of the one writer.

bool exists(const std::string& path) { return std::ifstream(path).good(); }

TEST(TextFile, SaveOverwritesAndLoadReturnsTheExactBytes) {
  const std::string path = ::testing::TempDir() + "lowino_text_file.txt";
  ASSERT_TRUE(save_text_file(path, "first\nversion\n"));
  const std::string second = "second = 1 2\n# no trailing newline";
  ASSERT_TRUE(save_text_file(path, second));
  EXPECT_FALSE(exists(path + ".tmp")) << "temp residue after a save";
  EXPECT_EQ(load_text_file(path), second);
  ASSERT_TRUE(save_text_file(path, ""));
  EXPECT_EQ(load_text_file(path), "");
  std::remove(path.c_str());
}

TEST(TextFile, SaveIntoAMissingDirectoryReturnsFalse) {
  const std::string path = ::testing::TempDir() + "lowino_no_such_dir/plan.txt";
  EXPECT_FALSE(save_text_file(path, "text"));
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(path + ".tmp"));
}

}  // namespace
}  // namespace lowino
