// Tests for the seeded fault-injection harness (src/common/fault.h).
//
// The harness underpins every fault-tolerance test in the serving suite, so
// its own guarantees get direct coverage here: zero effect (and zero
// counting) while disarmed, deterministic per-check decisions under every
// arm mode, strict spec parsing (a typo must not silently run fault-free),
// and ScopedFaultPlan's restore-on-destruction including nesting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/env.h"
#include "common/fault.h"
#include "serve/session.h"
#include "tuning/wisdom.h"

namespace lowino {
namespace {

/// Counts how many of the next `n` checks at `site` throw.
std::uint64_t count_injected(FaultSite site, std::uint64_t n) {
  std::uint64_t injected = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    try {
      maybe_inject_fault(site);
    } catch (const FaultInjectedError& e) {
      EXPECT_EQ(e.site(), site);
      ++injected;
    }
  }
  return injected;
}

TEST(Fault, SiteNamesRoundTrip) {
  for (std::size_t s = 0; s < kFaultSiteCount; ++s) {
    const auto site = static_cast<FaultSite>(s);
    const auto back = fault_site_from_name(fault_site_name(site));
    ASSERT_TRUE(back.has_value()) << fault_site_name(site);
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(fault_site_from_name("no-such-site").has_value());
  EXPECT_FALSE(fault_site_from_name("").has_value());
}

TEST(Fault, DisabledByDefaultAndCostFree) {
  ASSERT_FALSE(fault_injection_enabled());
  const std::uint64_t before = fault_checked_count(FaultSite::kSessionRun);
  EXPECT_EQ(count_injected(FaultSite::kSessionRun, 1000), 0u);
  // The disabled path must not even count: one relaxed load and out.
  EXPECT_EQ(fault_checked_count(FaultSite::kSessionRun), before);
}

TEST(Fault, EmptyPlanCountsChecksButNeverThrows) {
  ScopedFaultPlan plan;
  EXPECT_TRUE(fault_injection_enabled());
  EXPECT_EQ(count_injected(FaultSite::kEngineExecute, 17), 0u);
  EXPECT_EQ(fault_checked_count(FaultSite::kEngineExecute), 17u);
  EXPECT_EQ(fault_injected_count(FaultSite::kEngineExecute), 0u);
  EXPECT_EQ(fault_checked_count(FaultSite::kSessionRun), 0u)
      << "sites count independently";
}

TEST(Fault, FailNextThrowsExactlyNThenPasses) {
  ScopedFaultPlan plan;
  plan.fail_next(FaultSite::kPlanLoad, 3);
  EXPECT_EQ(count_injected(FaultSite::kPlanLoad, 10), 3u);
  EXPECT_EQ(fault_injected_count(FaultSite::kPlanLoad), 3u);
  EXPECT_EQ(count_injected(FaultSite::kPlanLoad, 10), 0u) << "budget spent";
  EXPECT_EQ(count_injected(FaultSite::kSessionRun, 5), 0u) << "other sites pass";
}

TEST(Fault, FailCallsHitsExactlyTheNamedIndices) {
  ScopedFaultPlan plan;
  plan.fail_calls(FaultSite::kEngineExecute, {0, 4, 5});
  std::vector<bool> threw;
  for (int i = 0; i < 8; ++i) {
    bool t = false;
    try {
      maybe_inject_fault(FaultSite::kEngineExecute);
    } catch (const FaultInjectedError&) {
      t = true;
    }
    threw.push_back(t);
  }
  EXPECT_EQ(threw, (std::vector<bool>{true, false, false, false, true, true, false,
                                      false}));
}

TEST(Fault, RateZeroAndOneAreExact) {
  {
    ScopedFaultPlan plan;
    plan.fail_rate(FaultSite::kSessionRun, 0.0, /*seed=*/1);
    EXPECT_EQ(count_injected(FaultSite::kSessionRun, 200), 0u);
  }
  {
    ScopedFaultPlan plan;
    plan.fail_rate(FaultSite::kSessionRun, 1.0, /*seed=*/1);
    EXPECT_EQ(count_injected(FaultSite::kSessionRun, 200), 200u);
  }
}

TEST(Fault, RateDecisionsAreSeedDeterministic) {
  auto sequence = [](std::uint64_t seed) {
    ScopedFaultPlan plan;
    plan.fail_rate(FaultSite::kEngineExecute, 0.3, seed);
    std::vector<bool> s;
    for (int i = 0; i < 64; ++i) {
      bool t = false;
      try {
        maybe_inject_fault(FaultSite::kEngineExecute);
      } catch (const FaultInjectedError&) {
        t = true;
      }
      s.push_back(t);
    }
    return s;
  };
  const auto a = sequence(42);
  EXPECT_EQ(a, sequence(42)) << "same seed, same decisions, every run";
  EXPECT_NE(a, sequence(43)) << "different seed, different pattern";
}

TEST(Fault, RateHitsRoughlyRateFractionOfChecks) {
  ScopedFaultPlan plan;
  plan.fail_rate(FaultSite::kArenaAlloc, 0.5, /*seed=*/7);
  const std::uint64_t hits = count_injected(FaultSite::kArenaAlloc, 2000);
  // Deterministic given the seed; generous bounds document intent, not luck.
  EXPECT_GT(hits, 800u);
  EXPECT_LT(hits, 1200u);
}

TEST(Fault, SpecParsingIsStrict) {
  EXPECT_TRUE(fault_spec_valid(""));
  EXPECT_TRUE(fault_spec_valid("engine-execute:0.01:42"));
  EXPECT_TRUE(fault_spec_valid("session-run:1:0,plan-load:0.5:9"));
  EXPECT_FALSE(fault_spec_valid("bogus-site:0.5:1"));
  EXPECT_FALSE(fault_spec_valid("engine-execute:1.5:1")) << "rate > 1";
  EXPECT_FALSE(fault_spec_valid("engine-execute:-0.1:1")) << "rate < 0";
  EXPECT_FALSE(fault_spec_valid("engine-execute:0.5")) << "missing seed";
  EXPECT_FALSE(fault_spec_valid("engine-execute:0.5:12junk"));
  EXPECT_FALSE(fault_spec_valid("engine-execute:abc:1"));
  EXPECT_FALSE(fault_spec_valid("engine-execute:0.5:1,")) << "empty trailing entry";
}

TEST(Fault, ArmSpecRejectsBadSpecKeepingPreviousPlan) {
  ASSERT_TRUE(fault_arm_spec("session-run:1:0"));
  EXPECT_TRUE(fault_injection_enabled());
  EXPECT_FALSE(fault_arm_spec("not a spec"));
  EXPECT_TRUE(fault_injection_enabled()) << "bad spec leaves the old plan armed";
  EXPECT_EQ(count_injected(FaultSite::kSessionRun, 3), 3u);
  fault_disarm();
  EXPECT_FALSE(fault_injection_enabled());
  EXPECT_EQ(count_injected(FaultSite::kSessionRun, 3), 0u);
}

TEST(Fault, ApplyEnvReadsRuntimeConfig) {
  {
    ScopedRuntimeOverride spec("LOWINO_FAULT", "plan-load:1:0");
    EXPECT_TRUE(fault_apply_env());
    EXPECT_EQ(count_injected(FaultSite::kPlanLoad, 2), 2u);
  }
  // Override gone: re-applying the (now empty) spec disarms.
  EXPECT_FALSE(fault_apply_env());
  EXPECT_EQ(count_injected(FaultSite::kPlanLoad, 2), 0u);
}

TEST(Fault, ScopedPlanRestoresOuterPlanOnDestruction) {
  ScopedFaultPlan outer;
  outer.fail_next(FaultSite::kWorkerStart, 1000);
  EXPECT_EQ(count_injected(FaultSite::kWorkerStart, 2), 2u);
  {
    ScopedFaultPlan inner;  // empty: nothing fails inside
    EXPECT_EQ(count_injected(FaultSite::kWorkerStart, 5), 0u);
    inner.fail_next(FaultSite::kSessionRun, 1);
    EXPECT_EQ(count_injected(FaultSite::kSessionRun, 5), 1u);
  }
  EXPECT_TRUE(fault_injection_enabled()) << "outer plan re-enabled";
  EXPECT_EQ(count_injected(FaultSite::kWorkerStart, 2), 2u)
      << "outer fail_next budget survives the inner scope";
  EXPECT_EQ(count_injected(FaultSite::kSessionRun, 5), 0u)
      << "inner arm did not leak into the outer plan";
}

TEST(Fault, ScopedPlanRestoresDisabledState) {
  ASSERT_FALSE(fault_injection_enabled());
  {
    ScopedFaultPlan plan;
    plan.fail_next(FaultSite::kSessionRun, 1);
    EXPECT_TRUE(fault_injection_enabled());
  }
  EXPECT_FALSE(fault_injection_enabled());
  EXPECT_EQ(count_injected(FaultSite::kSessionRun, 3), 0u);
}

TEST(Fault, RejectsOutOfRangeRate) {
  ScopedFaultPlan plan;
  EXPECT_THROW(plan.fail_rate(FaultSite::kSessionRun, 1.5, 0), std::invalid_argument);
  EXPECT_THROW(plan.fail_rate(FaultSite::kSessionRun, -0.5, 0), std::invalid_argument);
}

// --- Crash-safe persistence under the plan-load fault point -----------------
//
// Both stores save through one writer (common/text_file.h):
// write-temp-then-rename, with the fault point in the crash window between
// the two. A save that dies there must leave the previous file
// byte-identical and no temp residue behind.

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

TEST(FaultCrashSafety, WisdomSaveDyingMidSaveKeepsOldFile) {
  const std::string path = ::testing::TempDir() + "lowino_fault_wisdom.txt";
  Int8GemmBlocking one;
  one.n_blk = 48;
  const Int8GemmBlocking two;  // n_blk 96
  WisdomStore v1;
  v1.put("gen", one);
  ASSERT_TRUE(v1.save(path));

  WisdomStore v2;
  v2.put("gen", two);
  {
    ScopedFaultPlan plan;
    plan.fail_next(FaultSite::kPlanLoad, 1);
    EXPECT_THROW(v2.save(path), FaultInjectedError);
  }
  EXPECT_FALSE(file_exists(path + ".tmp")) << "temp residue after a crashed save";
  auto loaded = WisdomStore::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->get("gen").has_value());
  EXPECT_EQ(loaded->get("gen")->n_blk, one.n_blk)
      << "crashed save must not clobber the previous wisdom";

  ASSERT_TRUE(v2.save(path)) << "the store is reusable after a crashed save";
  loaded = WisdomStore::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->get("gen").has_value());
  EXPECT_EQ(loaded->get("gen")->n_blk, two.n_blk);
  std::remove(path.c_str());
}

TEST(FaultCrashSafety, SessionPlanSaveDyingMidSaveKeepsOldFile) {
  SessionPlan p;
  p.batch = 2;
  p.arena_bytes = 4096;
  p.naive_bytes = 8192;
  const std::string path = ::testing::TempDir() + "lowino_fault_plan.txt";
  ASSERT_TRUE(p.save(path));
  const std::string v1 = p.serialize();

  p.arena_bytes = 9999;
  {
    ScopedFaultPlan plan;
    plan.fail_next(FaultSite::kPlanLoad, 1);
    EXPECT_THROW(p.save(path), FaultInjectedError);
  }
  EXPECT_FALSE(file_exists(path + ".tmp"));
  auto loaded = SessionPlan::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize(), v1) << "previous plan bytes must survive";

  ASSERT_TRUE(p.save(path));
  loaded = SessionPlan::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->arena_bytes, 9999u);
  std::remove(path.c_str());
}

TEST(FaultCrashSafety, LoadsAreInjectableToo) {
  const std::string path = ::testing::TempDir() + "lowino_fault_load.txt";
  WisdomStore store;
  ASSERT_TRUE(store.save(path));
  ScopedFaultPlan plan;
  plan.fail_next(FaultSite::kPlanLoad, 2);
  EXPECT_THROW(WisdomStore::load(path), FaultInjectedError);
  EXPECT_THROW(SessionPlan::load(path), FaultInjectedError);
  EXPECT_TRUE(WisdomStore::load(path).has_value()) << "budget spent; loads recover";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lowino
