// Randomized differential conformance driver.
//
// Runs LOWINO_FUZZ_CASES randomized convolution problems (default 40; the
// tier-2 CTest registration runs 500), each sweeping every engine in the
// repository against the double-precision oracle within the derived accuracy
// envelopes (src/testing). Deterministic: case i of a run is fully determined
// by LOWINO_TEST_SEED and i, so any failure reproduces from the single
// printed line, e.g.
//
//   LOWINO_TEST_SEED=20260806 LOWINO_FUZZ_INDEX=17 LOWINO_FUZZ_CASES=1 ./tests/fuzz_conv
//
// A failing case is also shrunk to a minimal still-failing variant before the
// assertion fires (smaller shape, fewer features — much easier to debug).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "common/env.h"
#include "testing/fuzz.h"

namespace lowino {
namespace testing {
namespace {

std::uint64_t case_seed(std::uint64_t base_seed, std::size_t index) {
  // splitmix64 step decorrelates consecutive indices.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(FuzzConv, RandomizedDifferentialSweep) {
  const auto base_seed = static_cast<std::uint64_t>(env_long("LOWINO_TEST_SEED", 20260806));
  const auto cases = static_cast<std::size_t>(env_long("LOWINO_FUZZ_CASES", 40));
  const long only_index = env_long("LOWINO_FUZZ_INDEX", -1);

  std::size_t total_engines = 0;
  for (std::size_t i = 0; i < cases; ++i) {
    const std::size_t index =
        only_index >= 0 ? static_cast<std::size_t>(only_index) : i;
    const FuzzCase fc = generate_case(case_seed(base_seed, index));
    const CaseResult r = run_case(fc);
    total_engines += r.engines_checked;
    if (!r.ok) {
      const FuzzCase minimal = shrink_case(fc);
      const CaseResult mr = run_case(minimal);
      std::fprintf(stderr, "REPRO: %s\n", repro_line(base_seed, index).c_str());
      FAIL() << "case " << index << " [" << describe(fc) << "] failed: " << r.failure
             << "\n  repro: " << repro_line(base_seed, index)
             << "\n  shrunk to [" << describe(minimal)
             << "]: " << (mr.ok ? "(no longer fails)" : mr.failure);
    }
    if (only_index >= 0) break;
  }
  // Every case checks the full engine sweep (>= 9 engine/mode combinations
  // for r = 3 shapes) — guard against the sweep silently shrinking. The
  // total is printed so a change to the sweep's size shows in the log.
  std::printf("fuzz_conv: seed %llu, engines_checked %zu\n",
              static_cast<unsigned long long>(base_seed), total_engines);
  EXPECT_GE(total_engines, (only_index >= 0 ? std::size_t{1} : cases) * 8);
}

}  // namespace
}  // namespace testing
}  // namespace lowino
