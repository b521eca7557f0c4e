// Tests for the auto-tuner search space and wisdom store.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "tuning/search_space.h"
#include "tuning/tuner.h"
#include "tuning/wisdom.h"

namespace lowino {
namespace {

TEST(SearchSpace, AllCandidatesValid) {
  const auto candidates = enumerate_blockings(512, 512);
  EXPECT_GT(candidates.size(), 20u);
  for (const auto& b : candidates) {
    EXPECT_TRUE(b.valid()) << b.to_string();
    EXPECT_LE(b.c_blk, 512u);
    EXPECT_LE(b.k_blk, 512u);
    EXPECT_LT(b.row_blk * b.col_blk + b.col_blk, 31) << "paper register constraint";
    EXPECT_LE(b.c_blk * b.k_blk, 512u * 512u) << "paper cache constraint";
  }
}

TEST(SearchSpace, ClampsToSmallLayers) {
  const auto candidates = enumerate_blockings(64, 64);
  EXPECT_FALSE(candidates.empty());
  for (const auto& b : candidates) {
    EXPECT_LE(b.c_blk, 64u);
    EXPECT_LE(b.k_blk, 64u);
  }
}

TEST(SearchSpace, NoDuplicates) {
  const auto candidates = enumerate_blockings(256, 256);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      const auto& a = candidates[i];
      const auto& b = candidates[j];
      EXPECT_FALSE(a.n_blk == b.n_blk && a.c_blk == b.c_blk && a.k_blk == b.k_blk &&
                   a.row_blk == b.row_blk && a.col_blk == b.col_blk);
    }
  }
}

TEST(Wisdom, PutGetRoundTrip) {
  WisdomStore store;
  Int8GemmBlocking b;
  b.n_blk = 48;
  b.k_blk = 128;
  b.nt_store = false;
  store.put("layer-x m4", b);
  const auto got = store.get("layer-x m4");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->n_blk, 48u);
  EXPECT_EQ(got->k_blk, 128u);
  EXPECT_FALSE(got->nt_store);
  EXPECT_FALSE(store.get("missing").has_value());
}

TEST(Wisdom, SerializeDeserialize) {
  WisdomStore store;
  Int8GemmBlocking a;
  a.n_blk = 96;
  Int8GemmBlocking b;
  b.n_blk = 168;
  b.row_blk = 12;
  b.col_blk = 2;
  b.k_blk = 32;
  store.put("k1", a);
  store.put("k2", b);
  const WisdomStore parsed = WisdomStore::deserialize(store.serialize());
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.get("k2")->row_blk, 12);
  EXPECT_EQ(parsed.get("k2")->k_blk, 32u);
}

TEST(Wisdom, MalformedLinesSkipped) {
  const WisdomStore parsed = WisdomStore::deserialize(
      "# comment\nnot a valid line\nk = 96 512 64 6 4 1 1\nk2 = broken\n");
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(parsed.get("k").has_value());

  // A token after the seven v1 fields rejects the line: the execution-mode
  // word and five-timing tail of the retired v2/v3 layouts, a stray value,
  // and the retired "str" engine-hint entries alike. The v1 line among them
  // loads and round-trips unchanged.
  const WisdomStore mixed = WisdomStore::deserialize(
      "# lowino wisdom v3: key = n_blk c_blk k_blk row_blk col_blk nt prefetch mode"
      " staged_s fused_s it_s gemm_s ot_s\n"
      "v1 = 48 256 64 4 2 0 1\n"
      "v2 = 48 256 64 4 2 0 1 fused\n"
      "v3 = 48 256 64 4 2 0 1 staged 0.0035 0.0021 8e-4 1e-3 3e-4\n"
      "stray = 48 256 64 4 2 0 1 0.001\n"
      "plan-engine B4 C64 K64 H16 W16 r3 = str lowino_f4\n");
  ASSERT_EQ(mixed.size(), 1u);
  ASSERT_TRUE(mixed.get("v1").has_value());
  EXPECT_EQ(mixed.get("v1")->to_string(), "Nblk=48 Cblk=256 Kblk=64 row=4 col=2 pf");
  const WisdomStore again = WisdomStore::deserialize(mixed.serialize());
  EXPECT_EQ(again.serialize(), mixed.serialize());
}

TEST(Wisdom, SerializeWritesSevenFieldLines) {
  // v1 lines: readable by every parser version.
  WisdomStore store;
  store.put("layer m4", Int8GemmBlocking{});
  std::istringstream lines(store.serialize());
  std::string line;
  std::size_t blocking_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream vals(line.substr(line.find(" = ") + 3));
    std::string token;
    std::size_t fields = 0;
    while (vals >> token) ++fields;
    EXPECT_EQ(fields, 7u) << line;
    ++blocking_lines;
  }
  EXPECT_EQ(blocking_lines, 1u);
}

// --- Hardened parsing: corrupt and hostile input ----------------------------
TEST(Wisdom, RejectsNonPositiveAndAbsurdValues) {
  // Zero, negative (would wrap through unsigned extraction) and huge values
  // must each reject the whole line, not load a repaired entry.
  EXPECT_EQ(WisdomStore::deserialize("k = 0 512 64 6 4 1 1\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = -96 512 64 6 4 1 1\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = 96 -512 64 6 4 1 1\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = 96 512 64 -6 4 1 1\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = 96 512 64 6 4 1 1073741824\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = 18446744073709551615 512 64 6 4 1 1\n").size(),
            0u);
  EXPECT_EQ(WisdomStore::deserialize("k = 2097152 512 64 6 4 1 1\n").size(), 0u);
  // Boolean flags must be 0/1.
  EXPECT_EQ(WisdomStore::deserialize("k = 96 512 64 6 4 7 1\n").size(), 0u);
}

TEST(Wisdom, TruncatedLinesRejected) {
  EXPECT_EQ(WisdomStore::deserialize("k = 96 512 64 6\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = 96 512 64 6 4 1\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = \n").size(), 0u);
}

TEST(Wisdom, FuzzedGarbageNeverYieldsInvalidEntries) {
  // Feed the parser random garbage (printable noise, truncations, huge
  // numerals, binary bytes): it must never crash and every entry that does
  // load must satisfy the blocking invariants.
  Rng rng(0x715d0f00dULL);
  const std::string alphabet =
      "0123456789-+= abcdefghijklmnopqrstuvwxyz#\t\x01\xff.eE";
  for (int iter = 0; iter < 500; ++iter) {
    std::string text;
    const std::size_t lines = rng.next_below(6);
    for (std::size_t l = 0; l < lines; ++l) {
      const std::size_t len = rng.next_below(80);
      for (std::size_t i = 0; i < len; ++i) {
        text += alphabet[rng.next_below(alphabet.size())];
      }
      text += '\n';
    }
    const WisdomStore parsed = WisdomStore::deserialize(text);
    // Whatever survived must be structurally valid.
    const std::string out = parsed.serialize();
    const WisdomStore reparsed = WisdomStore::deserialize(out);
    EXPECT_EQ(reparsed.size(), parsed.size()) << "round-trip must be stable for: " << text;
  }
}

TEST(Wisdom, SerializedFormRoundTripsThroughHardenedParser) {
  WisdomStore store;
  Int8GemmBlocking b;
  b.n_blk = 48;
  b.c_blk = 64;
  b.k_blk = 64;
  b.row_blk = 4;
  b.col_blk = 2;
  b.nt_store = false;
  store.put("small layer", b);
  store.put("big layer", Int8GemmBlocking{});
  const WisdomStore parsed = WisdomStore::deserialize(store.serialize());
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.get("small layer")->to_string(), b.to_string());
  EXPECT_EQ(parsed.get("big layer")->to_string(), Int8GemmBlocking{}.to_string());
}

TEST(Wisdom, FileRoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() / "lowino_wisdom_test.txt";
  WisdomStore store;
  store.put("layer", Int8GemmBlocking{});
  ASSERT_TRUE(store.save(path));
  const auto loaded = WisdomStore::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
  std::remove(path.c_str());
  EXPECT_FALSE(WisdomStore::load(path).has_value());
}

TEST(Tuner, FindsConfigurationNotWorseThanDefault) {
  ConvDesc d;
  d.batch = 1;
  d.in_channels = d.out_channels = 128;
  d.height = d.width = 28;
  d.kernel = 3;
  d.pad = 1;
  TuneOptions opts;
  opts.seconds_per_candidate = 0.005;
  opts.max_candidates = 6;
  const TuneResult r = tune_layer(d, 4, nullptr, opts);
  EXPECT_GT(r.evaluated, 0u);
  EXPECT_TRUE(r.best.valid());
  EXPECT_LE(r.best_seconds, r.default_seconds * 1.05);
}

TEST(Tuner, WisdomKeyDistinguishesLayersAndTileSizes) {
  ConvDesc a;
  a.in_channels = 64;
  ConvDesc b;
  b.in_channels = 128;
  EXPECT_NE(wisdom_key(a, 2), wisdom_key(b, 2));
  EXPECT_NE(wisdom_key(a, 2), wisdom_key(a, 4));
}


}  // namespace
}  // namespace lowino
