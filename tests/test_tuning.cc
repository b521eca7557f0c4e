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
}

TEST(Wisdom, V1V2AndV3LinesLoadTheSameBlocking) {
  // Older writers appended an execution-mode token (v2) and five timing
  // values (v3). Both still parse and are dropped; the blocking survives.
  const std::string v1 = "k = 48 256 64 4 2 0 1";
  const std::string v2 = v1 + " fused";
  const std::string v3 = v1 + " staged 0.0035 0.0021 8e-4 1e-3 3e-4";
  for (const std::string& line : {v1, v2, v3}) {
    const auto got = WisdomStore::deserialize(line + "\n").get("k");
    ASSERT_TRUE(got.has_value()) << line;
    EXPECT_EQ(got->to_string(), "Nblk=48 Cblk=256 Kblk=64 row=4 col=2 pf") << line;
  }
}

TEST(Wisdom, SerializeWritesSevenFieldLines) {
  // v1 lines: readable by every parser version, including ones that predate
  // the mode token.
  WisdomStore store;
  store.put("layer m4", Int8GemmBlocking{});
  store.put_string("plan-engine x", "lowino_f4");
  std::istringstream lines(store.serialize());
  std::string line;
  std::size_t blocking_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line.find(" = str ") != std::string::npos) continue;
    std::istringstream vals(line.substr(line.find(" = ") + 3));
    std::string token;
    std::size_t fields = 0;
    while (vals >> token) ++fields;
    EXPECT_EQ(fields, 7u) << line;
    ++blocking_lines;
  }
  EXPECT_EQ(blocking_lines, 1u);
}

TEST(Wisdom, LegacyV3FileLoadsAndReserializesAsV1) {
  // A file in the v3 layout older writers produced: header, blocking lines
  // with mode token and timing tail, string entries. Every blocking and
  // string survives the load, and the re-serialized v1 form loads the same.
  const std::string v3 =
      "# lowino wisdom v3: key = n_blk c_blk k_blk row_blk col_blk nt prefetch mode"
      " staged_s fused_s it_s gemm_s ot_s\n"
      "B1 C64 K64 H16 W16 r3 m4 = 48 256 64 4 2 0 1 staged 0.0035 0.0021 0.0008 0.001 "
      "0.0003\n"
      "B16 C64 K64 H64 W64 r3 m4 = 96 512 64 6 4 1 1 fused 0.12 0.09 0 0 0\n"
      "B1 C32 K32 H8 W8 r3 m2 = 24 64 32 2 2 0 0 auto 0 0 0 0 0\n"
      "plan-engine B4 C64 K64 H16 W16 r3 = str lowino_f4\n";
  const WisdomStore loaded = WisdomStore::deserialize(v3);
  ASSERT_EQ(loaded.size(), 3u);
  ASSERT_EQ(loaded.string_size(), 1u);
  const WisdomStore again = WisdomStore::deserialize(loaded.serialize());
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again.get_string("plan-engine B4 C64 K64 H16 W16 r3"), "lowino_f4");
  const std::pair<std::string, std::string> expected[] = {
      {"B1 C64 K64 H16 W16 r3 m4", "Nblk=48 Cblk=256 Kblk=64 row=4 col=2 pf"},
      {"B16 C64 K64 H64 W64 r3 m4", "Nblk=96 Cblk=512 Kblk=64 row=6 col=4 nt pf"},
      {"B1 C32 K32 H8 W8 r3 m2", "Nblk=24 Cblk=64 Kblk=32 row=2 col=2"},
  };
  for (const auto& [key, blocking] : expected) {
    ASSERT_TRUE(loaded.get(key).has_value()) << key;
    EXPECT_EQ(loaded.get(key)->to_string(), blocking) << key;
    ASSERT_TRUE(again.get(key).has_value()) << key;
    EXPECT_EQ(again.get(key)->to_string(), blocking) << key;
  }
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

TEST(Wisdom, RejectsUnknownModeToken) {
  // A trailing token that is present but not a known mode means the file is
  // corrupt (or from a newer format): reject rather than default to kAuto.
  EXPECT_EQ(WisdomStore::deserialize("k = 96 512 64 6 4 1 1 sideways\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize("k = 96 512 64 6 4 1 1 stagedX\n").size(), 0u);
  // Known tokens and the v1 7-field form still load.
  EXPECT_TRUE(WisdomStore::deserialize("k = 96 512 64 6 4 1 1 fused\n").get("k").has_value());
  EXPECT_TRUE(WisdomStore::deserialize("k = 96 512 64 6 4 1 1\n").get("k").has_value());
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

// --- Legacy v3 timing tail ---------------------------------------------------
TEST(Wisdom, PartialTimingTailRejected) {
  // The tail is all-or-none: 1..4 doubles mean a truncated line, 6 mean a
  // corrupt or newer format — both reject the whole line.
  const char* base = "k = 96 512 64 6 4 1 1 fused";
  EXPECT_EQ(WisdomStore::deserialize(std::string(base) + " 0.001\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize(std::string(base) + " 0.001 0.002\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize(std::string(base) + " 0.001 0.002 0.003\n").size(),
            0u);
  EXPECT_EQ(
      WisdomStore::deserialize(std::string(base) + " 0.001 0.002 0.003 0.004\n").size(),
      0u);
  EXPECT_EQ(WisdomStore::deserialize(std::string(base) + " 1 2 3 4 5 6\n").size(), 0u);
  // The full five-double tail loads.
  EXPECT_EQ(WisdomStore::deserialize(std::string(base) + " 1 2 3 4 5\n").size(), 1u);
}

TEST(Wisdom, GarbledTimingTailRejected) {
  const char* base = "k = 96 512 64 6 4 1 1 staged";
  // Negative, non-finite, and partially numeric tokens each reject the line.
  EXPECT_EQ(
      WisdomStore::deserialize(std::string(base) + " 0.001 -0.002 0.1 0.1 0.1\n").size(),
      0u);
  EXPECT_EQ(
      WisdomStore::deserialize(std::string(base) + " 0.001 nan 0.1 0.1 0.1\n").size(), 0u);
  EXPECT_EQ(
      WisdomStore::deserialize(std::string(base) + " 0.001 inf 0.1 0.1 0.1\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize(std::string(base) + " 1 2 3 4 5x\n").size(), 0u);
  EXPECT_EQ(WisdomStore::deserialize(std::string(base) + " 1 2 3 4 banana\n").size(), 0u);
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


// --- Wisdom string entries (serve-plan engine hints) -------------------------

TEST(Wisdom, StringEntriesRoundTripThroughText) {
  WisdomStore store;
  EXPECT_FALSE(store.get_string("plan-engine x").has_value());
  EXPECT_TRUE(store.put_string("plan-engine B4 C64 K64 H16 W16 r3", "lowino_f4"));
  EXPECT_TRUE(store.put_string("plan-engine B4 C64 K128 H8 W8 r3", "int8_direct"));
  EXPECT_EQ(store.string_size(), 2u);
  EXPECT_EQ(store.get_string("plan-engine B4 C64 K64 H16 W16 r3"), "lowino_f4");

  // Overwrite is last-writer-wins, like numeric entries.
  EXPECT_TRUE(store.put_string("plan-engine B4 C64 K64 H16 W16 r3", "lowino_f2"));
  EXPECT_EQ(store.string_size(), 2u);
  EXPECT_EQ(store.get_string("plan-engine B4 C64 K64 H16 W16 r3"), "lowino_f2");

  const std::string text = store.serialize();
  const WisdomStore loaded = WisdomStore::deserialize(text);
  EXPECT_EQ(loaded.string_size(), 2u);
  EXPECT_EQ(loaded.get_string("plan-engine B4 C64 K64 H16 W16 r3"), "lowino_f2");
  EXPECT_EQ(loaded.get_string("plan-engine B4 C64 K128 H8 W8 r3"), "int8_direct");
}

TEST(Wisdom, StringAndBlockingEntriesCoexistInOneFile) {
  WisdomStore store;
  store.put("conv3 f4", Int8GemmBlocking{});
  ASSERT_TRUE(store.put_string("plan-engine conv3", "lowino_f6"));
  const WisdomStore loaded = WisdomStore::deserialize(store.serialize());
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.string_size(), 1u);
  EXPECT_TRUE(loaded.get("conv3 f4").has_value());
  EXPECT_EQ(loaded.get_string("plan-engine conv3"), "lowino_f6");
}

TEST(Wisdom, StringEntriesRejectNewlines) {
  WisdomStore store;
  EXPECT_FALSE(store.put_string("bad\nkey", "value"));
  EXPECT_FALSE(store.put_string("key", "bad\nvalue"));
  EXPECT_EQ(store.string_size(), 0u);
}

}  // namespace
}  // namespace lowino
