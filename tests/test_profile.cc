// Tests for the per-stage execution profiler (src/profile).
//
// Covers the recording semantics (cross-thread attribution, same-stage
// nesting exclusion), the cost contract (no allocation when disabled, no
// steady-state allocation when enabled), both sinks (summary text and the
// chrome://tracing JSON — round-tripped through a real JSON parser below),
// and the headline accuracy claim: on a single-threaded staged execution the
// profiler's stage totals must account for the externally timed wall clock
// within 10%.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/timer.h"
#include "common/rng.h"
#include "lowino/convolution.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "serve/session.h"

namespace lowino {
namespace {

/// Disables profiling and clears recorded state on entry and exit, restoring
/// the prior enable flag — tests must not leak spans into each other or into
/// a user-requested LOWINO_PROFILE exit dump.
class ProfilerGuard {
 public:
  ProfilerGuard() : was_enabled_(profiler_enabled()) {
    profiler_set_enabled(false);
    profiler_reset();
  }
  ~ProfilerGuard() {
    profiler_set_enabled(was_enabled_);
    profiler_reset();
  }

 private:
  bool was_enabled_;
};

double stage_seconds(ProfileStage s) {
  return profiler_stage_totals()[static_cast<std::size_t>(s)].seconds;
}

std::uint64_t stage_spans(ProfileStage s) {
  return profiler_stage_totals()[static_cast<std::size_t>(s)].spans;
}

/// Busy-waits so a span has a measurable, strictly positive duration.
void spin_for(double seconds) {
  Timer t;
  while (t.seconds() < seconds) {
  }
}

ConvDesc make_desc(std::size_t batch, std::size_t c, std::size_t k, std::size_t hw) {
  ConvDesc d;
  d.batch = batch;
  d.in_channels = c;
  d.out_channels = k;
  d.height = d.width = hw;
  d.kernel = 3;
  d.pad = 1;
  return d;
}

// --- Recording semantics -----------------------------------------------------

TEST(ProfileSpans, NestAndAttributeAcrossThreads) {
  ProfilerGuard guard;
  profiler_set_enabled(true);
  constexpr std::size_t kThreads = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      char name[32];
      std::snprintf(name, sizeof(name), "span-test-%zu", i);
      profiler_set_thread_name(name);
      ProfileSpan outer(ProfileStage::kTunerTrial);
      {
        ProfileSpan inner(ProfileStage::kGemm);  // different stage: nests freely
        spin_for(0.002);
      }
      {
        // Same-stage nesting: lands in the trace, excluded from the totals —
        // instrumenting a caller and its callee must not double-count.
        ProfileSpan again(ProfileStage::kTunerTrial);
        spin_for(0.001);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(stage_spans(ProfileStage::kTunerTrial), kThreads);
  EXPECT_EQ(stage_spans(ProfileStage::kGemm), kThreads);
  EXPECT_GT(stage_seconds(ProfileStage::kGemm), 0.0);
  // The outer span's inclusive time contains the inner GEMM span.
  EXPECT_GE(stage_seconds(ProfileStage::kTunerTrial), stage_seconds(ProfileStage::kGemm));
  EXPECT_GE(profiler_thread_count(), kThreads);
  EXPECT_EQ(profiler_dropped_events(), 0u);
}

TEST(ProfileReset, ClearsTotalsAndDropCounts) {
  ProfilerGuard guard;
  profiler_set_enabled(true);
  { ProfileSpan s(ProfileStage::kGemm); }
  ASSERT_GT(stage_spans(ProfileStage::kGemm), 0u);
  profiler_reset();
  const auto totals = profiler_stage_totals();
  for (std::size_t i = 0; i < kProfileStageCount; ++i) {
    EXPECT_EQ(totals[i].seconds, 0.0) << profile_stage_name(static_cast<ProfileStage>(i));
    EXPECT_EQ(totals[i].spans, 0u) << profile_stage_name(static_cast<ProfileStage>(i));
  }
  EXPECT_EQ(profiler_dropped_events(), 0u);
}

// --- Cost contract -----------------------------------------------------------

TEST(ProfileCost, DisabledSpansDoNotAllocateOrRegister) {
  ProfilerGuard guard;  // leaves profiling disabled
  const std::uint64_t allocs = aligned_buffer_alloc_count();
  const std::size_t logs = profiler_thread_count();
  for (int i = 0; i < 1000; ++i) {
    ProfileSpan a(ProfileStage::kGemm);
    ProfileSpan b(ProfileStage::kInputTransform);
  }
  EXPECT_EQ(aligned_buffer_alloc_count(), allocs);
  EXPECT_EQ(profiler_thread_count(), logs);
}

TEST(ProfileCost, EnabledSteadyStateDoesNotAllocate) {
  ProfilerGuard guard;
  profiler_set_enabled(true);
  { ProfileSpan warm(ProfileStage::kGemm); }  // first span allocates this thread's ring
  const std::uint64_t allocs = aligned_buffer_alloc_count();
  for (int i = 0; i < 2000; ++i) {
    ProfileSpan s(ProfileStage::kGemm);
  }
  EXPECT_EQ(aligned_buffer_alloc_count(), allocs);
}

// --- Minimal JSON parser -----------------------------------------------------
// Just enough of RFC 8259 to round-trip the trace event format: objects,
// arrays, strings with escapes, numbers, true/false/null. A malformed byte in
// the emitted trace should fail *here*, not in some external viewer.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}
  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JsonValue::kString; return string(out.str);
      case 't': out.kind = JsonValue::kBool; out.boolean = true; return literal("true");
      case 'f': out.kind = JsonValue::kBool; out.boolean = false; return literal("false");
      case 'n': out.kind = JsonValue::kNull; return literal("null");
      default: return number(out);
    }
  }
  bool string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char esc = s_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) return false;
            }
            pos_ += 4;
            out += '?';  // code point value irrelevant for these tests
            break;
          }
          default: return false;
        }
      } else if (static_cast<unsigned char>(s_[pos_]) < 0x20) {
        return false;  // control characters must be escaped
      } else {
        out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(JsonValue& out) {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out.number = std::strtod(begin, &end);
    if (end == begin) return false;
    out.kind = JsonValue::kNumber;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }
  bool array(JsonValue& out) {
    out.kind = JsonValue::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      JsonValue elem;
      skip_ws();
      if (!value(elem)) return false;
      out.array.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool object(JsonValue& out) {
    out.kind = JsonValue::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue val;
      if (!value(val)) return false;
      out.object.emplace(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- Sinks -------------------------------------------------------------------

TEST(ProfileTrace, ChromeTraceRoundTripsThroughAParser) {
  ProfilerGuard guard;
  profiler_set_enabled(true);
  profiler_set_thread_name("trace-main");
  {
    ProfileSpan a(ProfileStage::kInputTransform);
    ProfileSpan b(ProfileStage::kGemm);
    spin_for(0.001);
  }
  {
    ProfileSpan c(ProfileStage::kOutputTransform);
    spin_for(0.0005);
  }

  const std::string path = ::testing::TempDir() + "lowino_trace_roundtrip.json";
  ASSERT_TRUE(profiler_write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();

  JsonValue root;
  ASSERT_TRUE(JsonParser(buf.str()).parse(root)) << buf.str();
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const auto events_it = root.object.find("traceEvents");
  ASSERT_NE(events_it, root.object.end());
  ASSERT_EQ(events_it->second.kind, JsonValue::kArray);

  std::size_t x_events = 0;
  bool saw_thread_name = false;
  bool saw_gemm = false;
  for (const JsonValue& ev : events_it->second.array) {
    ASSERT_EQ(ev.kind, JsonValue::kObject);
    const auto ph = ev.object.find("ph");
    ASSERT_NE(ph, ev.object.end());
    if (ph->second.str == "X") {
      ++x_events;
      const auto name = ev.object.find("name");
      const auto ts = ev.object.find("ts");
      const auto dur = ev.object.find("dur");
      ASSERT_NE(name, ev.object.end());
      ASSERT_NE(ts, ev.object.end());
      ASSERT_NE(dur, ev.object.end());
      EXPECT_GE(ts->second.number, 0.0);
      EXPECT_GE(dur->second.number, 0.0);
      if (name->second.str == profile_stage_name(ProfileStage::kGemm)) saw_gemm = true;
    } else if (ph->second.str == "M") {
      const auto name = ev.object.find("name");
      if (name != ev.object.end() && name->second.str == "thread_name") {
        const auto args = ev.object.find("args");
        if (args != ev.object.end() && args->second.kind == JsonValue::kObject) {
          const auto n = args->second.object.find("name");
          if (n != args->second.object.end() && n->second.str == "trace-main") {
            saw_thread_name = true;
          }
        }
      }
    }
  }
  EXPECT_EQ(x_events, 3u);  // the three spans above (all different stages)
  EXPECT_TRUE(saw_gemm);
  EXPECT_TRUE(saw_thread_name);
  std::remove(path.c_str());
}

TEST(ProfileSummary, ListsStagesAndThreadBreakdown) {
  ProfilerGuard guard;
  profiler_set_enabled(true);
  profiler_set_thread_name("summary-main");
  {
    ProfileSpan s(ProfileStage::kCalibration);
    spin_for(0.001);
  }
  const std::string text = profiler_summary();
  EXPECT_NE(text.find(profile_stage_name(ProfileStage::kCalibration)), std::string::npos)
      << text;
  EXPECT_NE(text.find("summary-main"), std::string::npos) << text;
}

// --- End-to-end accuracy on real executions ----------------------------------

// The ISSUE acceptance criterion: single-threaded staged execution, the sum
// of the three pipeline stage totals must agree with an external wall-clock
// measurement of the same executes within 10% (and never exceed it by more
// than measurement noise — the spans live strictly inside the executes).
TEST(ProfileAccuracy, StagedStageTotalsMatchExternalTiming) {
  ProfilerGuard guard;
  const ConvDesc d = make_desc(1, 64, 64, 32);
  LoWinoConfig cfg;
  cfg.m = 4;
  cfg.execution_mode = ExecutionMode::kStaged;
  LoWinoConvolution conv(d, cfg);
  conv.set_uniform_input_threshold(2.0f);
  std::vector<float> weights(d.out_channels * d.in_channels * d.kernel * d.kernel, 0.01f);
  std::vector<float> bias;
  conv.set_filters(weights, bias);
  std::vector<float> in(conv.input_layout().size(), 0.5f);
  std::vector<float> out(conv.output_layout().size());

  // pool = nullptr: the calling thread does all the work, so summed per-thread
  // busy time is directly comparable to wall time.
  conv.execute_blocked(in, out, nullptr);  // warm-up (workspace, packing)
  profiler_set_enabled(true);
  profiler_reset();
  Timer wall;
  constexpr int kReps = 5;
  for (int i = 0; i < kReps; ++i) conv.execute_blocked(in, out, nullptr);
  const double external = wall.seconds();

  const double internal = stage_seconds(ProfileStage::kInputTransform) +
                          stage_seconds(ProfileStage::kGemm) +
                          stage_seconds(ProfileStage::kOutputTransform);
  EXPECT_GT(internal, 0.0);
  EXPECT_LE(internal, external * 1.02);
  EXPECT_GE(internal, external * 0.90)
      << "stages sum to " << internal << "s of " << external << "s wall";
}

TEST(ProfileAccuracy, FusedModeYieldsPerStageSplit) {
  ProfilerGuard guard;
  // 56x56 at m=4 gives 196 tiles — several n-blocks, so the fused driver
  // records more than one per-stage span (one per n-block per worker).
  const ConvDesc d = make_desc(1, 64, 64, 56);
  LoWinoConfig cfg;
  cfg.m = 4;
  cfg.execution_mode = ExecutionMode::kFused;
  LoWinoConvolution conv(d, cfg);
  conv.set_uniform_input_threshold(2.0f);
  std::vector<float> weights(d.out_channels * d.in_channels * d.kernel * d.kernel, 0.01f);
  std::vector<float> bias;
  conv.set_filters(weights, bias);
  std::vector<float> in(conv.input_layout().size(), 0.5f);
  std::vector<float> out(conv.output_layout().size());

  ThreadPool pool(4);
  conv.execute_blocked(in, out, &pool);  // warm-up
  profiler_set_enabled(true);
  profiler_reset();
  conv.execute_blocked(in, out, &pool);

  // The fused path records per-n-block spans on every worker, so each stage
  // shows up with real time and more than one span — the breakdown the old
  // Timer-based instrumentation could not produce without de-fusing.
  for (const ProfileStage s : {ProfileStage::kInputTransform, ProfileStage::kGemm,
                               ProfileStage::kOutputTransform}) {
    EXPECT_GT(stage_seconds(s), 0.0) << profile_stage_name(s);
    EXPECT_GT(stage_spans(s), 1u) << profile_stage_name(s);
  }
}

TEST(ProfileAccuracy, LoWinoCalibrationRecordsOneSweepPerTap) {
  // calibrate() records the Winograd-domain statistics collection as one
  // span; finalize_calibration() records every KL threshold sweep, one per
  // tap: 36 for F(4x4).
  ProfilerGuard guard;
  const ConvDesc d = make_desc(1, 64, 64, 16);
  LoWinoConfig cfg;
  cfg.m = 4;
  LoWinoConvolution conv(d, cfg);
  std::vector<float> in(d.batch * d.in_channels * d.height * d.width);
  Rng rng(5);
  for (auto& v : in) v = rng.uniform(0.0f, 1.0f);
  profiler_set_enabled(true);
  conv.calibrate(in);
  EXPECT_EQ(stage_spans(ProfileStage::kCalibration), 1u);
  conv.finalize_calibration();
  profiler_set_enabled(false);
  EXPECT_EQ(stage_spans(ProfileStage::kCalibration), 1u + 36u);
  EXPECT_GT(stage_seconds(ProfileStage::kCalibration), 0.0);
}

TEST(ProfileAccuracy, DirectFamilyMobileNetRecordsEveryStage) {
  // int8_dw and int8_direct serving MiniMobileNet: both kernels run their
  // reduction and epilogue in one register tile and record kGemm, and
  // int8_dw's haloed-plane build the input transform — the served time is
  // no longer all serve-op self time, and no direct engine records an output
  // transform. The stem writes its reader's u8 bytes and int8_direct
  // multiplies the pointwise convs' u8 inputs in place, so the only
  // input-transform spans are the plane builds, one per (image, 64-channel
  // block) of each depthwise conv.
  ProfilerGuard guard;
  ThreadPool pool(2);
  Tensor<float> calib({2, 1, 16, 16}), input({2, 1, 16, 16});
  Rng rng(3);
  for (std::size_t i = 0; i < calib.size(); ++i) calib.data()[i] = rng.uniform(-1.0f, 1.0f);
  for (std::size_t i = 0; i < input.size(); ++i) input.data()[i] = rng.uniform(-1.0f, 1.0f);
  SequentialModel model = make_minimobilenet();
  PlanOptions options;
  options.pool = &pool;
  options.candidates = {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct};
  options.seconds_per_candidate = 0.002;
  InferenceSession session = InferenceSession::compile(model, calib, options);
  Tensor<float> out;
  session.run(input, out);  // warm-up
  profiler_reset();
  profiler_set_enabled(true);
  session.run(input, out);
  profiler_set_enabled(false);
  for (const ProfileStage s : {ProfileStage::kInputTransform, ProfileStage::kGemm}) {
    EXPECT_GT(stage_seconds(s), 0.0) << profile_stage_name(s);
    EXPECT_GT(stage_spans(s), 0u) << profile_stage_name(s);
  }
  // 2 images x one block in each of the two depthwise convs (32 and 64 ch).
  EXPECT_EQ(stage_spans(ProfileStage::kInputTransform), 4u);
  EXPECT_EQ(stage_spans(ProfileStage::kOutputTransform), 0u);
  EXPECT_EQ(stage_seconds(ProfileStage::kOutputTransform), 0.0);
}

}  // namespace
}  // namespace lowino
