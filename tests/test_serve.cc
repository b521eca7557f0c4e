// Tests for the serving layer (src/serve): the liveness-based arena planner
// (fuzzed), SessionPlan text round-trip, and InferenceSession — differential
// bit-identity against a layer-by-layer engine replay (engine_replay.h), plan replay,
// the compile passes, and the zero-allocation steady-state contract
// (global operator new counting + the AlignedBuffer allocation counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <random>
#include <sstream>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/env.h"
#include "common/rng.h"
#include "engine_replay.h"
#include "nn/layers.h"
#include "nn/model_zoo.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/quantize.h"
#include "serve/arena.h"
#include "serve/session.h"
#include "tensor/layout.h"

// ---------------------------------------------------------------------------
// Malloc-counting harness: replace the global allocation functions so the
// steady-state test can assert InferenceSession::run touches the heap zero
// times. Replacement is binary-wide; counting is a single relaxed atomic, so
// the other tests are unaffected beyond a negligible constant cost.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow variants must be replaced too: libstdc++'s temporary-buffer
// machinery (std::stable_sort) allocates with nothrow new but frees through
// plain operator delete — leaving nothrow new to the runtime while replacing
// delete is an alloc/dealloc mismatch under AddressSanitizer.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lowino {

// White-box access for the layout-pass tests (a friend of InferenceSession).
struct InferenceSessionTestPeer {
  using Op = InferenceSession::Op;
  using Value = InferenceSession::Value;

  static const std::vector<Op>& ops(const InferenceSession& s) { return s.ops_; }
  static const std::vector<Value>& values(const InferenceSession& s) { return s.values_; }
  static std::size_t output_value(const InferenceSession& s) { return s.output_value_; }

  /// A session taken through lower() alone.
  static InferenceSession lowered(SequentialModel& model,
                                  std::span<const Tensor<float>> calib_batches) {
    InferenceSession s;
    InferenceSession::lower(s, model, calib_batches);
    return s;
  }
  static void fuse(InferenceSession& s, const PlanOptions& options) {
    InferenceSession::fuse(s, options);
  }
  static std::vector<Op>& mutable_ops(InferenceSession& s) { return s.ops_; }

  /// A session taken through compile()'s passes up to select_engines and no
  /// further: that pass's own record of engines and shoot-out candidates.
  static InferenceSession through_select_engines(SequentialModel& model,
                                                 const Tensor<float>& calib,
                                                 const PlanOptions& options) {
    InferenceSession s;
    s.pool_ = options.pool != nullptr ? options.pool : &ThreadPool::global();
    const std::span<const Tensor<float>> batches(&calib, 1);
    InferenceSession::lower(s, model, batches);
    InferenceSession::validate_replay(s, options);
    InferenceSession::fuse(s, options);
    InferenceSession::select_engines(s, options, InferenceSession::fp32_reference(s, batches));
    return s;
  }

  /// run(), with `after(value, bytes)` called on each op's output right after
  /// the op — before the arena slot can be reused.
  template <typename Fn>
  static void run_observed(InferenceSession& s, const Tensor<float>& input,
                           Tensor<float>& output, Fn&& after) {
    output.reshape(s.values_[s.output_value_].shape);
    for (Op& op : s.ops_) {
      const void* in1 = op.kind == Op::Kind::kAddRelu || op.fuse_sum
                            ? s.value_in(op.in1, input)
                            : nullptr;
      void* out = s.value_out(op.out, output);
      s.execute_op(op, s.value_in(op.in0, input), in1, out, s.batch());
      after(op.out, static_cast<const std::uint8_t*>(out));
    }
  }

  /// The same plan — engines, scales, dtypes, fusion — replayed op by op on
  /// NCHW buffers of its own: every conv through the NCHW engine entry points
  /// (run / run_typed), a u8 stem through conv_f32_forward and
  /// quantize_u8_shift128, every reorder a plain copy.
  static Tensor<float> nchw_replay(InferenceSession& s, const Tensor<float>& input) {
    const std::vector<Value> saved = s.values_;
    for (Value& v : s.values_) v.layout = ActLayout::kNchw;
    std::vector<std::vector<std::uint8_t>> bufs(s.values_.size());
    Tensor<float> out(s.values_[s.output_value_].shape);
    const auto ptr = [&](std::size_t v) -> void* {
      if (v == 0) return const_cast<float*>(input.data());
      if (v == s.output_value_) return out.data();
      bufs[v].resize(s.values_[v].bytes());
      return bufs[v].data();
    };
    for (Op& op : s.ops_) {
      void* in1 = op.kind == Op::Kind::kAddRelu || op.fuse_sum ? ptr(op.in1) : nullptr;
      const Value& vo = s.values_[op.out];
      if (op.kind == Op::Kind::kReorder) {
        std::memcpy(ptr(op.out), ptr(op.in0), vo.bytes());
      } else if (op.kind == Op::Kind::kConvFp32 && vo.dtype == DType::kU8) {
        // A u8 stem edge: the NCHW FP32 conv, then the edge's quantization.
        std::vector<float> f(vo.elems);
        conv_f32_forward(op.conv->conv_desc(s.batch()),
                         {static_cast<const float*>(ptr(op.in0)), s.values_[op.in0].elems},
                         op.conv->weights(), op.conv->bias(), f, op.fp32,
                         PostOps{op.fuse_relu, static_cast<const float*>(in1)});
        quantize_u8_shift128(f, vo.qp.scale, {static_cast<std::uint8_t*>(ptr(op.out)), vo.elems});
      } else {
        s.execute_op(op, ptr(op.in0), in1, ptr(op.out), s.batch());
      }
    }
    s.values_ = saved;
    return out;
  }
};

namespace {

std::uint64_t heap_alloc_count() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// --- Arena planner ----------------------------------------------------------

bool time_overlap(const ArenaRequest& a, const ArenaRequest& b) {
  return a.def_step <= b.last_use_step && b.def_step <= a.last_use_step;
}

TEST(ArenaPlanner, FuzzNoAliasedOverlapAndPeakBound) {
  std::mt19937 rng(20260806);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = 1 + rng() % 40;
    std::vector<ArenaRequest> reqs(n);
    for (ArenaRequest& r : reqs) {
      r.bytes = rng() % 20000;  // zero-byte requests included on purpose
      const std::size_t a = rng() % 64, b = rng() % 64;
      r.def_step = std::min(a, b);
      r.last_use_step = std::max(a, b);
    }
    const ArenaPlan plan = plan_arena(reqs);
    ASSERT_EQ(plan.offsets.size(), n);

    std::size_t naive = 0;
    for (const ArenaRequest& r : reqs) naive += round_up(r.bytes, kArenaAlignment);
    EXPECT_EQ(plan.naive_bytes, naive);
    EXPECT_LE(plan.peak_bytes, naive);

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t sz_i = round_up(reqs[i].bytes, kArenaAlignment);
      if (sz_i == 0) continue;
      EXPECT_EQ(plan.offsets[i] % kArenaAlignment, 0u);
      EXPECT_LE(plan.offsets[i] + sz_i, plan.peak_bytes);
      for (std::size_t j = i + 1; j < n; ++j) {
        const std::size_t sz_j = round_up(reqs[j].bytes, kArenaAlignment);
        if (sz_j == 0 || !time_overlap(reqs[i], reqs[j])) continue;
        const bool disjoint = plan.offsets[i] + sz_i <= plan.offsets[j] ||
                              plan.offsets[j] + sz_j <= plan.offsets[i];
        ASSERT_TRUE(disjoint) << "iter " << iter << ": live requests " << i << " and " << j
                              << " alias";
      }
    }
  }
}

TEST(ArenaPlanner, DisjointLifetimesShareBytes) {
  const ArenaRequest reqs[] = {{1000, 0, 1}, {1000, 2, 3}, {1000, 4, 5}};
  const ArenaPlan plan = plan_arena(reqs);
  EXPECT_EQ(plan.peak_bytes, round_up(1000, kArenaAlignment));
  EXPECT_EQ(plan.naive_bytes, 3 * round_up(1000, kArenaAlignment));
}

TEST(ArenaPlanner, OverlappingLifetimesStack) {
  const ArenaRequest reqs[] = {{64, 0, 2}, {64, 1, 3}, {64, 2, 4}};
  const ArenaPlan plan = plan_arena(reqs);
  // 0/1 and 1/2 overlap; 0 and 2 only touch at step 2 (inclusive) — all three
  // are simultaneously live at step 2, so the peak is the full stack.
  EXPECT_EQ(plan.peak_bytes, 3u * 64u);
}

// --- SessionPlan text format ------------------------------------------------

SessionPlan sample_plan() {
  SessionPlan p;
  p.batch = 4;
  p.arena_bytes = 65536;
  p.naive_bytes = 131072;
  SessionPlan::ConvChoice a;
  a.op_index = 2;
  a.layer = "conv3x3(64->64)";
  a.desc = "B4 C64 K64 H16 W16 r3";
  a.engine = EngineKind::kLoWinoF4;
  a.snr_db = 41.5;
  a.seconds = 1.25e-4;
  a.met_envelope = true;
  SessionPlan::ConvChoice b;
  b.op_index = 5;
  b.layer = "conv3x3(64->128)";
  b.desc = "B4 C64 K128 H8 W8 r3";
  b.engine = EngineKind::kInt8Direct;
  b.snr_db = 17.0;
  b.seconds = 9.5e-5;
  b.met_envelope = false;
  p.convs = {a, b};
  return p;
}

TEST(SessionPlanFormat, SerializeDeserializeRoundTrip) {
  const SessionPlan p = sample_plan();
  const auto q = SessionPlan::deserialize(p.serialize());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->batch, p.batch);
  EXPECT_EQ(q->arena_bytes, p.arena_bytes);
  EXPECT_EQ(q->naive_bytes, p.naive_bytes);
  ASSERT_EQ(q->convs.size(), p.convs.size());
  for (std::size_t i = 0; i < p.convs.size(); ++i) {
    EXPECT_EQ(q->convs[i].op_index, p.convs[i].op_index);
    EXPECT_EQ(q->convs[i].layer, p.convs[i].layer);
    EXPECT_EQ(q->convs[i].desc, p.convs[i].desc);
    EXPECT_EQ(q->convs[i].engine, p.convs[i].engine);
    EXPECT_NEAR(q->convs[i].snr_db, p.convs[i].snr_db, 1e-12);
    EXPECT_NEAR(q->convs[i].seconds, p.convs[i].seconds, 1e-12);
    EXPECT_EQ(q->convs[i].met_envelope, p.convs[i].met_envelope);
  }
}

TEST(SessionPlanFormat, StrictParserRejectsCorruptText) {
  const std::string good = sample_plan().serialize();
  EXPECT_TRUE(SessionPlan::deserialize(good).has_value());
  // Whole-plan rejection on any malformed line.
  EXPECT_FALSE(SessionPlan::deserialize("").has_value());
  EXPECT_FALSE(SessionPlan::deserialize("batch = 0\narena = 1\nnaive = 1\n").has_value());
  EXPECT_FALSE(SessionPlan::deserialize(good + "garbage line\n").has_value());
  EXPECT_FALSE(
      SessionPlan::deserialize(good + "conv = 1 not_an_engine 1 1 1 | l | d\n").has_value());
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 7 | l | d\n")
                   .has_value());  // met flag must be 0/1
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 | only-one-bar\n")
                   .has_value());
  std::string no_batch = good;
  no_batch.erase(no_batch.find("batch = 4"), 10);
  EXPECT_FALSE(SessionPlan::deserialize(no_batch).has_value());
}

TEST(SessionPlanFormat, FileRoundTrip) {
  const SessionPlan p = sample_plan();
  const std::string path = ::testing::TempDir() + "lowino_session_plan_test.txt";
  ASSERT_TRUE(p.save(path));
  const auto q = SessionPlan::load(path);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->serialize(), p.serialize());
  std::remove(path.c_str());
}

// --- InferenceSession -------------------------------------------------------

Tensor<float> random_input(std::size_t batch, std::size_t hw, std::uint64_t seed) {
  Tensor<float> t({batch, 1, hw, hw});
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

/// A session with `kind` forced on every quantizable convolution, calibrated
/// on `calib`.
InferenceSession forced_session(SequentialModel& model, const Tensor<float>& calib,
                                EngineKind kind, ThreadPool* pool) {
  PlanOptions options;
  options.forced_engine = kind;
  options.pool = pool;
  return InferenceSession::compile(model, calib, options);
}

bool same_bits(const Tensor<float>& a, const Tensor<float>& b) {
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(InferenceSession, BitIdenticalToEngineReplayMiniVgg) {
  // The replay hands FP32 between layers; the u8 hand-off deliberately
  // changes that, so the bit-identity contract is pinned to hand-off-off.
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(4, 16, 101);
  const Tensor<float> input = random_input(4, 16, 202);
  for (const EngineKind kind :
       {EngineKind::kInt8Direct, EngineKind::kLoWinoF2, EngineKind::kLoWinoF4}) {
    SequentialModel model = make_minivgg();
    InferenceSession session = forced_session(model, calib, kind, &pool);
    EngineReplay replay(model, kind, calib);
    Tensor<float> out;
    session.run(input, out);
    EXPECT_TRUE(same_bits(out, replay.run(input, &pool))) << "engine " << engine_token(kind);
    // The replay calibrates on its own: a session calibrated on other data
    // must not match it, or the oracle would be reading the session's scales.
    InferenceSession other = forced_session(model, input, kind, &pool);
    other.run(input, out);
    EXPECT_FALSE(same_bits(out, replay.run(input, &pool))) << "engine " << engine_token(kind);
  }
}

TEST(InferenceSession, BitIdenticalToEngineReplayMiniResNet) {
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 303);
  const Tensor<float> input = random_input(2, 16, 404);
  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kLoWinoF4}) {
    SequentialModel model = make_miniresnet();
    InferenceSession session = forced_session(model, calib, kind, &pool);
    EngineReplay replay(model, kind, calib);
    Tensor<float> out;
    session.run(input, out);
    EXPECT_TRUE(same_bits(out, replay.run(input, &pool))) << "engine " << engine_token(kind);
  }
}

TEST(InferenceSession, SteadyStateRunIsAllocationFree) {
  SequentialModel model = make_miniresnet();
  const Tensor<float> calib = random_input(2, 16, 505);
  const Tensor<float> input = random_input(2, 16, 606);
  ThreadPool& pool = ThreadPool::global();
  InferenceSession session = forced_session(model, calib, EngineKind::kLoWinoF4, &pool);

  Tensor<float> out;
  session.run(input, out);  // warm the caller-owned output tensor
  const std::uint64_t heap_before = heap_alloc_count();
  const std::uint64_t aligned_before = aligned_buffer_alloc_count();
  for (int i = 0; i < 5; ++i) session.run(input, out);
  EXPECT_EQ(heap_alloc_count(), heap_before) << "operator new called on the serve path";
  EXPECT_EQ(aligned_buffer_alloc_count(), aligned_before)
      << "AlignedBuffer (re)allocated on the serve path";
}

TEST(InferenceSession, ArenaPeakAtMostNaiveOnZooModels) {
  ThreadPool& pool = ThreadPool::global();
  {
    SequentialModel vgg = make_minivgg();
    const Tensor<float> calib = random_input(2, 16, 707);
    InferenceSession s = forced_session(vgg, calib, EngineKind::kLoWinoF2, &pool);
    EXPECT_LE(s.plan().arena_bytes, s.plan().naive_bytes);
    // A chain network reuses ping-pong slots: the arena must beat one-buffer-
    // per-activation by a strict margin.
    EXPECT_LT(s.plan().arena_bytes, s.plan().naive_bytes);
  }
  {
    SequentialModel resnet = make_miniresnet();
    const Tensor<float> calib = random_input(2, 16, 808);
    InferenceSession s = forced_session(resnet, calib, EngineKind::kLoWinoF2, &pool);
    EXPECT_LT(s.plan().arena_bytes, s.plan().naive_bytes);
  }
}

TEST(InferenceSession, AutoSelectionMeetsEnvelopeAndRecordsPlan) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(2, 16, 909);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;
  InferenceSession session = InferenceSession::compile(model, calib, options);
  ASSERT_FALSE(session.plan().convs.empty());
  for (const SessionPlan::ConvChoice& c : session.plan().convs) {
    EXPECT_FALSE(c.layer.empty());
    EXPECT_FALSE(c.desc.empty());
    EXPECT_GT(c.seconds, 0.0);  // shoot-out actually measured
  }
  const Tensor<float> input = random_input(2, 16, 1010);
  Tensor<float> out;
  session.run(input, out);
  ASSERT_EQ(out.rank(), 2u);
  EXPECT_EQ(out.dim(0), 2u);
}

// --- The shoot-out's ranking rule ----------------------------------------------

/// A scripted shoot-out: every kind's SNR, envelope verdict and seconds are
/// given up front; the hooks record the order in which candidates are timed
/// and which engines a caller would be holding.
struct ScriptedShootout {
  struct Row {
    EngineKind kind;
    double snr;
    bool meets;
    double seconds;
    bool eligible = true;
  };

  explicit ScriptedShootout(std::vector<Row> table) : rows(std::move(table)) {}

  std::vector<Row> rows;
  std::vector<EngineKind> timed;
  std::optional<EngineKind> current, leader;

  const Row& row(EngineKind kind) const {
    return *std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.kind == kind; });
  }

  ShootoutResult run() {
    std::vector<EngineKind> kinds;
    for (const Row& r : rows) kinds.push_back(r.kind);
    ShootoutHooks hooks;
    hooks.measure = [&](EngineKind kind) -> std::optional<ShootoutCandidate> {
      const Row& r = row(kind);
      if (!r.eligible) return std::nullopt;
      current = kind;
      ShootoutCandidate c;
      c.engine = kind;
      c.snr_db = r.snr;
      c.met_envelope = r.meets;
      return c;
    };
    hooks.time = [&](bool lead) {
      const EngineKind kind = lead ? *leader : *current;
      timed.push_back(kind);
      return row(kind).seconds;
    };
    hooks.promote = [&] { leader = current; };
    return run_shootout(kinds, hooks);
  }
};

/// The single-pass rule the shoot-out used while it timed every candidate:
/// meets the envelope first, then fastest; below it, highest SNR.
std::optional<EngineKind> timed_everything_winner(const std::vector<ScriptedShootout::Row>& rows) {
  const ScriptedShootout::Row* best = nullptr;
  for (const ScriptedShootout::Row& r : rows) {
    if (!r.eligible) continue;
    const bool better = best == nullptr || (r.meets != best->meets
                                                ? r.meets
                                                : (r.meets ? r.seconds < best->seconds
                                                           : r.snr > best->snr));
    if (better) best = &r;
  }
  return best != nullptr ? std::optional<EngineKind>(best->kind) : std::nullopt;
}

constexpr EngineKind kD = EngineKind::kInt8Direct, kF2 = EngineKind::kLoWinoF2,
                     kF4 = EngineKind::kLoWinoF4, kF6 = EngineKind::kLoWinoF6;

TEST(ShootoutRank, BelowEnvelopeIsNeverTimedWhenAnotherMeets) {
  // F4 and F6 miss the envelope but would be fastest; they are not timed.
  ScriptedShootout s{{{kF6, 12.0, false, 0.001}, {kD, 35.0, true, 0.040},
                      {kF4, 17.0, false, 0.002}, {kF2, 31.0, true, 0.036}}};
  const ShootoutResult r = s.run();
  ASSERT_TRUE(r.winner);
  EXPECT_EQ(r.candidates[*r.winner].engine, kF2);
  EXPECT_EQ(s.timed, (std::vector<EngineKind>{kD, kF2}));
  ASSERT_EQ(r.candidates.size(), 4u);
  for (const ShootoutCandidate& c : r.candidates) {
    EXPECT_EQ(c.timed, c.met_envelope) << engine_token(c.engine);
    EXPECT_EQ(c.seconds, c.timed ? s.row(c.engine).seconds : 0.0) << engine_token(c.engine);
  }
}

TEST(ShootoutRank, NoneMeetsHighestSnrWinsAndOnlyItIsTimed) {
  ScriptedShootout s{{{kD, 18.0, false, 0.040}, {kF2, 19.5, false, 0.036},
                      {kF4, 17.0, false, 0.002}, {kF6, 12.0, false, 0.001}}};
  const ShootoutResult r = s.run();
  ASSERT_TRUE(r.winner);
  const ShootoutCandidate& w = r.candidates[*r.winner];
  EXPECT_EQ(w.engine, kF2);
  EXPECT_TRUE(w.timed);
  EXPECT_EQ(w.seconds, 0.036);
  EXPECT_EQ(s.timed, (std::vector<EngineKind>{kF2}));
  EXPECT_EQ(std::count_if(r.candidates.begin(), r.candidates.end(),
                          [](const ShootoutCandidate& c) { return c.timed; }),
            1);
}

TEST(ShootoutRank, TiesKeepCandidateOrder) {
  ScriptedShootout meets{{{kF4, 25.0, true, 0.010}, {kF2, 30.0, true, 0.010}}};
  ShootoutResult r = meets.run();
  EXPECT_EQ(r.candidates[*r.winner].engine, kF4);
  ScriptedShootout misses{{{kF6, 15.0, false, 0.001}, {kF4, 15.0, false, 0.0005}}};
  r = misses.run();
  EXPECT_EQ(r.candidates[*r.winner].engine, kF6);
  EXPECT_EQ(misses.timed, (std::vector<EngineKind>{kF6}));
}

TEST(ShootoutRank, IneligibleKindsAreNotCandidates) {
  ScriptedShootout s{{{kD, 30.0, true, 0.010, false}, {kF2, 30.0, true, 0.020}}};
  ShootoutResult r = s.run();
  ASSERT_EQ(r.candidates.size(), 1u);
  EXPECT_EQ(r.candidates[0].engine, kF2);
  ScriptedShootout none{{{kD, 30.0, true, 0.010, false}}};
  r = none.run();
  EXPECT_FALSE(r.winner);
  EXPECT_TRUE(r.candidates.empty());
  EXPECT_TRUE(none.timed.empty());
}

TEST(ShootoutRank, PicksTheSameWinnerAsTimingEverything) {
  // A table of shoot-outs (ties, all-miss, all-meet, mixed orders) plus
  // random ones: the gated pass picks what the timed-everything pass picked,
  // and times exactly the envelope-meeting candidates, or the winner alone.
  std::vector<std::vector<ScriptedShootout::Row>> cases = {
      {{kD, 35.0, true, 0.04}, {kF2, 31.0, true, 0.036}, {kF4, 17.0, false, 0.02}},
      {{kF4, 17.0, false, 0.02}, {kF6, 12.0, false, 0.01}},
      {{kF6, 12.0, false, 0.01}, {kD, 21.0, true, 0.05}},
      {{kD, 20.0, true, 0.03}, {kF2, 20.0, true, 0.03}},
      {{kD, 19.0, false, 0.03}, {kF2, 19.0, false, 0.01}, {kF4, 25.0, true, 0.09}},
      {{kD, 40.0, true, 0.01}},
      {{kD, 40.0, true, 0.01, false}, {kF2, 10.0, false, 0.02}},
  };
  Rng rng(2024);
  const std::span<const EngineKind> kinds = all_engine_kinds();
  for (int n = 0; n < 300; ++n) {
    std::vector<ScriptedShootout::Row> rows;
    const std::size_t count = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < count; ++i) {
      const double snr = 14.0 + 2.0 * static_cast<double>(rng.next_below(6));  // ties
      rows.push_back({kinds[i], snr, snr >= 20.0,
                      0.001 * static_cast<double>(1 + rng.next_below(4)),
                      rng.next_below(5) != 0});
    }
    cases.push_back(std::move(rows));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "case " << i);
    ScriptedShootout s{cases[i]};
    const ShootoutResult r = s.run();
    const std::optional<EngineKind> want = timed_everything_winner(cases[i]);
    ASSERT_EQ(r.winner.has_value(), want.has_value());
    if (!want) continue;
    const ShootoutCandidate& w = r.candidates[*r.winner];
    EXPECT_EQ(w.engine, *want);
    std::vector<EngineKind> expect_timed;
    for (const ShootoutCandidate& c : r.candidates) {
      if (c.met_envelope) expect_timed.push_back(c.engine);
    }
    if (expect_timed.empty()) expect_timed.push_back(w.engine);
    EXPECT_EQ(s.timed, expect_timed);
    EXPECT_TRUE(w.timed);
  }
}

/// Checks one compiled plan's shoot-out records against the ranking rule.
void expect_candidates_follow_the_rule(const SessionPlan& plan) {
  for (const SessionPlan::ConvChoice& c : plan.convs) {
    SCOPED_TRACE(c.layer);
    ASSERT_FALSE(c.candidates.empty());
    const bool any_meets = std::any_of(c.candidates.begin(), c.candidates.end(),
                                       [](const ShootoutCandidate& k) { return k.met_envelope; });
    std::size_t winners = 0;
    for (const ShootoutCandidate& k : c.candidates) {
      const bool winner = k.engine == c.engine;
      winners += winner;
      EXPECT_EQ(k.timed, k.met_envelope || (!any_meets && winner)) << engine_token(k.engine);
      EXPECT_EQ(k.timed, k.seconds > 0.0) << engine_token(k.engine);
      if (winner) {
        EXPECT_EQ(k.snr_db, c.snr_db);
        EXPECT_EQ(k.seconds, c.seconds);
        EXPECT_EQ(k.met_envelope, c.met_envelope);
      }
    }
    EXPECT_EQ(winners, 1u);
  }
}

TEST(ShootoutRank, PlanRecordsEveryCandidateAndSummaryPrintsThem) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(2, 16, 919);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.002;
  for (const double min_snr : {20.0, 1000.0}) {  // 1000 dB: nothing meets it
    SCOPED_TRACE(::testing::Message() << "min_snr_db " << min_snr);
    options.min_snr_db = min_snr;
    InferenceSession s = InferenceSession::compile(model, calib, options);
    expect_candidates_follow_the_rule(s.plan());
    for (const SessionPlan::ConvChoice& c : s.plan().convs) {
      // The default set in order: every kind that carries a 3x3 conv.
      std::vector<EngineKind> kinds;
      for (const ShootoutCandidate& k : c.candidates) kinds.push_back(k.engine);
      EXPECT_EQ(kinds, (std::vector<EngineKind>{kD, kF2, kF4, kF6}));
    }
    const std::string summary = s.plan().summary();
    EXPECT_NE(summary.find("    candidate int8_direct  snr "), std::string::npos) << summary;
    if (min_snr > 100.0) {
      EXPECT_NE(summary.find("(below envelope), untimed"), std::string::npos) << summary;
    }
    // Candidates are summary-only: the plan text is the same without them.
    SessionPlan bare = s.plan();
    for (SessionPlan::ConvChoice& c : bare.convs) c.candidates.clear();
    EXPECT_EQ(s.plan().serialize(), bare.serialize());
    EXPECT_EQ(s.plan().serialize().find("candidate"), std::string::npos);
    const std::optional<SessionPlan> back = SessionPlan::deserialize(s.plan().serialize());
    ASSERT_TRUE(back);
    for (const SessionPlan::ConvChoice& c : back->convs) EXPECT_TRUE(c.candidates.empty());
  }
  // Forced engines skip the shoot-out: no candidates.
  InferenceSession forced =
      forced_session(model, calib, EngineKind::kLoWinoF4, &ThreadPool::global());
  for (const SessionPlan::ConvChoice& c : forced.plan().convs) EXPECT_TRUE(c.candidates.empty());
}

TEST(ShootoutRank, DefaultCandidatesOnMobileNetMeasureOneKindPerConv) {
  // select_engines alone, with the default candidates: of those, only
  // int8_direct accepts a pointwise conv (the Winograd kinds need r >= 2,
  // int8_dw a depthwise one) and only int8_dw a depthwise conv, so each
  // shoot-out records exactly that one kind.
  SequentialModel model = make_minimobilenet();
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.002;
  const InferenceSession s =
      InferenceSessionTestPeer::through_select_engines(model, random_input(2, 16, 929), options);
  expect_candidates_follow_the_rule(s.plan());
  std::size_t pointwise = 0, depthwise = 0;
  for (const SessionPlan::ConvChoice& c : s.plan().convs) {
    SCOPED_TRACE(c.layer);
    const ConvDesc d =
        InferenceSessionTestPeer::ops(s)[c.op_index].conv->conv_desc(s.plan().batch);
    std::vector<EngineKind> measured;
    for (const ShootoutCandidate& k : c.candidates) measured.push_back(k.engine);
    if (d.is_depthwise()) {
      ++depthwise;
      EXPECT_EQ(measured, std::vector<EngineKind>{EngineKind::kInt8Depthwise});
    } else if (d.kernel == 1) {
      ++pointwise;
      EXPECT_EQ(measured, std::vector<EngineKind>{kD});
    }
  }
  EXPECT_EQ(pointwise, 2u);
  EXPECT_EQ(depthwise, 2u);
}

TEST(InferenceSession, PlanReplayServesIdentically) {
  const Tensor<float> calib = random_input(2, 16, 111);
  const Tensor<float> input = random_input(2, 16, 222);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;

  SequentialModel model_a = make_minivgg();
  InferenceSession first = InferenceSession::compile(model_a, calib, options);

  const std::string path = ::testing::TempDir() + "lowino_plan_replay_test.txt";
  ASSERT_TRUE(first.plan().save(path));
  const auto loaded = SessionPlan::load(path);
  ASSERT_TRUE(loaded.has_value());
  std::remove(path.c_str());

  // Fresh model with the same seed => same weights; the replayed session
  // must pick the same engines without measuring, and serve bit-identically.
  SequentialModel model_b = make_minivgg();
  PlanOptions replay;
  replay.pool = options.pool;
  replay.reuse = &*loaded;
  InferenceSession second = InferenceSession::compile(model_b, calib, replay);
  ASSERT_EQ(second.plan().convs.size(), first.plan().convs.size());
  for (std::size_t i = 0; i < first.plan().convs.size(); ++i) {
    EXPECT_EQ(second.plan().convs[i].engine, first.plan().convs[i].engine);
  }

  Tensor<float> out_a, out_b;
  first.run(input, out_a);
  second.run(input, out_b);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(), out_a.size() * sizeof(float)));
}

TEST(InferenceSession, MiniMobileNetPlanRoundTripsDepthwiseLines) {
  const Tensor<float> calib = random_input(2, 16, 444);
  const Tensor<float> input = random_input(2, 16, 555);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.005;

  SequentialModel model_a = make_minimobilenet();
  InferenceSession first = InferenceSession::compile(model_a, calib, options);

  // The depthwise layers admit exactly one quantized candidate — the
  // dedicated int8_dw engine — and their plan lines must carry the grouped
  // descriptor token. The pointwise layers must land on int8_direct (the
  // Winograd kinds all reject r = 1).
  std::size_t depthwise = 0, pointwise = 0;
  for (const SessionPlan::ConvChoice& c : first.plan().convs) {
    if (c.desc.find(" g") != std::string::npos) {
      ++depthwise;
      EXPECT_EQ(c.engine, EngineKind::kInt8Depthwise) << c.layer << " " << c.desc;
    } else if (c.desc.find(" r1") != std::string::npos) {
      ++pointwise;
      EXPECT_EQ(c.engine, EngineKind::kInt8Direct) << c.layer << " chose "
                                                   << engine_token(c.engine);
    }
  }
  EXPECT_EQ(depthwise, 2u);
  EXPECT_EQ(pointwise, 2u);

  // Text round-trip: the serialized plan (with its " g#" descriptor tokens
  // and int8_dw engine tokens) must reload verbatim and replay bit-identical
  // on a fresh same-seed model.
  const std::string path = ::testing::TempDir() + "lowino_mobilenet_plan_test.txt";
  ASSERT_TRUE(first.plan().save(path));
  const auto loaded = SessionPlan::load(path);
  ASSERT_TRUE(loaded.has_value());
  std::remove(path.c_str());
  EXPECT_EQ(loaded->serialize(), first.plan().serialize());

  SequentialModel model_b = make_minimobilenet();
  PlanOptions replay;
  replay.pool = options.pool;
  replay.reuse = &*loaded;
  InferenceSession second = InferenceSession::compile(model_b, calib, replay);
  ASSERT_EQ(second.plan().convs.size(), first.plan().convs.size());
  for (std::size_t i = 0; i < first.plan().convs.size(); ++i) {
    EXPECT_EQ(second.plan().convs[i].engine, first.plan().convs[i].engine);
  }
  Tensor<float> out_a, out_b;
  first.run(input, out_a);
  second.run(input, out_b);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(), out_a.size() * sizeof(float)));
}

TEST(InferenceSession, LegacyInt8Conv1x1PlanReplaysAsInt8Direct) {
  // A MobileNet plan saved while int8_1x1 was an engine of its own: the
  // PlanDecisionsArePinned golden of that time as full plan text (its snr
  // and seconds fields, which a replay ignores, are illustrative). Its
  // int8_1x1 lines load as int8_direct, and the replay serves the logits of
  // a fresh compile byte for byte.
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  const std::string legacy =
      "# lowino-plan v3: conv = op_index engine snr_db seconds met [post=ops] "
      "[dtype=in:out] | layer | desc\n"
      "batch = 2\n"
      "arena = 81920\n"
      "naive = 196608\n"
      "conv = 1 int8_dw 38.1 0.0002 1 post=relu dtype=u8:u8 | dwconv3x3(32->32)+relu | "
      "B2 C32 K32 H16 W16 r3 g32\n"
      "conv = 2 int8_1x1 36.4 0.0003 1 post=relu dtype=u8:u8 | conv1x1(32->64)+relu | "
      "B2 C32 K64 H16 W16 r1\n"
      "conv = 4 int8_dw 37.9 0.0001 1 post=relu dtype=u8:u8 | dwconv3x3(64->64)+relu | "
      "B2 C64 K64 H8 W8 r3 g64\n"
      "conv = 5 int8_1x1 35.2 0.0002 1 post=relu dtype=u8:f32 | conv1x1(64->128)+relu | "
      "B2 C64 K128 H8 W8 r1\n";
  const std::optional<SessionPlan> plan = SessionPlan::deserialize(legacy);
  ASSERT_TRUE(plan);
  ASSERT_EQ(plan->convs.size(), 4u);
  EXPECT_EQ(plan->convs[1].engine, EngineKind::kInt8Direct);
  EXPECT_EQ(plan->convs[3].engine, EngineKind::kInt8Direct);

  const Tensor<float> calib = random_input(2, 16, 1717);
  const Tensor<float> input = random_input(2, 16, 1718);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.seconds_per_candidate = 0.002;
  SequentialModel model_a = make_minimobilenet();
  InferenceSession fresh = InferenceSession::compile(model_a, calib, options);
  PlanOptions replay;
  replay.pool = options.pool;
  replay.reuse = &*plan;
  SequentialModel model_b = make_minimobilenet();
  InferenceSession replayed = InferenceSession::compile(model_b, calib, replay);
  const std::string text = replayed.plan().serialize();
  EXPECT_EQ(text.find("int8_1x1"), std::string::npos) << text;
  ASSERT_EQ(replayed.plan().convs.size(), fresh.plan().convs.size());
  for (std::size_t i = 0; i < fresh.plan().convs.size(); ++i) {
    EXPECT_EQ(replayed.plan().convs[i].engine, fresh.plan().convs[i].engine);
  }
  Tensor<float> out_fresh, out_replayed;
  fresh.run(input, out_fresh);
  replayed.run(input, out_replayed);
  ASSERT_EQ(out_fresh.shape(), out_replayed.shape());
  EXPECT_EQ(0, std::memcmp(out_fresh.data(), out_replayed.data(),
                           out_fresh.size() * sizeof(float)));
}

TEST(InferenceSession, PlanReplayRejectsMismatchedModel) {
  const Tensor<float> calib = random_input(2, 16, 333);
  SequentialModel vgg = make_minivgg();
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.forced_engine = EngineKind::kLoWinoF2;
  InferenceSession session = InferenceSession::compile(vgg, calib, options);

  SessionPlan plan = session.plan();
  SequentialModel resnet = make_miniresnet();
  PlanOptions replay;
  replay.pool = options.pool;
  replay.reuse = &plan;
  EXPECT_THROW(InferenceSession::compile(resnet, calib, replay), std::invalid_argument);

  SessionPlan wrong_batch = plan;
  wrong_batch.batch = 8;
  replay.reuse = &wrong_batch;
  EXPECT_THROW(InferenceSession::compile(vgg, calib, replay), std::invalid_argument);
}

TEST(InferenceSession, RejectsWrongInputShapeAndBadModels) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(2, 16, 555);
  InferenceSession session =
      forced_session(model, calib, EngineKind::kInt8Direct, &ThreadPool::global());
  const Tensor<float> wrong = random_input(4, 16, 556);
  Tensor<float> out;
  EXPECT_THROW(session.run(wrong, out), std::invalid_argument);

  SequentialModel empty;
  EXPECT_THROW(InferenceSession::compile(empty, calib, {}), std::invalid_argument);
  Tensor<float> rank2({2, 16});
  EXPECT_THROW(InferenceSession::compile(model, rank2, {}), std::invalid_argument);
}

TEST(InferenceSession, GroupedFp32ConvServesLikeForward) {
  // Non-quantizable convs run the shared FP32 kernel in the session, grouped
  // (depthwise) ones included: serving must match the model's own forward
  // bit for bit.
  SequentialModel model = make_minimobilenet();
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (auto* conv = dynamic_cast<ConvLayer*>(&model.layer(i))) conv->set_quantizable(false);
  }
  const Tensor<float> calib = random_input(2, 16, 717);
  const Tensor<float> input = random_input(2, 16, 718);
  PlanOptions options;
  options.pool = &ThreadPool::global();
  InferenceSession session = InferenceSession::compile(model, calib, options);
  EXPECT_TRUE(session.plan().convs.empty());
  Tensor<float> out;
  session.run(input, out);
  const Tensor<float>& ref = model.forward(input);
  ASSERT_EQ(out.shape(), ref.shape());
  EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), out.size() * sizeof(float)));
}

/// A plan's text without the measured fields (SNR, seconds, envelope bit):
/// the batch/arena/naive lines, then "conv = op_index engine [post=]
/// [dtype=] | layer | desc" per conv — the decisions compile() makes.
std::string plan_decisions(const SessionPlan& plan) {
  std::istringstream is(plan.serialize());
  std::string line, out;
  while (std::getline(is, line)) {
    if (line.rfind("conv = ", 0) == 0) {
      const std::size_t bar = line.find(" | ");
      std::istringstream head(line.substr(0, bar));
      std::string conv, eq, index, engine, snr, seconds, met, tokens;
      head >> conv >> eq >> index >> engine >> snr >> seconds >> met;
      std::getline(head, tokens);  // optional " post=... dtype=..."
      line = "conv = " + index + ' ' + engine + tokens + line.substr(bar);
    }
    if (!line.empty() && line[0] != '#') out += line + '\n';
  }
  return out;
}

TEST(InferenceSession, PlanDecisionsArePinned) {
  // Engine, fusion, dtype and arena decisions for the zoo nets, recorded
  // from a known-good compile. A refactor of compile() must reproduce them.
  // Every stem writes its reader's u8 bytes (conv 0 reads dtype u8).
  // MiniMobileNet runs a shoot-out over a candidate set that leaves exactly
  // one eligible engine per layer (no forced kind takes both its grouped
  // and its 1x1 layers), so its decisions do not depend on timing.
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  const Tensor<float> calib = random_input(2, 16, 1717);
  const auto decide_on = [&](SequentialModel model, std::span<const Tensor<float>> batches,
                             PlanOptions options) {
    options.pool = &ThreadPool::global();
    options.seconds_per_candidate = 0.002;
    return plan_decisions(InferenceSession::compile(model, batches, options).plan());
  };
  const auto decide = [&](SequentialModel model, PlanOptions options) {
    return decide_on(std::move(model), {&calib, 1}, options);
  };
  PlanOptions f4, direct, dedicated;
  f4.forced_engine = EngineKind::kLoWinoF4;
  direct.forced_engine = EngineKind::kInt8Direct;
  dedicated.candidates = {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct};

  // The single-tensor overload is compile() on a span of one.
  {
    SequentialModel model = make_minivgg();
    PlanOptions options = f4;
    options.pool = &ThreadPool::global();
    EXPECT_EQ(InferenceSession::compile(model, calib, options).plan().serialize(),
              InferenceSession::compile(model, std::span<const Tensor<float>>(&calib, 1), options)
                  .plan()
                  .serialize());
  }

  EXPECT_EQ(decide(make_minivgg(), f4),
            "batch = 2\n"
            "arena = 81920\n"
            "naive = 155648\n"
            "conv = 1 lowino_f4 post=relu dtype=u8:u8 | conv3x3(64->64)+relu | "
            "B2 C64 K64 H16 W16 r3\n"
            "conv = 3 lowino_f4 post=relu dtype=u8:f32 | conv3x3(64->128)+relu | "
            "B2 C64 K128 H8 W8 r3\n");
  EXPECT_EQ(decide(make_minivgg(), direct),
            "batch = 2\n"
            "arena = 81920\n"
            "naive = 155648\n"
            "conv = 1 int8_direct post=relu dtype=u8:u8 | conv3x3(64->64)+relu | "
            "B2 C64 K64 H16 W16 r3\n"
            "conv = 3 int8_direct post=relu dtype=u8:f32 | conv3x3(64->128)+relu | "
            "B2 C64 K128 H8 W8 r3\n");
  const std::string resnet_f4 =
      "batch = 2\n"
      "arena = 65536\n"
      "naive = 122880\n"
      "conv = 1 lowino_f4 post=relu dtype=u8:u8 | conv3x3(64->64)+relu | "
      "B2 C64 K64 H16 W16 r3\n"
      "conv = 2 lowino_f4 post=sum+relu dtype=u8:u8 | conv3x3(64->64)+sum+relu | "
      "B2 C64 K64 H16 W16 r3\n"
      "conv = 4 lowino_f4 post=relu dtype=u8:u8 | conv3x3(64->64)+relu | "
      "B2 C64 K64 H8 W8 r3\n"
      "conv = 5 lowino_f4 post=sum+relu dtype=u8:f32 | conv3x3(64->64)+sum+relu | "
      "B2 C64 K64 H8 W8 r3\n";
  EXPECT_EQ(decide(make_miniresnet(), f4), resnet_f4);
  // Calibrating on the same batch twice doubles every histogram count, which
  // is exact in floating point: the decisions must not move.
  const Tensor<float> twice[] = {calib, calib};
  EXPECT_EQ(decide_on(make_miniresnet(), twice, f4), resnet_f4);
  EXPECT_EQ(decide(make_miniresnet(), direct),
            "batch = 2\n"
            "arena = 65536\n"
            "naive = 122880\n"
            "conv = 1 int8_direct post=relu dtype=u8:u8 | conv3x3(64->64)+relu | "
            "B2 C64 K64 H16 W16 r3\n"
            "conv = 2 int8_direct post=sum+relu dtype=u8:u8 | conv3x3(64->64)+sum+relu | "
            "B2 C64 K64 H16 W16 r3\n"
            "conv = 4 int8_direct post=relu dtype=u8:u8 | conv3x3(64->64)+relu | "
            "B2 C64 K64 H8 W8 r3\n"
            "conv = 5 int8_direct post=sum+relu dtype=u8:f32 | conv3x3(64->64)+sum+relu | "
            "B2 C64 K64 H8 W8 r3\n");
  // MobileNet runs blocked end to end: its 32-channel values are padded to
  // 64 lanes, hence the larger arena; the engine decisions do not move.
  EXPECT_EQ(decide(make_minimobilenet(), dedicated),
            "batch = 2\n"
            "arena = 81920\n"
            "naive = 196608\n"
            "conv = 1 int8_dw post=relu dtype=u8:u8 | dwconv3x3(32->32)+relu | "
            "B2 C32 K32 H16 W16 r3 g32\n"
            "conv = 2 int8_direct post=relu dtype=u8:u8 | conv1x1(32->64)+relu | "
            "B2 C32 K64 H16 W16 r1\n"
            "conv = 4 int8_dw post=relu dtype=u8:u8 | dwconv3x3(64->64)+relu | "
            "B2 C64 K64 H8 W8 r3 g64\n"
            "conv = 5 int8_direct post=relu dtype=u8:f32 | conv1x1(64->128)+relu | "
            "B2 C64 K128 H8 W8 r1\n");

  // vendor_f2 has no post-op support: nothing fuses into its convs, and the
  // ReLU and add+relu passes stay ops of their own.
  PlanOptions vendor;
  vendor.forced_engine = EngineKind::kVendorF2;
  vendor.pool = &ThreadPool::global();
  SequentialModel resnet = make_miniresnet();
  const InferenceSession unfused = InferenceSession::compile(resnet, calib, vendor);
  EXPECT_EQ(plan_decisions(unfused.plan()).find("post="), std::string::npos);
  std::size_t relus = 0, add_relus = 0;
  for (const auto& op : InferenceSessionTestPeer::ops(unfused)) {
    relus += op.kind == InferenceSessionTestPeer::Op::Kind::kRelu;
    add_relus += op.kind == InferenceSessionTestPeer::Op::Kind::kAddRelu;
  }
  EXPECT_EQ(relus, 2u);      // the one in each residual block; the stem's relu fuses
  EXPECT_EQ(add_relus, 2u);  // one per residual block
}

TEST(InferenceSession, AllZeroReferencePlanRoundTrips) {
  // A conv with no positive output (non-negative input, all-negative
  // weights, zero bias) feeds a ReLU: its fused FP32 reference is all zeros.
  // On a sparse input, F(4x4) and F(6x6) spread transformed-domain noise
  // into positions whose exact output is 0, so their SNR is -inf dB. The
  // plan must still save, load, replay and serve identically.
  ThreadPool& pool = ThreadPool::global();
  const auto make_net = [] {
    Rng rng(77);
    SequentialModel m;
    auto stem = std::make_unique<ConvLayer>(1, 64, 16, 3, 1, rng);
    stem->set_quantizable(false);
    m.add(std::move(stem));
    m.add(std::make_unique<ReluLayer>());
    auto conv = std::make_unique<ConvLayer>(64, 64, 16, 3, 1, rng);
    for (float& w : conv->mutable_weights()) w = -0.01f * std::abs(w);
    m.add(std::move(conv));
    m.add(std::make_unique<ReluLayer>());
    m.add(std::make_unique<MaxPoolLayer>(64, 16));
    m.add(std::make_unique<DenseLayer>(64 * 8 * 8, 10, rng));
    return m;
  };
  Tensor<float> calib = random_input(2, 16, 1919);
  for (std::size_t i = 0; i < calib.size(); ++i) {
    if (i % 29 != 0) calib.data()[i] = 0.0f;
  }
  const Tensor<float> input = random_input(2, 16, 2020);
  const std::string path = ::testing::TempDir() + "lowino_all_zero_reference_plan.txt";
  for (const EngineKind kind : {EngineKind::kLoWinoF2, EngineKind::kLoWinoF4,
                                EngineKind::kLoWinoF6, EngineKind::kInt8Direct}) {
    SequentialModel model = make_net();
    InferenceSession session = forced_session(model, calib, kind, &pool);
    const double snr_db = session.plan().convs.at(0).snr_db;
    ASSERT_TRUE(std::isfinite(snr_db)) << engine_token(kind);
    if (kind == EngineKind::kLoWinoF6) {
      EXPECT_LT(snr_db, 0.0) << "the net no longer yields an all-zero reference with noise";
    }
    ASSERT_TRUE(session.plan().save(path));
    const std::optional<SessionPlan> loaded = SessionPlan::load(path);
    ASSERT_TRUE(loaded.has_value()) << engine_token(kind);
    EXPECT_EQ(loaded->serialize(), session.plan().serialize());
    SequentialModel fresh = make_net();
    PlanOptions replay;
    replay.pool = &pool;
    replay.reuse = &*loaded;
    InferenceSession replayed = InferenceSession::compile(fresh, calib, replay);
    Tensor<float> out, out_replayed;
    session.run(input, out);
    replayed.run(input, out_replayed);
    EXPECT_TRUE(same_bits(out, out_replayed)) << engine_token(kind);
  }
  std::remove(path.c_str());
}

TEST(InferenceSession, PlanReplayRejectsInconsistentDtypeTokens) {
  // Replay trusts a plan's dtype tokens only where a fresh compile could
  // have produced them. Each tampering below must be refused.
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 1818);
  SequentialModel model = make_miniresnet();
  const SessionPlan plan =
      forced_session(model, calib, EngineKind::kLoWinoF4, &pool).plan();
  ASSERT_EQ(plan.convs.size(), 4u);
  ASSERT_EQ(plan.convs[0].out_dtype, DType::kU8);
  ASSERT_EQ(plan.convs[1].in_dtype, DType::kU8);
  ASSERT_EQ(plan.convs[3].out_dtype, DType::kF32);

  const auto replay = [&](const SessionPlan& p) {
    SequentialModel fresh = make_miniresnet();
    PlanOptions options;
    options.pool = &pool;
    options.reuse = &p;
    return InferenceSession::compile(fresh, calib, options);
  };
  EXPECT_NO_THROW(replay(plan));

  SessionPlan u8_into_dense = plan;  // last conv -> maxpool -> dense
  u8_into_dense.convs[3].out_dtype = DType::kU8;
  EXPECT_THROW(replay(u8_into_dense), std::invalid_argument);

  SessionPlan flipped_input = plan;
  flipped_input.convs[1].in_dtype = DType::kF32;
  EXPECT_THROW(replay(flipped_input), std::invalid_argument);

  SessionPlan incapable_engine = plan;  // FP32 Winograd has no u8 hand-off
  incapable_engine.convs[0].engine = EngineKind::kFp32WinoF4;
  EXPECT_THROW(replay(incapable_engine), std::invalid_argument);

  // Conv 0 reads the FP32 stem's output: u8 (a fresh plan) and FP32 (a plan
  // from before FP32 convs could emit u8) both replay.
  SessionPlan u8_from_stem = plan;
  ASSERT_EQ(u8_from_stem.convs[0].in_dtype, DType::kU8);
  EXPECT_NO_THROW(replay(u8_from_stem));
  SessionPlan f32_from_stem = plan;
  f32_from_stem.convs[0].in_dtype = DType::kF32;
  EXPECT_NO_THROW(replay(f32_from_stem));

  // A grouped FP32 conv has no u8 store: a u8 token after one is refused.
  const auto make_grouped_net = [] {
    Rng rng(5);
    SequentialModel m;
    auto stem = std::make_unique<ConvLayer>(1, 16, 16, 3, 1, rng);
    stem->set_quantizable(false);
    m.add(std::move(stem));
    m.add(std::make_unique<ReluLayer>());
    auto dw = std::make_unique<ConvLayer>(16, 16, 16, 3, 1, rng, /*groups=*/16);
    dw->set_quantizable(false);
    m.add(std::move(dw));
    m.add(std::make_unique<ConvLayer>(16, 64, 16, 3, 1, rng));
    m.add(std::make_unique<ReluLayer>());
    m.add(std::make_unique<MaxPoolLayer>(64, 16));
    m.add(std::make_unique<DenseLayer>(64 * 8 * 8, 10, rng));
    return m;
  };
  SequentialModel grouped = make_grouped_net();
  SessionPlan u8_after_grouped =
      forced_session(grouped, calib, EngineKind::kInt8Direct, &pool).plan();
  ASSERT_EQ(u8_after_grouped.convs.size(), 1u);
  ASSERT_EQ(u8_after_grouped.convs[0].in_dtype, DType::kF32);
  u8_after_grouped.convs[0].in_dtype = DType::kU8;
  SequentialModel fresh_grouped = make_grouped_net();
  PlanOptions grouped_options;
  grouped_options.pool = &pool;
  grouped_options.reuse = &u8_after_grouped;
  EXPECT_THROW(InferenceSession::compile(fresh_grouped, calib, grouped_options),
               std::invalid_argument);
}

// --- Post-op fusion ---------------------------------------------------------

TEST(SessionPlanFormat, PostOpsTokenRoundTrip) {
  SessionPlan p = sample_plan();
  p.convs[0].fuse_relu = true;
  p.convs[1].fuse_relu = true;
  p.convs[1].fuse_sum = true;
  const std::string text = p.serialize();
  EXPECT_NE(text.find(" post=relu |"), std::string::npos);
  EXPECT_NE(text.find(" post=sum+relu |"), std::string::npos);
  const auto q = SessionPlan::deserialize(text);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 2u);
  EXPECT_TRUE(q->convs[0].fuse_relu);
  EXPECT_FALSE(q->convs[0].fuse_sum);
  EXPECT_TRUE(q->convs[1].fuse_relu);
  EXPECT_TRUE(q->convs[1].fuse_sum);
  EXPECT_EQ(q->serialize(), text);
}

TEST(SessionPlanFormat, UnfusedLinesStayV1Compatible) {
  // No fused epilogue => no post token, so a v1-era conv line parses and
  // yields unfused choices (old plan files keep loading).
  const std::string text = sample_plan().serialize();
  // Only the format header mentions post=; no conv line carries a token.
  EXPECT_EQ(text.find("post=", text.find('\n')), std::string::npos);
  const std::string v1_line = "conv = 3 lowino_f2 25.5 0.0001 1 | conv3x3(64->64) | d\n";
  const auto q = SessionPlan::deserialize(text + v1_line);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 3u);
  EXPECT_FALSE(q->convs[2].fuse_relu);
  EXPECT_FALSE(q->convs[2].fuse_sum);
}

TEST(SessionPlanFormat, RejectsCorruptPostToken) {
  const std::string good = sample_plan().serialize();
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 post=banana | l | d\n")
                   .has_value());
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 post= | l | d\n")
                   .has_value());
  // A stray field that is not a post token is corruption, not an engine hint.
  EXPECT_FALSE(SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 relu | l | d\n")
                   .has_value());
  // Extra trailing junk after a valid token is still rejected.
  EXPECT_FALSE(
      SessionPlan::deserialize(good + "conv = 1 lowino_f4 1 1 1 post=relu junk | l | d\n")
          .has_value());
}

TEST(InferenceSession, PostOpFusionShrinksOpListAndArena) {
  // Hand-off scales are calibrated on the fused op structure (a fused conv's
  // output is the post-epilogue value), so the fused-vs-unfused bit-compare
  // below only holds with the u8 hand-off off.
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 1111);
  const Tensor<float> input = random_input(2, 16, 1212);

  SequentialModel fused_model = make_miniresnet();
  InferenceSession fused = forced_session(fused_model, calib, EngineKind::kLoWinoF4, &pool);

  SequentialModel plain_model = make_miniresnet();
  Tensor<float> out_fused, out_plain;
  {
    ScopedRuntimeOverride off("LOWINO_FUSE_POSTOPS", "0");
    InferenceSession plain = forced_session(plain_model, calib, EngineKind::kLoWinoF4, &pool);

    // Fusion swallows the stem relu plus each residual block's relu and
    // add+relu: strictly fewer ops and a strictly smaller arena peak (the
    // swallowed element-wise outputs drop out of the live-range set).
    EXPECT_LT(fused.op_count(), plain.op_count());
    EXPECT_LT(fused.plan().arena_bytes, plain.plan().arena_bytes);

    for (const SessionPlan::ConvChoice& c : plain.plan().convs) {
      EXPECT_FALSE(c.fuse_relu);
      EXPECT_FALSE(c.fuse_sum);
    }
    plain.run(input, out_plain);
  }
  // MiniResNet records both fusion shapes: conv->relu and conv->add+relu.
  bool saw_relu_only = false, saw_sum_relu = false;
  for (const SessionPlan::ConvChoice& c : fused.plan().convs) {
    saw_relu_only |= c.fuse_relu && !c.fuse_sum;
    saw_sum_relu |= c.fuse_relu && c.fuse_sum;
  }
  EXPECT_TRUE(saw_relu_only);
  EXPECT_TRUE(saw_sum_relu);
  EXPECT_NE(fused.plan().serialize().find("post=sum+relu"), std::string::npos);

  // The kill-switch is an A/B lever, not a semantics switch: fused and
  // unfused serving are bit-identical.
  fused.run(input, out_fused);
  ASSERT_EQ(out_fused.shape(), out_plain.shape());
  EXPECT_EQ(0, std::memcmp(out_fused.data(), out_plain.data(),
                           out_fused.size() * sizeof(float)));
}

TEST(InferenceSession, FusedPlanReplaysUnderKillSwitchBitIdentically) {
  // Plan tokens are informational: a fused plan file must load and replay in
  // a fusion-off process (engines applied per conv ordinal, epilogues run as
  // separate passes) and serve the exact same bits. The dtype tokens are the
  // exception — they assume the fused op structure — so the two kill-switches
  // compose: fusion-off replay requires hand-off-off too.
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 1515);
  const Tensor<float> input = random_input(2, 16, 1616);

  SequentialModel model_a = make_miniresnet();
  InferenceSession fused = forced_session(model_a, calib, EngineKind::kLoWinoF4, &pool);
  const std::string text = fused.plan().serialize();
  ASSERT_NE(text.find("post=sum+relu"), std::string::npos);
  const auto loaded = SessionPlan::deserialize(text);
  ASSERT_TRUE(loaded.has_value());

  Tensor<float> out_fused, out_replayed;
  fused.run(input, out_fused);
  {
    ScopedRuntimeOverride off("LOWINO_FUSE_POSTOPS", "0");
    SequentialModel model_b = make_miniresnet();
    PlanOptions replay;
    replay.pool = &pool;
    replay.reuse = &*loaded;
    InferenceSession unfused = InferenceSession::compile(model_b, calib, replay);
    for (const SessionPlan::ConvChoice& c : unfused.plan().convs) {
      EXPECT_FALSE(c.fuse_relu);
      EXPECT_FALSE(c.fuse_sum);
    }
    unfused.run(input, out_replayed);
  }
  ASSERT_EQ(out_fused.shape(), out_replayed.shape());
  EXPECT_EQ(0, std::memcmp(out_fused.data(), out_replayed.data(),
                           out_fused.size() * sizeof(float)));
}

TEST(InferenceSession, FusedRunStaysAllocationFreeAndBitIdenticalToEngineReplay) {
  // The replay runs every conv unfused, with separate ReLU and add+relu
  // passes, so the differential holds with fusion on for an engine with
  // post-op support (fused epilogues) and for one without (the session keeps
  // the element-wise ops).
  ScopedRuntimeOverride u8_off("LOWINO_U8_HANDOFF", "0");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 1313);
  const Tensor<float> input = random_input(2, 16, 1414);
  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kFp32WinoF4}) {
    SequentialModel model = make_miniresnet();
    InferenceSession session = forced_session(model, calib, kind, &pool);
    Tensor<float> out;
    session.run(input, out);
    EXPECT_TRUE(same_bits(out, EngineReplay(model, kind, calib).run(input, &pool)))
        << "engine " << engine_token(kind);
    const std::uint64_t heap_before = heap_alloc_count();
    for (int i = 0; i < 3; ++i) session.run(input, out);
    EXPECT_EQ(heap_alloc_count(), heap_before)
        << "fused serve path allocated (engine " << engine_token(kind) << ')';
  }
}

// --- u8 activation hand-off -------------------------------------------------

TEST(ArenaPlanner, SlotCompatibilityChecksByteFootprint) {
  // The fused-residual in-place alias may only pair values whose byte
  // footprints match exactly — equal element counts with mixed element widths
  // would let the wider value overrun the narrower slot.
  EXPECT_TRUE(arena_slots_compatible(1024, DType::kF32, 1024, DType::kF32));
  EXPECT_TRUE(arena_slots_compatible(1024, DType::kU8, 1024, DType::kU8));
  EXPECT_FALSE(arena_slots_compatible(1024, DType::kU8, 1024, DType::kF32));
  EXPECT_FALSE(arena_slots_compatible(1024, DType::kF32, 1024, DType::kU8));
  // Equal byte footprints across widths are still one slot.
  EXPECT_TRUE(arena_slots_compatible(4096, DType::kU8, 1024, DType::kF32));
}

TEST(SessionPlanFormat, DtypeTokenRoundTrip) {
  SessionPlan p = sample_plan();
  p.convs[0].out_dtype = DType::kU8;
  p.convs[1].fuse_relu = true;
  p.convs[1].fuse_sum = true;
  p.convs[1].in_dtype = DType::kU8;
  p.convs[1].out_dtype = DType::kU8;
  const std::string text = p.serialize();
  EXPECT_NE(text.find(" dtype=f32:u8 |"), std::string::npos);
  EXPECT_NE(text.find(" post=sum+relu dtype=u8:u8 |"), std::string::npos);
  const auto q = SessionPlan::deserialize(text);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 2u);
  EXPECT_EQ(q->convs[0].in_dtype, DType::kF32);
  EXPECT_EQ(q->convs[0].out_dtype, DType::kU8);
  EXPECT_EQ(q->convs[1].in_dtype, DType::kU8);
  EXPECT_EQ(q->convs[1].out_dtype, DType::kU8);
  EXPECT_EQ(q->serialize(), text);
}

TEST(SessionPlanFormat, AllF32LinesStayV2Compatible) {
  // No u8 edge => no dtype token: all-FP32 conv lines are byte-identical to
  // the v2 format, so v2-era plan files keep loading (as all-FP32 plans).
  const std::string text = sample_plan().serialize();
  EXPECT_EQ(text.find("dtype=", text.find('\n')), std::string::npos);
  const std::string v2_line =
      "conv = 3 lowino_f2 25.5 0.0001 1 post=relu | conv3x3(64->64) | d\n";
  const auto q = SessionPlan::deserialize(text + v2_line);
  ASSERT_TRUE(q.has_value());
  ASSERT_EQ(q->convs.size(), 3u);
  EXPECT_EQ(q->convs[2].in_dtype, DType::kF32);
  EXPECT_EQ(q->convs[2].out_dtype, DType::kF32);
}

TEST(SessionPlanFormat, RejectsCorruptDtypeToken) {
  const std::string good = sample_plan().serialize();
  for (const char* bad : {
           "conv = 1 lowino_f4 1 1 1 dtype=u9:f32 | l | d\n",   // unknown dtype
           "conv = 1 lowino_f4 1 1 1 dtype=u8 | l | d\n",       // missing out half
           "conv = 1 lowino_f4 1 1 1 dtype=u8:f32:u8 | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype= | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype=:u8 | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype=u8:u8 junk | l | d\n",
           "conv = 1 lowino_f4 1 1 1 dtype=u8:u8 post=relu | l | d\n",  // wrong order
       }) {
    EXPECT_FALSE(SessionPlan::deserialize(good + bad).has_value()) << bad;
  }
}

TEST(SessionPlanFormat, FuzzV3RoundTripAndDtypeCorruption) {
  std::mt19937 rng(20260808);
  const EngineKind kinds[] = {EngineKind::kInt8Direct, EngineKind::kLoWinoF2,
                              EngineKind::kLoWinoF4, EngineKind::kLoWinoF6};
  for (int iter = 0; iter < 200; ++iter) {
    SessionPlan p;
    p.batch = 1 + rng() % 8;
    p.arena_bytes = rng() % 100000;
    p.naive_bytes = p.arena_bytes + rng() % 100000;
    const std::size_t n = rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
      SessionPlan::ConvChoice c;
      c.op_index = rng() % 32;
      c.layer = "layer" + std::to_string(i);
      c.desc = "B1 C8 K8 H8 W8 r3";
      c.engine = kinds[rng() % 4];
      c.snr_db = static_cast<double>(rng() % 1000) / 10.0;
      c.seconds = static_cast<double>(rng() % 1000) * 1e-6;
      c.met_envelope = rng() % 2 == 0;
      c.fuse_relu = rng() % 2 == 0;
      c.fuse_sum = c.fuse_relu && rng() % 2 == 0;
      c.in_dtype = rng() % 2 == 0 ? DType::kU8 : DType::kF32;
      c.out_dtype = rng() % 2 == 0 ? DType::kU8 : DType::kF32;
      p.convs.push_back(c);
    }
    const std::string text = p.serialize();
    const auto q = SessionPlan::deserialize(text);
    ASSERT_TRUE(q.has_value()) << text;
    EXPECT_EQ(q->serialize(), text);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(q->convs[i].in_dtype, p.convs[i].in_dtype);
      EXPECT_EQ(q->convs[i].out_dtype, p.convs[i].out_dtype);
      EXPECT_EQ(q->convs[i].fuse_relu, p.convs[i].fuse_relu);
      EXPECT_EQ(q->convs[i].fuse_sum, p.convs[i].fuse_sum);
    }
    // Single-character corruption inside a dtype token must either reject the
    // whole plan or leave the text unchanged after a round trip — it must
    // never silently parse to different dtypes.
    const std::size_t at = text.find("dtype=", text.find('\n'));
    if (at != std::string::npos) {
      std::string corrupt = text;
      corrupt[at + 6 + rng() % 6] = "xq9#!"[rng() % 5];
      const auto r = SessionPlan::deserialize(corrupt);
      if (r.has_value()) EXPECT_EQ(r->serialize(), corrupt);
    }
  }
}

TEST(InferenceSession, U8HandoffAssignsEdgesAndStaysInEnvelope) {
  // Pin hand-off ON so the test also passes in the CI kill-switch rerun
  // (LOWINO_U8_HANDOFF=0 in the environment; programmatic overrides beat it).
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 2021);
  const Tensor<float> input = random_input(2, 16, 2122);

  SequentialModel model = make_miniresnet();
  InferenceSession session = forced_session(model, calib, EngineKind::kLoWinoF4, &pool);

  // The type-assignment pass must find u8 edges on MiniResNet (conv chains
  // joined by relu/maxpool passthroughs) and record them in the plan.
  std::size_t u8_outs = 0, u8_ins = 0;
  for (const SessionPlan::ConvChoice& c : session.plan().convs) {
    u8_outs += c.out_dtype == DType::kU8;
    u8_ins += c.in_dtype == DType::kU8;
  }
  EXPECT_GT(u8_outs, 0u);
  EXPECT_GT(u8_ins, 0u);
  const std::string text = session.plan().serialize();
  EXPECT_NE(text.find("dtype=", text.find('\n')), std::string::npos);
  EXPECT_NE(session.plan().summary().find("u8 hand-off"), std::string::npos);

  // Whole-network accuracy: the u8-served output must clear the same SNR
  // floor the per-edge gate enforces, measured against hand-off-off serving.
  Tensor<float> out_u8;
  session.run(input, out_u8);
  Tensor<float> out_f32;
  {
    ScopedRuntimeOverride off("LOWINO_U8_HANDOFF", "0");
    SequentialModel model_f = make_miniresnet();
    InferenceSession plain = forced_session(model_f, calib, EngineKind::kLoWinoF4, &pool);
    for (const SessionPlan::ConvChoice& c : plain.plan().convs) {
      EXPECT_EQ(c.in_dtype, DType::kF32);
      EXPECT_EQ(c.out_dtype, DType::kF32);
    }
    const std::string off_text = plain.plan().serialize();
    EXPECT_EQ(off_text.find("dtype=", off_text.find('\n')), std::string::npos);
    plain.run(input, out_f32);
  }
  ASSERT_EQ(out_u8.shape(), out_f32.shape());
  const QuantError e =
      quantization_error(std::span<const float>(out_f32.data(), out_f32.size()),
                         std::span<const float>(out_u8.data(), out_u8.size()));
  EXPECT_GE(e.signal_to_noise_db, 20.0);
}

TEST(InferenceSession, U8PlanReplayServesBitIdentically) {
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  ThreadPool& pool = ThreadPool::global();
  const Tensor<float> calib = random_input(2, 16, 2323);
  const Tensor<float> input = random_input(2, 16, 2424);

  SequentialModel model_a = make_miniresnet();
  InferenceSession first = forced_session(model_a, calib, EngineKind::kLoWinoF4, &pool);
  const std::string text = first.plan().serialize();
  ASSERT_NE(text.find("dtype=", text.find('\n')), std::string::npos);
  const auto loaded = SessionPlan::deserialize(text);
  ASSERT_TRUE(loaded.has_value());

  // Replay reconstructs the per-value dtypes from the tokens (authoritative)
  // and re-derives the hand-off scales deterministically, so a fresh model
  // with the same weights must serve the exact same bytes.
  SequentialModel model_b = make_miniresnet();
  PlanOptions replay;
  replay.pool = &pool;
  replay.reuse = &*loaded;
  InferenceSession second = InferenceSession::compile(model_b, calib, replay);
  ASSERT_EQ(second.plan().convs.size(), first.plan().convs.size());
  for (std::size_t i = 0; i < first.plan().convs.size(); ++i) {
    EXPECT_EQ(second.plan().convs[i].engine, first.plan().convs[i].engine);
    EXPECT_EQ(second.plan().convs[i].in_dtype, first.plan().convs[i].in_dtype);
    EXPECT_EQ(second.plan().convs[i].out_dtype, first.plan().convs[i].out_dtype);
  }

  Tensor<float> out_a, out_b;
  first.run(input, out_a);
  second.run(input, out_b);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  EXPECT_EQ(0, std::memcmp(out_a.data(), out_b.data(), out_a.size() * sizeof(float)));
}

TEST(InferenceSession, U8ServeStaysAllocationFree) {
  // The zero-allocation steady-state contract holds with u8 edges live (the
  // u8 blocked-layout scratch is pre-warmed at compile time like the rest).
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  SequentialModel model = make_miniresnet();
  const Tensor<float> calib = random_input(2, 16, 2525);
  const Tensor<float> input = random_input(2, 16, 2626);
  ThreadPool& pool = ThreadPool::global();
  InferenceSession session = forced_session(model, calib, EngineKind::kLoWinoF4, &pool);
  std::size_t u8_edges = 0;
  for (const SessionPlan::ConvChoice& c : session.plan().convs) {
    u8_edges += c.out_dtype == DType::kU8;
  }
  ASSERT_GT(u8_edges, 0u);

  Tensor<float> out;
  session.run(input, out);  // warm the caller-owned output tensor
  const std::uint64_t heap_before = heap_alloc_count();
  const std::uint64_t aligned_before = aligned_buffer_alloc_count();
  for (int i = 0; i < 5; ++i) session.run(input, out);
  EXPECT_EQ(heap_alloc_count(), heap_before) << "operator new called on the u8 serve path";
  EXPECT_EQ(aligned_buffer_alloc_count(), aligned_before)
      << "AlignedBuffer (re)allocated on the u8 serve path";
}

TEST(InferenceSession, EmitsOneServeSpanPerOp) {
  SequentialModel model = make_minivgg();
  const Tensor<float> calib = random_input(2, 16, 666);
  InferenceSession session =
      forced_session(model, calib, EngineKind::kLoWinoF2, &ThreadPool::global());
  const Tensor<float> input = random_input(2, 16, 667);
  Tensor<float> out;
  session.run(input, out);  // warm before enabling (no serve spans recorded)

  profiler_reset();
  profiler_set_enabled(true);
  session.run(input, out);
  profiler_set_enabled(false);
  const auto totals = profiler_stage_totals();
  const auto& serve = totals[static_cast<std::size_t>(ProfileStage::kServe)];
  EXPECT_EQ(serve.spans, session.op_count());
  EXPECT_GT(serve.seconds, 0.0);
  profiler_reset();
}

// --- Layout pass --------------------------------------------------------------

using Peer = InferenceSessionTestPeer;

/// The live values a session's ops write, with the op kind that writes them.
std::vector<std::pair<std::size_t, Peer::Op::Kind>> written_values(const InferenceSession& s) {
  std::vector<std::pair<std::size_t, Peer::Op::Kind>> out;
  for (const Peer::Op& op : Peer::ops(s)) out.emplace_back(op.out, op.kind);
  return out;
}

std::size_t reorder_count(const InferenceSession& s) {
  std::size_t n = 0;
  for (const Peer::Op& op : Peer::ops(s)) n += op.kind == Peer::Op::Kind::kReorder;
  return n;
}

// --- The lower and fuse passes, one at a time ------------------------------

using Kind = Peer::Op::Kind;

std::vector<Kind> op_kinds(const InferenceSession& s) {
  std::vector<Kind> kinds;
  for (const Peer::Op& op : Peer::ops(s)) kinds.push_back(op.kind);
  return kinds;
}

/// An FP32 1 -> 8 stem at hw 8 (what random_input(batch, 8, seed) feeds).
std::unique_ptr<ConvLayer> fp32_stem(Rng& rng) {
  auto stem = std::make_unique<ConvLayer>(1, 8, 8, 3, 1, rng);
  stem->set_quantizable(false);
  return stem;
}

InferenceSession lowered_on(SequentialModel& model, const Tensor<float>& calib) {
  return Peer::lowered(model, std::span<const Tensor<float>>(&calib, 1));
}

TEST(LowerPass, ResidualBlockBecomesConvReluConvAddRelu) {
  Rng rng(3);
  SequentialModel model;
  model.add(fp32_stem(rng));
  auto block = std::make_unique<ResidualBlock>(8, 8, rng);
  ResidualBlock& res = *block;
  model.add(std::move(block));
  const InferenceSession s = lowered_on(model, random_input(2, 8, 41));
  EXPECT_EQ(op_kinds(s), (std::vector<Kind>{Kind::kConvFp32, Kind::kConvEngine, Kind::kRelu,
                                            Kind::kConvEngine, Kind::kAddRelu}));
  const std::vector<Peer::Op>& ops = Peer::ops(s);
  const std::size_t x = ops[0].out;  // the block input
  EXPECT_EQ(ops[1].conv, &res.conv1());
  EXPECT_EQ(ops[1].in0, x);
  EXPECT_EQ(ops[2].in0, ops[1].out);
  EXPECT_EQ(ops[3].conv, &res.conv2());
  EXPECT_EQ(ops[3].in0, ops[2].out);
  // The block input stays live across the block, into the add beside
  // conv2's output.
  EXPECT_EQ(ops[4].in0, x);
  EXPECT_EQ(ops[4].in1, ops[3].out);
  EXPECT_EQ(Peer::output_value(s), ops[4].out);
  for (const Peer::Op& op : ops) EXPECT_FALSE(op.fuse_relu || op.fuse_sum) << op.label;
}

TEST(LowerPass, ShapeMismatchNamesTheLayer) {
  Rng rng(4);
  SequentialModel model;
  model.add(fp32_stem(rng));
  auto wide = std::make_unique<ConvLayer>(16, 8, 8, 3, 1, rng);  // the stem emits 8 channels
  const std::string name = wide->name();
  model.add(std::move(wide));
  try {
    lowered_on(model, random_input(2, 8, 42));
    FAIL() << "lowering a shape mismatch must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
  }
}

TEST(LowerPass, MismatchedCalibrationBatchesThrow) {
  Rng rng(5);
  SequentialModel model;
  model.add(fp32_stem(rng));
  for (const Tensor<float>& other : {random_input(2, 16, 44), random_input(4, 8, 45)}) {
    const std::vector<Tensor<float>> batches = {random_input(2, 8, 43), other};
    EXPECT_THROW(Peer::lowered(model, batches), std::invalid_argument);
  }
}

TEST(FusePass, ConvReluFoldsAndTheReluOpIsGone) {
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  Rng rng(6);
  SequentialModel model;
  model.add(fp32_stem(rng));
  model.add(std::make_unique<ConvLayer>(8, 8, 8, 3, 1, rng));
  model.add(std::make_unique<ReluLayer>());
  InferenceSession s = lowered_on(model, random_input(2, 8, 46));
  const std::size_t relu_out = Peer::ops(s)[2].out;
  Peer::fuse(s, PlanOptions{});
  EXPECT_EQ(op_kinds(s), (std::vector<Kind>{Kind::kConvFp32, Kind::kConvEngine}));
  const Peer::Op& conv = Peer::ops(s)[1];
  EXPECT_TRUE(conv.fuse_relu);
  EXPECT_FALSE(conv.fuse_sum);
  EXPECT_EQ(conv.out, relu_out);
  EXPECT_EQ(Peer::output_value(s), relu_out);
  EXPECT_EQ(conv.label, "conv3x3(8->8)+relu");
}

TEST(FusePass, ConvAddReluFoldsWithTheSkipInIn1) {
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  Rng rng(7);
  SequentialModel model;
  model.add(fp32_stem(rng));
  model.add(std::make_unique<ResidualBlock>(8, 8, rng));
  InferenceSession s = lowered_on(model, random_input(2, 8, 47));
  const std::size_t x = Peer::ops(s)[0].out;
  const std::size_t add_out = Peer::ops(s)[4].out;
  const std::size_t mid_act = Peer::ops(s)[2].out;
  Peer::fuse(s, PlanOptions{});
  EXPECT_EQ(op_kinds(s),
            (std::vector<Kind>{Kind::kConvFp32, Kind::kConvEngine, Kind::kConvEngine}));
  const Peer::Op& conv1 = Peer::ops(s)[1];
  EXPECT_TRUE(conv1.fuse_relu);
  EXPECT_FALSE(conv1.fuse_sum);
  EXPECT_EQ(conv1.out, mid_act);
  const Peer::Op& conv2 = Peer::ops(s)[2];
  EXPECT_TRUE(conv2.fuse_relu);
  EXPECT_TRUE(conv2.fuse_sum);
  EXPECT_EQ(conv2.in0, mid_act);
  EXPECT_EQ(conv2.in1, x);
  EXPECT_EQ(conv2.out, add_out);
}

TEST(FusePass, ConvWithTwoReadersStaysUnfused) {
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  Rng rng(8);
  SequentialModel model;
  model.add(fp32_stem(rng));
  model.add(std::make_unique<ConvLayer>(8, 8, 8, 3, 1, rng));
  model.add(std::make_unique<ReluLayer>());
  model.add(std::make_unique<ReluLayer>());
  InferenceSession s = lowered_on(model, random_input(2, 8, 48));
  // A sequential model gives a conv's output one reader; point the second
  // relu at it as well, as a branching graph would.
  std::vector<Peer::Op>& ops = Peer::mutable_ops(s);
  ops[3].in0 = ops[1].out;
  Peer::fuse(s, PlanOptions{});
  EXPECT_EQ(op_kinds(s),
            (std::vector<Kind>{Kind::kConvFp32, Kind::kConvEngine, Kind::kRelu, Kind::kRelu}));
  EXPECT_FALSE(Peer::ops(s)[1].fuse_relu);
  EXPECT_EQ(Peer::ops(s)[2].in0, Peer::ops(s)[1].out);
}

TEST(FusePass, ForcedEngineWithoutPostOpsKeepsTheRelu) {
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  ASSERT_FALSE(engine_caps(EngineKind::kDownscaleF2, ConvDesc{}).post_ops);
  Rng rng(9);
  SequentialModel model;
  model.add(fp32_stem(rng));
  model.add(std::make_unique<ReluLayer>());
  model.add(std::make_unique<ConvLayer>(8, 8, 8, 3, 1, rng));
  model.add(std::make_unique<ReluLayer>());
  InferenceSession s = lowered_on(model, random_input(2, 8, 49));
  PlanOptions options;
  options.forced_engine = EngineKind::kDownscaleF2;
  Peer::fuse(s, options);
  // The FP32 stem still takes its relu; the engine conv cannot.
  EXPECT_EQ(op_kinds(s), (std::vector<Kind>{Kind::kConvFp32, Kind::kConvEngine, Kind::kRelu}));
  EXPECT_TRUE(Peer::ops(s)[0].fuse_relu);
  EXPECT_FALSE(Peer::ops(s)[1].fuse_relu);
}

TEST(FusePass, KillSwitchKeepsTheLoweredOpList) {
  ScopedRuntimeOverride fuse_off("LOWINO_FUSE_POSTOPS", "0");
  Rng rng(10);
  SequentialModel model;
  model.add(fp32_stem(rng));
  model.add(std::make_unique<ReluLayer>());
  model.add(std::make_unique<ConvLayer>(8, 8, 8, 3, 1, rng));
  model.add(std::make_unique<ReluLayer>());
  model.add(std::make_unique<ResidualBlock>(8, 8, rng));
  InferenceSession s = lowered_on(model, random_input(2, 8, 50));
  const auto record = [](const InferenceSession& session) {
    std::vector<std::string> lines;
    for (const Peer::Op& op : Peer::ops(session)) {
      lines.push_back(op.label + " " + std::to_string(op.in0) + " " + std::to_string(op.in1) +
                      " " + std::to_string(op.out) + " " + std::to_string(op.fuse_relu) +
                      std::to_string(op.fuse_sum));
    }
    return lines;
  };
  const std::vector<Kind> kinds = op_kinds(s);
  const std::vector<std::string> lowered = record(s);
  Peer::fuse(s, PlanOptions{});
  EXPECT_EQ(op_kinds(s), kinds);
  EXPECT_EQ(record(s), lowered);
}

/// C = 48 stem, 48 -> 96 and 96 -> 48 Winograd convs: every blocked value
/// has padding lanes.
SequentialModel make_padded_net(std::size_t hw = 8) {
  Rng rng(7);
  SequentialModel m;
  auto stem = std::make_unique<ConvLayer>(1, 48, hw, 3, 1, rng);
  stem->set_quantizable(false);
  m.add(std::move(stem));
  m.add(std::make_unique<ReluLayer>());
  m.add(std::make_unique<ConvLayer>(48, 96, hw, 3, 1, rng));
  m.add(std::make_unique<ReluLayer>());
  m.add(std::make_unique<ConvLayer>(96, 48, hw, 3, 1, rng));
  m.add(std::make_unique<ReluLayer>());
  m.add(std::make_unique<MaxPoolLayer>(48, hw));
  m.add(std::make_unique<DenseLayer>(48 * (hw / 2) * (hw / 2), 10, rng));
  return m;
}

TEST(BlockedLayout, MiniVggIsBlockedUpToOneReorderBeforeDense) {
  for (const auto& [fuse, kind] : {std::pair{"1", EngineKind::kLoWinoF2},
                                   std::pair{"0", EngineKind::kLoWinoF2},
                                   std::pair{"1", EngineKind::kInt8Direct},
                                   std::pair{"0", EngineKind::kInt8Direct}}) {
    ScopedRuntimeOverride fusion("LOWINO_FUSE_POSTOPS", fuse);
    SCOPED_TRACE(engine_token(kind));
    SequentialModel model = make_minivgg();
    InferenceSession s =
        forced_session(model, random_input(2, 16, 31), kind, &ThreadPool::global());
    ASSERT_EQ(reorder_count(s), 1u) << "fuse=" << fuse;
    const auto& ops = Peer::ops(s);
    const auto& values = Peer::values(s);
    // The one reorder feeds dense; every other internal value is blocked.
    const auto dense = std::find_if(ops.begin(), ops.end(), [](const Peer::Op& op) {
      return op.kind == Peer::Op::Kind::kDense;
    });
    ASSERT_NE(dense, ops.end());
    ASSERT_NE(dense, ops.begin());
    EXPECT_EQ(std::prev(dense)->kind, Peer::Op::Kind::kReorder);
    EXPECT_EQ(values[dense->in0].layout, ActLayout::kNchw);
    for (const auto& [v, kind] : written_values(s)) {
      if (v == dense->in0 || v == Peer::output_value(s)) continue;
      EXPECT_EQ(values[v].layout, ActLayout::kBlocked64) << "value " << v << " fuse=" << fuse;
    }
    for (const SessionPlan::ConvChoice& c : s.plan().convs) {
      EXPECT_EQ(c.in_layout, ActLayout::kBlocked64);
      EXPECT_EQ(c.out_layout, ActLayout::kBlocked64);
    }
    ASSERT_EQ(s.plan().reorders.size(), 1u);
    EXPECT_EQ(s.plan().reorders[0].to, ActLayout::kNchw);
    EXPECT_EQ(s.plan().reorders[0].bytes, 2u * 128 * 4 * 4 * sizeof(float));
    const std::string summary = s.plan().summary();
    EXPECT_NE(summary.find("(layout blocked64:blocked64)"), std::string::npos) << summary;
    EXPECT_NE(summary.find("reorder to nchw before dense"), std::string::npos) << summary;
    // Layouts are derived, never serialized.
    EXPECT_EQ(s.plan().serialize().find("layout"), std::string::npos);
  }
}

TEST(BlockedLayout, MiniResNetKeepsBothResidualsBlocked) {
  for (const EngineKind kind : {EngineKind::kLoWinoF4, EngineKind::kInt8Direct}) {
    SequentialModel model = make_miniresnet();
    InferenceSession s =
        forced_session(model, random_input(2, 16, 37), kind, &ThreadPool::global());
    EXPECT_EQ(reorder_count(s), 1u) << engine_token(kind);
    for (const Peer::Op& op : Peer::ops(s)) {
      if (op.fuse_sum) {
        EXPECT_EQ(Peer::values(s)[op.in1].layout, ActLayout::kBlocked64) << op.label;
      }
    }
  }
}

/// A session over the {int8_dw, int8_direct} engines (the only ones that
/// carry a depthwise-separable net's convs).
InferenceSession dedicated_session(SequentialModel& model, const Tensor<float>& calib) {
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.candidates = {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct};
  options.seconds_per_candidate = 0.002;
  return InferenceSession::compile(model, calib, options);
}

TEST(BlockedLayout, MiniMobileNetIsBlockedUpToOneReorderBeforeDense) {
  // int8_dw and int8_direct are blocked-I/O engines: the FP32 stem writes
  // blocked, both maxpools run on 64 lanes, and one reorder feeds dense.
  for (const char* fuse : {"1", "0"}) {
    ScopedRuntimeOverride fusion("LOWINO_FUSE_POSTOPS", fuse);
    SequentialModel model = make_minimobilenet();
    InferenceSession s = dedicated_session(model, random_input(2, 16, 41));
    ASSERT_EQ(reorder_count(s), 1u) << "fuse=" << fuse;
    const auto& ops = Peer::ops(s);
    const auto& values = Peer::values(s);
    const auto dense = std::find_if(ops.begin(), ops.end(), [](const Peer::Op& op) {
      return op.kind == Peer::Op::Kind::kDense;
    });
    ASSERT_NE(dense, ops.end());
    ASSERT_NE(dense, ops.begin());
    EXPECT_EQ(std::prev(dense)->kind, Peer::Op::Kind::kReorder);
    EXPECT_EQ(values[dense->in0].layout, ActLayout::kNchw);
    for (const auto& [v, kind] : written_values(s)) {
      if (v == dense->in0 || v == Peer::output_value(s)) continue;
      EXPECT_EQ(values[v].layout, ActLayout::kBlocked64) << "value " << v << " fuse=" << fuse;
    }
    ASSERT_EQ(s.plan().convs.size(), 4u);
    for (const SessionPlan::ConvChoice& c : s.plan().convs) {
      EXPECT_EQ(c.in_layout, ActLayout::kBlocked64) << c.layer;
      EXPECT_EQ(c.out_layout, ActLayout::kBlocked64) << c.layer;
    }
    ASSERT_EQ(s.plan().reorders.size(), 1u);
    EXPECT_EQ(s.plan().reorders[0].to, ActLayout::kNchw);
    EXPECT_EQ(s.plan().reorders[0].bytes, 2u * 128 * 4 * 4 * sizeof(float));
    const std::string summary = s.plan().summary();
    EXPECT_NE(summary.find("(layout blocked64:blocked64)"), std::string::npos) << summary;
    EXPECT_NE(summary.find("reorder to nchw before dense"), std::string::npos) << summary;
    EXPECT_EQ(s.plan().serialize().find("layout"), std::string::npos);
  }
}

/// Stem 1 -> 24, depthwise 24 and pointwise 24 -> 40: the depthwise-separable
/// twin of make_padded_net, every blocked value with padding lanes.
SequentialModel make_padded_separable_net(std::size_t hw = 8) {
  Rng rng(11);
  SequentialModel m;
  auto stem = std::make_unique<ConvLayer>(1, 24, hw, 3, 1, rng);
  stem->set_quantizable(false);
  m.add(std::move(stem));
  m.add(std::make_unique<ReluLayer>());
  m.add(std::make_unique<ConvLayer>(24, 24, hw, 3, 1, rng, /*groups=*/24));
  m.add(std::make_unique<ReluLayer>());
  m.add(std::make_unique<ConvLayer>(24, 40, hw, 1, 0, rng));
  m.add(std::make_unique<ReluLayer>());
  m.add(std::make_unique<MaxPoolLayer>(40, hw));
  m.add(std::make_unique<DenseLayer>(40 * (hw / 2) * (hw / 2), 10, rng));
  return m;
}

TEST(BlockedLayout, PaddedLanesHoldQuantizedZero) {
  // The 3x3 padded net under forced LoWino and forced int8_direct; the
  // separable one under the dedicated pair.
  for (const char* net : {"winograd", "int8_direct", "separable"}) {
    for (const char* fuse : {"1", "0"}) {
      for (const char* u8 : {"1", "0"}) {
        ScopedRuntimeOverride fusion("LOWINO_FUSE_POSTOPS", fuse);
        ScopedRuntimeOverride handoff("LOWINO_U8_HANDOFF", u8);
        SCOPED_TRACE(testing::Message() << net << " fuse=" << fuse << " u8=" << u8);
        const bool separable = std::string(net) == "separable";
        const EngineKind kind = std::string(net) == "winograd" ? EngineKind::kLoWinoF2
                                                                : EngineKind::kInt8Direct;
        SequentialModel model = separable ? make_padded_separable_net() : make_padded_net();
        InferenceSession s =
            separable ? dedicated_session(model, random_input(2, 8, 43))
                      : forced_session(model, random_input(2, 8, 43), kind, &ThreadPool::global());
        std::size_t checked = 0, u8_checked = 0;
        Tensor<float> out;
        Peer::run_observed(s, random_input(2, 8, 44), out,
                           [&](std::size_t v, const std::uint8_t* data) {
          const Peer::Value& val = Peer::values(s)[v];
          if (val.layout != ActLayout::kBlocked64) return;
          const std::size_t c = val.shape[1];
          ASSERT_NE(c % kChanBlock, 0u);
          const BlockedActLayout layout(val.shape[0], c, val.shape[2], val.shape[3]);
          for (std::size_t b = 0; b < val.shape[0]; ++b) {
            for (std::size_t y = 0; y < val.shape[2]; ++y) {
              for (std::size_t x = 0; x < val.shape[3]; ++x) {
                for (std::size_t ci = c % kChanBlock; ci < kChanBlock; ++ci) {
                  const std::size_t at = layout.offset(b, layout.chan_blocks - 1, y, x) + ci;
                  if (val.dtype == DType::kU8) {
                    ASSERT_EQ(data[at], 128) << "value " << v;
                  } else {
                    ASSERT_EQ(reinterpret_cast<const float*>(data)[at], 0.0f) << "value " << v;
                  }
                }
              }
            }
          }
          ++checked;
          u8_checked += val.dtype == DType::kU8;
        });
        EXPECT_GE(checked, 4u);  // stem, both convs, maxpool (+ unfused relus)
        if (std::string(u8) == "1") EXPECT_GT(u8_checked, 0u);
        EXPECT_EQ(reorder_count(s), 1u);
      }
    }
  }
}

TEST(BlockedLayout, ServesLikeAnNchwReplayOfThePlan) {
  // The blocked session against the same plan replayed op by op through the
  // NCHW engine entry points: bit-identical logits, for every zoo net and the
  // padded net, with each kill-switch flipped.
  ThreadPool& pool = ThreadPool::global();
  struct Net {
    const char* name;
    SequentialModel (*make)();
    std::size_t hw;
    EngineKind kind;
  };
  const Net nets[] = {
      {"vgg", [] { return make_minivgg(); }, 16, EngineKind::kLoWinoF2},
      {"resnet", [] { return make_miniresnet(); }, 16, EngineKind::kLoWinoF4},
      {"mobilenet", [] { return make_minimobilenet(); }, 16, EngineKind::kInt8Depthwise},
      {"padded", [] { return make_padded_net(); }, 8, EngineKind::kLoWinoF4},
      {"vgg", [] { return make_minivgg(); }, 16, EngineKind::kInt8Direct},
      {"resnet", [] { return make_miniresnet(); }, 16, EngineKind::kInt8Direct},
      {"padded", [] { return make_padded_net(); }, 8, EngineKind::kInt8Direct},
  };
  for (const auto& [fuse, u8] : {std::pair{"1", "1"}, std::pair{"0", "1"}, std::pair{"1", "0"}}) {
    ScopedRuntimeOverride fusion("LOWINO_FUSE_POSTOPS", fuse);
    ScopedRuntimeOverride handoff("LOWINO_U8_HANDOFF", u8);
    for (const Net& net : nets) {
      SCOPED_TRACE(testing::Message() << net.name << " " << engine_token(net.kind)
                                      << " fuse=" << fuse << " u8=" << u8);
      SequentialModel model = net.make();
      PlanOptions options;
      options.pool = &pool;
      options.seconds_per_candidate = 0.002;
      if (net.kind == EngineKind::kInt8Depthwise) {
        options.candidates = {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct};
      } else {
        options.forced_engine = net.kind;
      }
      InferenceSession s =
          InferenceSession::compile(model, random_input(2, net.hw, 47), options);
      const Tensor<float> input = random_input(2, net.hw, 48);
      Tensor<float> out;
      s.run(input, out);
      const Tensor<float> replay = Peer::nchw_replay(s, input);
      ASSERT_EQ(out.shape(), replay.shape());
      EXPECT_EQ(0, std::memcmp(out.data(), replay.data(), out.size() * sizeof(float)));
    }
  }
}

TEST(BlockedLayout, BlockedServeStaysAllocationFree) {
  SequentialModel model = make_padded_net();
  InferenceSession session = forced_session(model, random_input(2, 8, 53), EngineKind::kLoWinoF4,
                                            &ThreadPool::global());
  const Tensor<float> input = random_input(2, 8, 54);
  Tensor<float> out;
  session.run(input, out);
  const std::uint64_t heap_before = heap_alloc_count();
  const std::uint64_t aligned_before = aligned_buffer_alloc_count();
  for (int i = 0; i < 5; ++i) session.run(input, out);
  EXPECT_EQ(heap_alloc_count(), heap_before);
  EXPECT_EQ(aligned_buffer_alloc_count(), aligned_before);
}

// --- FP32 stems on a u8 edge ---------------------------------------------------

/// The zoo nets with the engines the benchmark serves them by (MobileNet's
/// dedicated pair leaves one eligible engine per layer).
struct ZooNet {
  const char* name;
  SequentialModel (*make)();
  PlanOptions options;
};

std::vector<ZooNet> zoo_nets() {
  PlanOptions direct, dedicated;
  direct.forced_engine = EngineKind::kInt8Direct;
  dedicated.candidates = {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct};
  for (PlanOptions* o : {&direct, &dedicated}) {
    o->pool = &ThreadPool::global();
    o->seconds_per_candidate = 0.002;
  }
  return {{"vgg", [] { return make_minivgg(); }, direct},
          {"resnet", [] { return make_miniresnet(); }, direct},
          {"mobilenet", [] { return make_minimobilenet(); }, dedicated}};
}

TEST(PlanReplay, PreStemU8PlanServesAsBefore) {
  // A v3 plan from before FP32 convs could emit u8 records conv 0 as
  // dtype=f32:...; it replays with an FP32 stem edge — the same decisions and
  // arena as then, and served bytes equal to the plan's NCHW replay, whose
  // stem is the im2col + GEMM path those plans were served by.
  ScopedRuntimeOverride fuse_on("LOWINO_FUSE_POSTOPS", "1");
  ScopedRuntimeOverride u8_on("LOWINO_U8_HANDOFF", "1");
  const Tensor<float> calib = random_input(2, 16, 61);
  const Tensor<float> input = random_input(2, 16, 62);
  for (const ZooNet& net : zoo_nets()) {
    SCOPED_TRACE(net.name);
    SequentialModel model = net.make();
    SessionPlan fresh = InferenceSession::compile(model, calib, net.options).plan();
    ASSERT_EQ(fresh.convs[0].in_dtype, DType::kU8);
    fresh.convs[0].in_dtype = DType::kF32;
    const std::string old_text = fresh.serialize();
    ASSERT_NE(old_text.find(" dtype=f32:"), std::string::npos);
    const std::optional<SessionPlan> old_plan = SessionPlan::deserialize(old_text);
    ASSERT_TRUE(old_plan.has_value());

    SequentialModel again = net.make();
    PlanOptions replay;
    replay.pool = &ThreadPool::global();
    replay.reuse = &*old_plan;
    InferenceSession s = InferenceSession::compile(again, calib, replay);
    EXPECT_EQ(s.plan().convs[0].in_dtype, DType::kF32);
    const auto& ops = Peer::ops(s);
    const auto stem = std::find_if(ops.begin(), ops.end(), [](const Peer::Op& op) {
      return op.kind == Peer::Op::Kind::kConvFp32;
    });
    ASSERT_NE(stem, ops.end());
    EXPECT_EQ(Peer::values(s)[stem->out].dtype, DType::kF32);
    Tensor<float> out;
    s.run(input, out);
    EXPECT_TRUE(same_bits(out, Peer::nchw_replay(s, input)));
  }
}

TEST(InferenceSession, NonFinitePixelsStayInTheirImage) {
  // NaN, +-Inf and +-FLT_MAX pixels in image 0 of a batch: images 1 and 2
  // serve the bytes of a clean batch. With the hand-off on, image 0's logits
  // stay finite too: the stem's requant stores NaN as 128 and saturates the
  // rest. With it off, FP32 edges (ResNet's skip connection) may carry a
  // non-finite value to image 0's logits, and only to them.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max()};
  for (const char* u8 : {"1", "0"}) {
    ScopedRuntimeOverride handoff("LOWINO_U8_HANDOFF", u8);
    for (const ZooNet& net : zoo_nets()) {
      SCOPED_TRACE(testing::Message() << net.name << " u8=" << u8);
      SequentialModel model = net.make();
      InferenceSession s = InferenceSession::compile(model, random_input(3, 16, 71), net.options);
      const Tensor<float> clean = random_input(3, 16, 72);
      Tensor<float> want, got;
      s.run(clean, want);
      const std::size_t row = want.size() / 3;
      for (const float special : specials) {
        SCOPED_TRACE(special);
        Tensor<float> hostile = clean;
        for (std::size_t i = 0; i < hostile.size() / 3; i += 3) hostile.data()[i] = special;
        s.run(hostile, got);
        EXPECT_EQ(0, std::memcmp(got.data() + row, want.data() + row, 2 * row * sizeof(float)));
        if (std::string(u8) == "0") continue;
        for (std::size_t i = 0; i < row; ++i) ASSERT_TRUE(std::isfinite(got.data()[i])) << i;
      }
    }
  }
}

// --- Prefix-batch execution ---------------------------------------------------

/// The plans each zoo net is checked under: every forced engine the net can
/// build, the dedicated pair and the default shoot-out.
struct PrefixPlan {
  const char* name;
  std::optional<EngineKind> forced;
  std::vector<EngineKind> candidates;  ///< empty: the default set
};

std::vector<PrefixPlan> prefix_plans(bool depthwise_net) {
  if (depthwise_net) {
    return {{"int8_dw+int8_direct", std::nullopt,
             {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct}},
            {"shoot-out", std::nullopt, {}}};
  }
  return {{"int8_direct", EngineKind::kInt8Direct, {}},
          {"lowino_f2", EngineKind::kLoWinoF2, {}},
          {"lowino_f4", EngineKind::kLoWinoF4, {}},
          {"lowino_f6", EngineKind::kLoWinoF6, {}},
          {"shoot-out", std::nullopt, {}}};
}

InferenceSession prefix_session(SequentialModel& model, const Tensor<float>& calib,
                                const PrefixPlan& plan) {
  PlanOptions options;
  options.pool = &ThreadPool::global();
  options.forced_engine = plan.forced;
  options.candidates = plan.candidates;
  options.seconds_per_candidate = 0.002;
  return InferenceSession::compile(model, calib, options);
}

constexpr float kCanary = -1234.5f;

/// run(input, out, n) for n = 1..B against the first n rows of a full run,
/// byte for byte, with the rows past n keeping a canary. A full run on other
/// data goes first, so every arena lane past the prefix holds stale values
/// that differ from `input`'s.
void expect_prefix_lanes_match_full_run(InferenceSession& s, const Tensor<float>& input,
                                        const Tensor<float>& other) {
  Tensor<float> full, out;
  s.run(input, full);
  s.run(other, out);
  const std::size_t B = s.batch(), row = full.size() / B;
  for (std::size_t n = 1; n <= B; ++n) {
    std::fill(out.data(), out.data() + out.size(), kCanary);
    s.run(input, out, n);
    EXPECT_EQ(0, std::memcmp(out.data(), full.data(), n * row * sizeof(float))) << "n=" << n;
    EXPECT_TRUE(std::all_of(out.data() + n * row, out.data() + out.size(),
                            [](float v) { return v == kCanary; }))
        << "rows past the prefix were written, n=" << n;
  }
  EXPECT_THROW(s.run(input, out, 0), std::invalid_argument);
  EXPECT_THROW(s.run(input, out, B + 1), std::invalid_argument);
}

TEST(PrefixRun, SessionLanesMatchFullRun) {
  constexpr std::size_t kBatch = 4, kHw = 16;
  const Tensor<float> calib = random_input(kBatch, kHw, 71);
  const Tensor<float> input = random_input(kBatch, kHw, 72);
  const Tensor<float> other = random_input(kBatch, kHw, 73);
  const struct {
    const char* name;
    SequentialModel (*make)(std::size_t, std::size_t, std::uint64_t);
    bool depthwise;
  } nets[] = {{"minivgg", make_minivgg, false},
              {"miniresnet", make_miniresnet, false},
              {"minimobilenet", make_minimobilenet, true}};
  for (const auto& net : nets) {
    SequentialModel model = net.make(kHw, 10, 42);
    for (const char* fuse : {"1", "0"}) {
      for (const char* u8 : {"1", "0"}) {
        ScopedRuntimeOverride fusion("LOWINO_FUSE_POSTOPS", fuse);
        ScopedRuntimeOverride handoff("LOWINO_U8_HANDOFF", u8);
        for (const PrefixPlan& plan : prefix_plans(net.depthwise)) {
          SCOPED_TRACE(testing::Message() << net.name << " " << plan.name << " fuse=" << fuse
                                          << " u8=" << u8);
          InferenceSession s = prefix_session(model, calib, plan);
          expect_prefix_lanes_match_full_run(s, input, other);
        }
      }
    }
  }
  // Batch 7: the full run's dense GEMM takes a 6-row register block plus a
  // 1-row tail, while prefixes below 6 take 1-row blocks only.
  SequentialModel model = make_miniresnet(kHw);
  InferenceSession s =
      prefix_session(model, random_input(7, kHw, 76), {"lowino_f4", EngineKind::kLoWinoF4, {}});
  expect_prefix_lanes_match_full_run(s, random_input(7, kHw, 77), random_input(7, kHw, 78));
}

TEST(PrefixRun, StaysAllocationFree) {
  SequentialModel model = make_miniresnet();
  const Tensor<float> calib = random_input(4, 16, 74);
  const Tensor<float> input = random_input(4, 16, 75);
  InferenceSession s = prefix_session(model, calib, {"shoot-out", std::nullopt, {}});
  Tensor<float> out;
  s.run(input, out);  // warm the caller-owned output tensor
  const std::uint64_t heap_before = heap_alloc_count();
  const std::uint64_t aligned_before = aligned_buffer_alloc_count();
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t n = 1; n <= s.batch(); ++n) s.run(input, out, n);
  }
  EXPECT_EQ(heap_alloc_count(), heap_before) << "operator new called on a prefix run";
  EXPECT_EQ(aligned_buffer_alloc_count(), aligned_before)
      << "AlignedBuffer (re)allocated on a prefix run";
}

}  // namespace
}  // namespace lowino
