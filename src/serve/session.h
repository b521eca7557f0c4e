// InferenceSession: the serving layer, separating *plan time* from *run
// time* (the API counterpart of the paper's "tune ahead of time, serve from
// wisdom" workflow, extended from one convolution to a whole network).
//
// Plan time — InferenceSession::compile(model, calib_batches, options) runs
// six passes, in order, over one flat op list. The calibration batches share
// one shape, whose batch dimension fixes the session batch; every
// calibration statistic (engine calibration, u8 edge histograms) sees every
// batch, while every measurement that ranks or gates (shoot-out SNR and
// time, the edge SNR gate) and the pre-warm runs use the first batch only:
//   1. lower: the SequentialModel becomes convolutions, ReLU, maxpool, dense
//      and residual-add ops (residual blocks are flattened so the skip
//      connection becomes a real multi-buffer live range). A replayed plan
//      (PlanOptions::reuse) is checked against this list here, once: batch,
//      convolution count and each descriptor;
//   2. fuse: conv->relu and conv->add+relu chains collapse into the
//      convolution's single output pass (PostOps epilogue) when an allowed
//      engine supports it, killing the element-wise passes. Gated by the
//      LOWINO_FUSE_POSTOPS kill-switch (default on; set 0 to A/B);
//   3. select_engines: one FP32 pass per calibration batch captures every
//      convolution's input and reference output; then each quantizable
//      convolution gets forced_engine, else the replayed plan's engine, else
//      a measured shoot-out across the eligible candidates gated by an
//      accuracy envelope (minimum signal-to-noise vs the FP32 reference):
//      SNR first, then timing of only the candidates that can win
//      (run_shootout), blocked-I/O kinds through run_blocked, the entry
//      point the session serves them by. One helper owns that precedence for
//      both fuse and select_engines;
//   4. assign_dtypes: the u8 activation hand-off per edge. One seed rule and
//      one legality fixpoint decide which edges may be u8 — engine convs and
//      ungrouped FP32 convs (the stems) emit u8, ReLU and maxpool pass it
//      through; a fresh compile adds the envelope gate, a replay must
//      reproduce the plan's dtype tokens under the same rules, an FP32 conv's
//      edge following its first engine reader's in_dtype token
//      (LOWINO_U8_HANDOFF=0 skips the pass);
//   5. assign_layouts: NCHW or 64-channel blocked per value, by one rule
//      derived from the ops and engines (EngineCaps::blocked_io) —
//      blocked-I/O engines chain on blocked arena buffers with no relayout —
//      plus one explicit, dtype-preserving reorder op on every edge whose
//      two ends disagree. Nothing is serialized: a replay re-derives it;
//   6. plan_arena: liveness over the final op list, then every intermediate
//      activation in one arena via the planner (serve/arena.h); planned vs
//      naive peak bytes are reported in the SessionPlan.
// Non-quantizable convolutions (grouped ones included) run the shared FP32
// kernel with session-owned scratch: conv_f32_forward on NCHW, and for a
// blocked output conv_f32_blocked, whose epilogue may requantize to u8.
// compile() finally pre-warms every scratch buffer on the bound ThreadPool.
//
// Run time — session.run(input, output): executes the op list against the
// arena. Steady-state runs perform zero heap allocations (asserted by the
// malloc-counting harness in tests/test_serve.cc) and record one
// ProfileStage::kServe span per op (engine-internal stages nest inside, so
// LOWINO_PROFILE=1 yields a per-layer, per-stage breakdown).
// session.run(input, output, images) is a prefix-batch run: every op bounds
// its work to images [0, images) of the compiled batch — convolution
// engines run images x tiles_per_image tiles, element-wise ops, pooling,
// the dense GEMM and relayouts touch only those images — so a partial batch
// costs its filled size, not the compiled one. The prefix rows are
// bit-identical to a full run's (every op is per-image independent and its
// per-image arithmetic does not depend on the image count); the plan, the
// arena and the engines are the same objects either way.
//
// Threading contract: distinct sessions are thread-compatible — every
// mutable buffer (engines, arena, scratch) is session-owned, and the only
// model state compile() and run() touch is read-only (weights/bias spans). The
// model must outlive its sessions and must not be trained between compile()
// and run(). A single session object is not reentrant.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "direct/direct_f32.h"
#include "nn/engines.h"
#include "nn/graph.h"
#include "quant/quantize.h"
#include "serve/arena.h"
#include "tensor/dtype.h"
#include "tensor/layout.h"
#include "tensor/tensor.h"

namespace lowino {

class ThreadPool;
struct SessionPlan;

struct PlanOptions {
  /// Forces this engine on every quantizable convolution (no shoot-out, no
  /// envelope). Throws at compile time if any layer cannot build it.
  std::optional<EngineKind> forced_engine;
  /// Candidate engines for the shoot-out; empty means the default quantized
  /// set {int8_direct, lowino_f2, lowino_f4, lowino_f6, int8_dw}.
  std::vector<EngineKind> candidates;
  /// Accuracy envelope: a quantized candidate must reach this
  /// signal-to-noise (dB) vs the FP32 reference to be eligible. When no
  /// candidate passes, the highest-SNR candidate wins anyway (a plan always
  /// exists) and the miss is visible in the SessionPlan record.
  double min_snr_db = 20.0;
  /// Measurement budget per timed candidate in the plan-time shoot-out.
  double seconds_per_candidate = 0.02;
  /// Pool bound into the session (plan-time measurements and every run).
  /// Null binds ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Replays a previously compiled (possibly deserialized) plan's engine
  /// choices instead of measuring. Throws if the plan does not match the
  /// model/batch. forced_engine beats it.
  const SessionPlan* reuse = nullptr;
};

/// One candidate of a plan-time engine shoot-out, as measured.
struct ShootoutCandidate {
  EngineKind engine = EngineKind::kLoWinoF4;
  double snr_db = 0.0;        ///< vs the FP32 reference
  bool met_envelope = false;  ///< snr_db >= min_snr_db (always true unquantized)
  bool timed = false;         ///< false: the envelope gate skipped its timing
  double seconds = 0.0;       ///< plan-time median latency (timed only)
};

/// The callbacks one shoot-out drives, over at most two engines: the leader
/// and the candidate under test.
struct ShootoutHooks {
  /// Builds `kind` as the candidate under test and measures its SNR
  /// (engine, snr_db and met_envelope filled); nullopt when the kind cannot
  /// carry the op.
  std::function<std::optional<ShootoutCandidate>(EngineKind)> measure;
  /// Median seconds of the candidate under test, or of the leader.
  std::function<double(bool leader)> time;
  /// The candidate under test becomes the leader.
  std::function<void()> promote;
};

struct ShootoutResult {
  std::vector<ShootoutCandidate> candidates;  ///< every eligible kind, in order
  std::optional<std::size_t> winner;          ///< index into candidates
};

/// One shoot-out over `kinds`, in order: SNR first, then timing. The ranking
/// rule: a candidate that meets the accuracy envelope beats one that does
/// not; two that meet rank by time, two that miss by SNR; ties keep the
/// earlier candidate. So a candidate is timed only when it meets the
/// envelope, since one that misses can win only if none meets it; then the
/// highest SNR wins and only that winner is timed, so the winner always
/// carries seconds.
ShootoutResult run_shootout(std::span<const EngineKind> kinds, const ShootoutHooks& hooks);

/// The serializable record of one compile(): what was chosen and why, plus
/// the memory-planning outcome. Round-trips through serialize()/deserialize()
/// so a tuned plan can be saved, shipped and replayed with PlanOptions::reuse
/// — the one saved record of per-layer decisions.
struct SessionPlan {
  struct ConvChoice {
    std::size_t op_index = 0;  ///< position in the lowered op list
    std::string layer;         ///< layer display name
    std::string desc;          ///< ConvDesc::to_string() at the plan batch
    EngineKind engine = EngineKind::kLoWinoF4;
    double snr_db = 0.0;       ///< measured vs FP32 reference (0 on replay)
    double seconds = 0.0;      ///< plan-time median latency (0 on replay)
    bool met_envelope = true;  ///< false: best-effort pick below min_snr_db
    // Post-op fusion outcome: the element-wise ops the compiler folded into
    // this convolution's output pass (serialized as a "post=" token).
    // Informational on replay — fusion is re-decided from the model
    // structure, the engine capability and the LOWINO_FUSE_POSTOPS switch,
    // which is safe because fused and unfused execution are bit-identical.
    bool fuse_relu = false;
    bool fuse_sum = false;
    // u8 activation hand-off outcome of the type-assignment pass (serialized
    // as a "dtype=in:out" token, omitted when both are FP32 so all-FP32 conv
    // lines stay byte-identical to the v2 format). On replay the tokens are
    // authoritative: the compiler reconstructs the per-value dtypes from them
    // instead of re-running the SNR gate, and rejects the plan when a fresh
    // compile's seed and legality rules could not have produced them.
    DType in_dtype = DType::kF32;
    DType out_dtype = DType::kF32;
    // Layout-pass outcome (summary only, never serialized: layouts are
    // derived from the ops and engines, so a replay reproduces them).
    ActLayout in_layout = ActLayout::kNchw;
    ActLayout out_layout = ActLayout::kNchw;
    // Every shoot-out candidate, in candidate order (summary only, never
    // serialized; empty when the engine was forced or replayed).
    std::vector<ShootoutCandidate> candidates;
  };

  /// One explicit relayout the layout pass put on an edge (summary only).
  struct Reorder {
    std::string consumer;  ///< label of the op that reads the relayouted value
    ActLayout to = ActLayout::kNchw;
    std::size_t bytes = 0;  ///< bytes moved per run
  };

  std::size_t batch = 0;
  std::vector<ConvChoice> convs;
  std::vector<Reorder> reorders;  ///< not serialized (re-derived on replay)
  std::size_t arena_bytes = 0;  ///< planned arena peak
  /// One buffer per model activation; the layout pass's reorder copies are
  /// arena-planned but are not part of this baseline.
  std::size_t naive_bytes = 0;

  /// Human-readable multi-line report (engine, dtypes and layouts per layer,
  /// each shoot-out candidate, the reorder ops with their bytes, arena
  /// savings).
  std::string summary() const;

  /// Plain-text format ("# lowino-plan v3" header; conv lines carry an
  /// optional "post=relu|sum|sum+relu|none" head token recording fused
  /// epilogues and an optional "dtype=<in>:<out>" token recording u8
  /// hand-off dtypes — both absent means unfused / all-FP32, so v1 and v2
  /// files still load). Strict parser: any malformed line (including a
  /// corrupt post or dtype token) rejects the whole plan (nullopt) — a
  /// corrupt plan file must not silently serve with default engines or
  /// dtypes.
  std::string serialize() const;
  static std::optional<SessionPlan> deserialize(const std::string& text);
  bool save(const std::string& path) const;
  static std::optional<SessionPlan> load(const std::string& path);
};

class InferenceSession {
 public:
  /// Plans and builds a session. `calib_batches` are representative input
  /// batches (rank-4 NCHW, all of one shape); their batch dimension fixes the
  /// session batch, so calibrating on more images than one serving batch
  /// holds means passing more batches. Engine calibration and u8 edge
  /// histograms see every batch; the shoot-out's SNR and time, the edge SNR
  /// gate and the pre-warm runs use the first. Throws std::invalid_argument
  /// on unsupported models/shapes (and on no or mismatched batches) and
  /// std::logic_error never (lifecycle ordering is the session's job).
  static InferenceSession compile(SequentialModel& model,
                                  std::span<const Tensor<float>> calib_batches,
                                  const PlanOptions& options = {});
  /// compile() on one calibration batch.
  static InferenceSession compile(SequentialModel& model, const Tensor<float>& calib_input,
                                  const PlanOptions& options = {});

  /// Executes one batch. `input` must have the compile-time shape; `output`
  /// is reshaped to the network output. Zero heap allocations in steady
  /// state (everything was pre-warmed at compile time; the caller's output
  /// tensor grows once on its first use). Not reentrant.
  void run(const Tensor<float>& input, Tensor<float>& output) { run(input, output, batch()); }

  /// Prefix-batch run: computes only images [0, images) of `input` (still a
  /// whole compile-time-shaped tensor) at about images / batch() of a full
  /// run's cost. The first `images` output rows are bit-identical to a full
  /// run's; the rows past them are not part of the result (the session's own
  /// ops and the quantized engines leave them untouched; a forced comparator
  /// baseline may still compute the whole batch). Throws
  /// std::invalid_argument unless 1 <= images <= batch().
  void run(const Tensor<float>& input, Tensor<float>& output, std::size_t images);

  const SessionPlan& plan() const { return plan_; }
  std::size_t batch() const { return plan_.batch; }
  std::size_t op_count() const { return ops_.size(); }
  ThreadPool& pool() const { return *pool_; }

  InferenceSession(InferenceSession&&) noexcept = default;
  InferenceSession& operator=(InferenceSession&&) noexcept = default;

 private:
  InferenceSession() = default;

  struct Op {
    enum class Kind { kConvEngine, kConvFp32, kRelu, kMaxPool, kDense, kAddRelu, kReorder };
    Kind kind = Kind::kRelu;
    std::size_t in0 = 0;   ///< value id
    std::size_t in1 = 0;   ///< second input (kAddRelu; residual when fuse_sum)
    std::size_t out = 0;   ///< output value id
    // Fused epilogue of a conv op (set by the compiler's post-op fusion pass
    // when a kRelu / kAddRelu successor was folded into the output pass).
    bool fuse_relu = false;
    bool fuse_sum = false;  ///< residual value id rides in in1
    ConvLayer* conv = nullptr;    ///< kConvEngine / kConvFp32
    DenseLayer* dense = nullptr;  ///< kDense
    std::size_t channels = 0;     ///< kMaxPool
    std::size_t hw = 0;           ///< kMaxPool input spatial size
    std::unique_ptr<ConvEngine> engine;  ///< kConvEngine (session-owned)
    // Session-owned FP32 conv scratch (kConvFp32): sessions never share
    // mutable state, even when compiled from the same model.
    ConvF32Scratch fp32;
    std::string label;
  };

  /// One lowered value (activation). Values 0 and `output_value_` live in
  /// the caller's tensors; everything else lives in the arena. The dtype is
  /// assigned by the compile-time type-assignment pass (FP32 by default; u8
  /// on hand-off edges, with `qp` recording the hand-off quantization), the
  /// layout by the layout pass (NCHW by default; blocked values are rank-4
  /// B x C x H x W stored as B x [C/64] x H x W x 64).
  struct Value {
    std::vector<std::size_t> shape;
    std::size_t elems = 0;
    std::size_t def_step = 0;
    std::size_t last_use = 0;
    std::size_t offset_bytes = 0;  ///< arena offset (64B-aligned)
    bool external = false;
    DType dtype = DType::kF32;
    QuantParams qp;  ///< hand-off quantization (meaningful when dtype == kU8)
    ActLayout layout = ActLayout::kNchw;
    /// Stored elements: `elems`, plus the padding lanes when blocked.
    std::size_t extent() const {
      return layout == ActLayout::kBlocked64 ? elems / shape[1] * round_up(shape[1], kChanBlock)
                                             : elems;
    }
    std::size_t bytes() const { return extent() * dtype_bytes(dtype); }
  };

  // compile()'s passes, in the order it runs them (session.cc).
  static void lower(InferenceSession& s, SequentialModel& model,
                    std::span<const Tensor<float>> calib_batches);
  static void validate_replay(const InferenceSession& s, const PlanOptions& options);
  static void fuse(InferenceSession& s, const PlanOptions& options);
  static std::vector<std::vector<Tensor<float>>> fp32_reference(
      InferenceSession& s, std::span<const Tensor<float>> calib_batches);
  static void select_engines(InferenceSession& s, const PlanOptions& options,
                             const std::vector<std::vector<Tensor<float>>>& refs);
  static void assign_dtypes(InferenceSession& s, const PlanOptions& options,
                            const std::vector<std::vector<Tensor<float>>>& refs);
  static void assign_layouts(InferenceSession& s);
  static void plan_arena(InferenceSession& s);

  friend struct InferenceSessionTestPeer;  // white-box layout checks (tests/test_serve.cc)

  /// Runs one op over images [0, images) of its values.
  void execute_op(Op& op, const void* in0, const void* in1, void* out, std::size_t images);
  const void* value_in(std::size_t v, const Tensor<float>& input) const;
  void* value_out(std::size_t v, Tensor<float>& output);

  std::vector<Op> ops_;
  std::vector<Value> values_;
  std::size_t output_value_ = 0;
  AlignedBuffer<std::uint8_t> arena_;
  Tensor<float> warmup_out_;  ///< compile-time warmup target
  ThreadPool* pool_ = nullptr;
  SessionPlan plan_;
};

}  // namespace lowino
