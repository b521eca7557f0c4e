#include "serve/session.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/fault.h"
#include "common/text_file.h"
#include "common/timer.h"
#include "direct/direct_f32.h"
#include "gemm/fp32_gemm.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/calibration.h"
#include "quant/histogram.h"
#include "quant/quantize.h"
#include "tensor/pack.h"

namespace lowino {

namespace {

/// Default shoot-out candidates: the INT8 engines the paper evaluates, plus
/// the F(6x6,3x3) extension. FP32 kinds are reachable via forced_engine or an
/// explicit candidate list.
constexpr EngineKind kDefaultCandidates[] = {
    EngineKind::kInt8Direct,
    EngineKind::kLoWinoF2,
    EngineKind::kLoWinoF4,
    EngineKind::kLoWinoF6,
    EngineKind::kInt8Depthwise,
};

/// Plan-file token for a fused epilogue ("none" never serializes —
/// unfused conv lines stay byte-identical to the v1 format).
const char* post_ops_token(bool fuse_relu, bool fuse_sum) {
  if (fuse_sum && fuse_relu) return "sum+relu";
  if (fuse_sum) return "sum";
  if (fuse_relu) return "relu";
  return "none";
}

/// Parses a "post=<token>" conv-line field. False on anything malformed.
bool parse_post_token(const std::string& field, bool& fuse_relu, bool& fuse_sum) {
  if (field.rfind("post=", 0) != 0) return false;
  const std::string tok = field.substr(5);
  for (const bool relu : {false, true}) {
    for (const bool sum : {false, true}) {
      if (tok == post_ops_token(relu, sum)) {
        fuse_relu = relu;
        fuse_sum = sum;
        return true;
      }
    }
  }
  return false;
}

/// Parses a "dtype=<in>:<out>" conv-line field. False on anything malformed
/// (missing colon, unknown dtype token, trailing garbage after the pair).
bool parse_dtype_token(const std::string& field, DType& in_dtype, DType& out_dtype) {
  if (field.rfind("dtype=", 0) != 0) return false;
  const std::string tok = field.substr(6);
  const std::size_t colon = tok.find(':');
  if (colon == std::string::npos) return false;
  const std::optional<DType> in = dtype_from_string(tok.substr(0, colon));
  const std::optional<DType> out = dtype_from_string(tok.substr(colon + 1));
  if (!in || !out) return false;
  in_dtype = *in;
  out_dtype = *out;
  return true;
}

/// SNR values are clamped to a finite range before they enter a plan record:
/// an all-zero reference with nonzero noise (e.g. a conv whose every output
/// is negative, behind a fused ReLU, under a noisy engine) makes
/// quantization_error() report log10(0) = -inf dB, which would not
/// round-trip through the text format.
double clamp_snr(double snr_db) { return std::clamp(snr_db, -999.0, 999.0); }

/// Hand-off quantization for value `v`, one u8 activation edge, chosen
/// deterministically from the plan-time FP32 reference tensors: the
/// KL-calibrated scale first, falling back to the plain abs-max scale when KL
/// over-clips below the envelope. The histogram sees every calibration batch;
/// the SNR is measured on the first. `met` reports whether the chosen scale
/// reaches `min_snr_db` — compile demotes the edge to FP32 on a miss; replay
/// keeps the plan's recorded dtype (the procedure is deterministic for given
/// calibration batches, so a replayed session is bit-identical to the session
/// it came from).
struct EdgeCalib {
  QuantParams qp;
  double snr_db = 0.0;
  bool met = false;
};

EdgeCalib calibrate_edge(std::span<const std::vector<Tensor<float>>> refs, std::size_t v,
                         double min_snr_db) {
  Histogram hist;
  for (const std::vector<Tensor<float>>& batch_ref : refs) hist.collect(batch_ref[v].span());
  const std::span<const float> ref = refs.front()[v].span();
  std::vector<std::uint8_t> q(ref.size());
  std::vector<float> dq(ref.size());
  const auto snr_of = [&](const QuantParams& qp) {
    quantize_u8_shift128(ref, qp.scale, q);
    dequantize_u8_shift128(q, qp.inv_scale, dq);
    return clamp_snr(quantization_error(ref, dq).signal_to_noise_db);
  };
  EdgeCalib ec;
  ec.qp = calibrate_params(hist);
  ec.snr_db = snr_of(ec.qp);
  ec.met = ec.snr_db >= min_snr_db;
  if (!ec.met) {
    const QuantParams full = QuantParams::from_threshold(hist.max_abs_seen());
    const double full_snr = snr_of(full);
    if (full_snr > ec.snr_db) {
      ec.qp = full;
      ec.snr_db = full_snr;
      ec.met = full_snr >= min_snr_db;
    }
  }
  return ec;
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionPlan

std::string SessionPlan::summary() const {
  std::ostringstream os;
  os << "inference session plan: batch " << batch << ", " << convs.size()
     << " planned convolution(s)\n";
  std::size_t u8_edges = 0;
  for (const ConvChoice& c : convs) {
    os << "  op " << c.op_index << ": " << engine_token(c.engine) << "  " << c.layer << " ["
       << c.desc << "]  snr " << c.snr_db << " dB";
    if (c.seconds > 0.0) os << ", " << c.seconds * 1e3 << " ms";
    if (c.fuse_relu || c.fuse_sum) {
      os << "  (fused " << post_ops_token(c.fuse_relu, c.fuse_sum) << ')';
    }
    if (c.in_dtype != DType::kF32 || c.out_dtype != DType::kF32) {
      os << "  (dtype " << dtype_token(c.in_dtype) << ':' << dtype_token(c.out_dtype) << ')';
      u8_edges += (c.in_dtype == DType::kU8 ? 1 : 0) + (c.out_dtype == DType::kU8 ? 1 : 0);
    }
    os << "  (layout " << layout_token(c.in_layout) << ':' << layout_token(c.out_layout) << ')';
    if (!c.met_envelope) os << "  (below accuracy envelope; best-effort pick)";
    os << '\n';
    for (const ShootoutCandidate& k : c.candidates) {
      os << "    candidate " << engine_token(k.engine) << "  snr " << k.snr_db << " dB"
         << (k.met_envelope ? "" : " (below envelope)") << ", ";
      if (k.timed) {
        os << k.seconds * 1e3 << " ms";
      } else {
        os << "untimed";
      }
      os << '\n';
    }
  }
  if (u8_edges > 0) os << "  u8 hand-off: " << u8_edges << " conv edge(s)\n";
  // Why these layouts: blocked-I/O engines chain blocked; every other edge
  // whose ends disagree pays one explicit reorder.
  for (const Reorder& r : reorders) {
    os << "  reorder to " << layout_token(r.to) << " before " << r.consumer << ": " << r.bytes
       << " B\n";
  }
  const double saved =
      naive_bytes == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(arena_bytes) / static_cast<double>(naive_bytes));
  os << "  arena " << arena_bytes << " B vs naive " << naive_bytes << " B (" << saved
     << "% saved)\n";
  return os.str();
}

std::string SessionPlan::serialize() const {
  std::ostringstream os;
  os << "# lowino-plan v3: conv = op_index engine snr_db seconds met [post=ops] "
        "[dtype=in:out] | layer | desc\n";
  os.precision(9);
  os << "batch = " << batch << '\n';
  os << "arena = " << arena_bytes << '\n';
  os << "naive = " << naive_bytes << '\n';
  for (const ConvChoice& c : convs) {
    os << "conv = " << c.op_index << ' ' << engine_token(c.engine) << ' ' << c.snr_db << ' '
       << c.seconds << ' ' << (c.met_envelope ? 1 : 0);
    // Unfused lines omit the token and stay byte-identical to the v1 format.
    if (c.fuse_relu || c.fuse_sum) {
      os << " post=" << post_ops_token(c.fuse_relu, c.fuse_sum);
    }
    // All-FP32 lines omit the dtype token and stay v2-byte-identical.
    if (c.in_dtype != DType::kF32 || c.out_dtype != DType::kF32) {
      os << " dtype=" << dtype_token(c.in_dtype) << ':' << dtype_token(c.out_dtype);
    }
    os << " | " << c.layer << " | " << c.desc << '\n';
  }
  return os.str();
}

std::optional<SessionPlan> SessionPlan::deserialize(const std::string& text) {
  SessionPlan plan;
  bool saw_batch = false, saw_arena = false, saw_naive = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find(" = ");
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = line.substr(0, eq);
    const std::string payload = line.substr(eq + 3);
    if (key == "batch" || key == "arena" || key == "naive") {
      std::istringstream vals(payload);
      long long v = 0;
      std::string extra;
      if (!(vals >> v) || v < 0 || (vals >> extra)) return std::nullopt;
      if (key == "batch") plan.batch = static_cast<std::size_t>(v), saw_batch = true;
      if (key == "arena") plan.arena_bytes = static_cast<std::size_t>(v), saw_arena = true;
      if (key == "naive") plan.naive_bytes = static_cast<std::size_t>(v), saw_naive = true;
    } else if (key == "conv") {
      // Numeric head up to the first " | ", then "layer | desc".
      const std::size_t bar = payload.find(" | ");
      if (bar == std::string::npos) return std::nullopt;
      ConvChoice c;
      std::istringstream head(payload.substr(0, bar));
      long long idx = 0;
      std::string token;
      int met = -1;
      std::string extra;
      if (!(head >> idx >> token >> c.snr_db >> c.seconds >> met) || idx < 0 ||
          (met != 0 && met != 1)) {
        return std::nullopt;
      }
      // Optional v2 "post=" token, then optional v3 "dtype=" token (in that
      // order); anything else trailing is corruption.
      std::string field;
      if (head >> field) {
        if (field.rfind("post=", 0) == 0) {
          if (!parse_post_token(field, c.fuse_relu, c.fuse_sum)) return std::nullopt;
          if (!(head >> field)) field.clear();
        }
        if (!field.empty()) {
          if (!parse_dtype_token(field, c.in_dtype, c.out_dtype) || (head >> extra)) {
            return std::nullopt;
          }
        }
      }
      const std::optional<EngineKind> kind = engine_kind_from_string(token);
      if (!kind) return std::nullopt;
      c.op_index = static_cast<std::size_t>(idx);
      c.engine = *kind;
      c.met_envelope = met == 1;
      const std::string tail = payload.substr(bar + 3);
      const std::size_t bar2 = tail.find(" | ");
      if (bar2 == std::string::npos) return std::nullopt;
      c.layer = tail.substr(0, bar2);
      c.desc = tail.substr(bar2 + 3);
      if (c.layer.empty() || c.desc.empty()) return std::nullopt;
      plan.convs.push_back(std::move(c));
    } else {
      return std::nullopt;  // unknown key: corrupt or newer format
    }
  }
  if (!saw_batch || !saw_arena || !saw_naive || plan.batch == 0) return std::nullopt;
  return plan;
}

bool SessionPlan::save(const std::string& path) const { return save_text_file(path, serialize()); }

std::optional<SessionPlan> SessionPlan::load(const std::string& path) {
  const std::optional<std::string> text = load_text_file(path);
  if (!text) return std::nullopt;
  return deserialize(*text);
}

// ---------------------------------------------------------------------------
// compile(): six passes over one op list — lower, fuse, select_engines,
// assign_dtypes, assign_layouts, plan_arena — with the replayed plan checked
// right after lowering and the FP32 reference captured once before engine
// selection.

namespace {

[[noreturn]] void lower_fail(const std::string& what) {
  throw std::invalid_argument("InferenceSession: " + what);
}

/// The plan being replayed, if any: forced_engine beats reuse.
const SessionPlan* replayed_plan(const PlanOptions& options) {
  return options.forced_engine ? nullptr : options.reuse;
}

/// The engine kinds the `conv_ordinal`-th engine conv may run, in precedence
/// order: the forced kind, else the replayed plan's kind, else the shoot-out
/// candidates. The one owner of engine precedence — fusion and selection
/// both ask it.
std::span<const EngineKind> allowed_engines(const PlanOptions& options,
                                            std::size_t conv_ordinal) {
  if (options.forced_engine) return {&*options.forced_engine, 1};
  if (const SessionPlan* plan = replayed_plan(options)) {
    return {&plan->convs[conv_ordinal].engine, 1};
  }
  if (!options.candidates.empty()) return options.candidates;
  return kDefaultCandidates;
}

/// run_shootout's ranking rule. Strict comparisons, so ties keep the leader;
/// when both meet the envelope, both are timed.
bool shootout_beats(const ShootoutCandidate& c, const ShootoutCandidate& leader) {
  if (c.met_envelope != leader.met_envelope) return c.met_envelope;
  return c.met_envelope ? c.seconds < leader.seconds : c.snr_db > leader.snr_db;
}

}  // namespace

InferenceSession InferenceSession::compile(SequentialModel& model,
                                           const Tensor<float>& calib_input,
                                           const PlanOptions& options) {
  return compile(model, std::span<const Tensor<float>>(&calib_input, 1), options);
}

InferenceSession InferenceSession::compile(SequentialModel& model,
                                           std::span<const Tensor<float>> calib_batches,
                                           const PlanOptions& options) {
  InferenceSession s;
  s.pool_ = options.pool != nullptr ? options.pool : &ThreadPool::global();
  lower(s, model, calib_batches);
  validate_replay(s, options);
  fuse(s, options);
  const std::vector<std::vector<Tensor<float>>> refs = fp32_reference(s, calib_batches);
  select_engines(s, options, refs);
  assign_dtypes(s, options, refs);
  assign_layouts(s);
  plan_arena(s);
  // Pre-warm every lazily grown buffer so steady-state runs never allocate
  // (engine workspaces, FP32 conv scratch, warmup output).
  s.run(calib_batches.front(), s.warmup_out_);
  s.run(calib_batches.front(), s.warmup_out_);
  return s;
}

/// Pass 1: the model as a flat op list over SSA values (residual blocks are
/// flattened so the skip connection is a real live range).
void InferenceSession::lower(InferenceSession& s, SequentialModel& model,
                             std::span<const Tensor<float>> calib_batches) {
  if (model.layer_count() == 0) lower_fail("model has no layers");
  if (calib_batches.empty()) lower_fail("no calibration batch");
  const Tensor<float>& calib_input = calib_batches.front();
  if (calib_input.rank() != 4) lower_fail("calibration input must be rank-4 NCHW");
  for (const Tensor<float>& b : calib_batches) {
    if (b.shape() != calib_input.shape()) lower_fail("calibration batches differ in shape");
  }
  const std::size_t batch = calib_input.dim(0);
  if (batch == 0) lower_fail("calibration batch must be non-empty");
  s.plan_.batch = batch;

  const auto new_value = [&s](std::vector<std::size_t> shape) {
    Value v;
    v.elems = 1;
    for (std::size_t d : shape) v.elems *= d;
    v.shape = std::move(shape);
    s.values_.push_back(std::move(v));
    return s.values_.size() - 1;
  };
  // Appends `op` reading `in0`; returns its fresh output value.
  const auto push_op = [&](Op op, std::size_t in0, std::vector<std::size_t> shape) {
    op.in0 = in0;
    op.out = new_value(std::move(shape));
    s.ops_.push_back(std::move(op));
    return s.ops_.back().out;
  };
  const auto lower_conv = [&](ConvLayer& conv, std::size_t in_val) {
    const ConvDesc d = conv.conv_desc(batch);
    const std::size_t hw = conv.spatial();
    if (s.values_[in_val].elems != batch * conv.in_channels() * hw * hw) {
      lower_fail("shape mismatch feeding " + conv.name());
    }
    Op op;
    op.kind = conv.quantizable() ? Op::Kind::kConvEngine : Op::Kind::kConvFp32;
    op.conv = &conv;
    op.label = conv.name();
    return push_op(std::move(op), in_val,
                   {batch, conv.out_channels(), d.out_height(), d.out_width()});
  };
  const auto lower_relu = [&](std::size_t in_val, const char* label) {
    Op op;
    op.kind = Op::Kind::kRelu;
    op.label = label;
    return push_op(std::move(op), in_val, s.values_[in_val].shape);
  };

  std::size_t cur = new_value(calib_input.shape());
  s.values_[cur].external = true;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    Layer& layer = model.layer(i);
    if (auto* conv = dynamic_cast<ConvLayer*>(&layer)) {
      cur = lower_conv(*conv, cur);
    } else if (dynamic_cast<ReluLayer*>(&layer) != nullptr) {
      cur = lower_relu(cur, "relu");
    } else if (auto* mp = dynamic_cast<MaxPoolLayer*>(&layer)) {
      const std::size_t hw = mp->spatial();
      if (s.values_[cur].elems != batch * mp->channels() * hw * hw) {
        lower_fail("shape mismatch feeding maxpool");
      }
      Op op;
      op.kind = Op::Kind::kMaxPool;
      op.channels = mp->channels();
      op.hw = hw;
      op.label = "maxpool2x2";
      cur = push_op(std::move(op), cur, {batch, mp->channels(), hw / 2, hw / 2});
    } else if (auto* dense = dynamic_cast<DenseLayer*>(&layer)) {
      if (s.values_[cur].elems != batch * dense->in_features()) {
        lower_fail("shape mismatch feeding " + dense->name());
      }
      Op op;
      op.kind = Op::Kind::kDense;
      op.dense = dense;
      op.label = dense->name();
      cur = push_op(std::move(op), cur, {batch, dense->out_features()});
    } else if (auto* res = dynamic_cast<ResidualBlock*>(&layer)) {
      // The block input stays live across conv1/relu/conv2 until the add.
      const std::size_t x = cur;
      const std::size_t mid_act = lower_relu(lower_conv(res->conv1(), x), "relu(residual)");
      Op add_op;
      add_op.kind = Op::Kind::kAddRelu;
      add_op.in1 = lower_conv(res->conv2(), mid_act);
      add_op.label = "add+relu(residual)";
      cur = push_op(std::move(add_op), x, s.values_[x].shape);
    } else {
      lower_fail("unsupported layer in serving path: " + layer.name());
    }
  }
  s.output_value_ = cur;
  s.values_[cur].external = true;
}

/// The one check of a replayed plan against the lowered model: same batch,
/// same number of engine convs, same descriptor at each. Every later pass may
/// index the plan by conv ordinal.
void InferenceSession::validate_replay(const InferenceSession& s, const PlanOptions& options) {
  const SessionPlan* plan = replayed_plan(options);
  if (plan == nullptr) return;
  if (plan->batch != s.plan_.batch) {
    lower_fail("reused plan was compiled for batch " + std::to_string(plan->batch));
  }
  std::size_t ordinal = 0;
  for (const Op& op : s.ops_) {
    if (op.kind != Op::Kind::kConvEngine) continue;
    if (ordinal == plan->convs.size()) lower_fail("reused plan has too few convolutions");
    const std::string desc = op.conv->conv_desc(s.plan_.batch).to_string();
    const SessionPlan::ConvChoice& rc = plan->convs[ordinal++];
    if (rc.desc != desc) {
      lower_fail("reused plan mismatch at " + op.label + ": plan has [" + rc.desc +
                 "], model needs [" + desc + "]");
    }
  }
  if (ordinal != plan->convs.size()) {
    lower_fail("reused plan has more convolutions than the model");
  }
}

/// Pass 2: post-op fusion. Folds conv->relu and conv->add+relu chains into
/// the convolution's single output pass (the PostOps epilogue) when the
/// kill-switch is on, the conv's output has exactly one consumer and it is
/// the next op, and the conv can carry the epilogue: kConvFp32 always can; a
/// kConvEngine needs at least one allowed engine with post-op support (the
/// selection pass then only considers those). Fusion deletes the
/// element-wise pass and orphans its input value, shortening live ranges so
/// the arena peak drops.
void InferenceSession::fuse(InferenceSession& s, const PlanOptions& options) {
  if (!post_op_fusion_enabled()) return;
  std::vector<std::size_t> uses(s.values_.size(), 0);
  for (const Op& op : s.ops_) {
    ++uses[op.in0];
    if (op.kind == Op::Kind::kAddRelu) ++uses[op.in1];
  }
  std::vector<Op> fused;
  fused.reserve(s.ops_.size());
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < s.ops_.size(); ++i) {
    Op op = std::move(s.ops_[i]);
    bool can_fuse = op.kind == Op::Kind::kConvFp32;
    if (op.kind == Op::Kind::kConvEngine) {
      const ConvDesc desc = op.conv->conv_desc(s.plan_.batch);
      const std::span<const EngineKind> allowed = allowed_engines(options, ordinal++);
      can_fuse = std::any_of(allowed.begin(), allowed.end(), [&](EngineKind kind) {
        const EngineCaps caps = engine_caps(kind, desc);
        return caps.supports && caps.post_ops;
      });
    }
    if (can_fuse && i + 1 < s.ops_.size() && uses[op.out] == 1) {
      const Op& next = s.ops_[i + 1];
      if (next.kind == Op::Kind::kRelu && next.in0 == op.out) {
        op.fuse_relu = true;
        op.out = next.out;
        op.label += "+relu";
        ++i;  // the relu pass is gone
      } else if (next.kind == Op::Kind::kAddRelu && (next.in0 == op.out || next.in1 == op.out)) {
        // The residual (the other add input) is defined before this conv
        // (ops are in topological order), so the epilogue may read it.
        op.fuse_relu = true;
        op.fuse_sum = true;
        op.in1 = next.in0 == op.out ? next.in1 : next.in0;
        op.out = next.out;
        op.label += "+sum+relu";
        ++i;  // the add+relu pass is gone
      }
    }
    fused.push_back(std::move(op));
  }
  s.ops_ = std::move(fused);
}

/// One FP32 pass per calibration batch: every value's reference tensor (each
/// conv's input distribution and fused reference output — the accuracy
/// envelope's ground truth), indexed [batch][value]. Every conv runs the
/// shared FP32 kernel with its fused epilogue, so the reference is
/// bit-comparable to the engines' output.
std::vector<std::vector<Tensor<float>>> InferenceSession::fp32_reference(
    InferenceSession& s, std::span<const Tensor<float>> calib_batches) {
  std::vector<std::vector<Tensor<float>>> refs;
  refs.reserve(calib_batches.size());
  ConvF32Scratch scratch;
  for (const Tensor<float>& calib_input : calib_batches) {
    std::vector<Tensor<float>>& ref = refs.emplace_back(s.values_.size());
    ref[0] = calib_input;
    for (Op& op : s.ops_) {
      ref[op.out].reshape(s.values_[op.out].shape);
      const float* in1 =
          op.kind == Op::Kind::kAddRelu || op.fuse_sum ? ref[op.in1].data() : nullptr;
      if (op.conv != nullptr) {
        conv_f32_forward(op.conv->conv_desc(s.plan_.batch), ref[op.in0].span(),
                         op.conv->weights(), op.conv->bias(), ref[op.out].span(), scratch,
                         PostOps{op.fuse_relu, in1});
      } else {
        s.execute_op(op, ref[op.in0].data(), in1, ref[op.out].data(), s.plan_.batch);
      }
    }
  }
  return refs;
}

ShootoutResult run_shootout(std::span<const EngineKind> kinds, const ShootoutHooks& hooks) {
  ShootoutResult result;
  for (const EngineKind kind : kinds) {
    std::optional<ShootoutCandidate> c = hooks.measure(kind);
    if (!c) continue;
    if (c->met_envelope) {
      c->seconds = hooks.time(/*leader=*/false);
      c->timed = true;
    }
    result.candidates.push_back(*c);
    if (!result.winner || shootout_beats(*c, result.candidates[*result.winner])) {
      hooks.promote();
      result.winner = result.candidates.size() - 1;
    }
  }
  if (result.winner && !result.candidates[*result.winner].timed) {
    ShootoutCandidate& w = result.candidates[*result.winner];
    w.seconds = hooks.time(/*leader=*/true);
    w.timed = true;
  }
  return result;
}

/// Pass 3: an engine per kConvEngine op, by the precedence of
/// allowed_engines: a forced or replayed kind is built as is; otherwise a
/// measured shoot-out picks (run_shootout: SNR first, then timing of what
/// can win). Engines calibrate on every calibration batch; SNR and time are
/// measured on the first. SNR runs the NCHW entry point;
/// a blocked-I/O candidate is timed through run_blocked, the entry point a
/// session serves it by, on blocked copies of the input and residual made
/// once per conv. Every choice is recorded in the plan, with a measured SNR.
void InferenceSession::select_engines(InferenceSession& s, const PlanOptions& options,
                                      const std::vector<std::vector<Tensor<float>>>& refs) {
  const std::vector<Tensor<float>>& ref = refs.front();
  const SessionPlan* replay = replayed_plan(options);
  const bool pinned = options.forced_engine || replay != nullptr;
  Tensor<float> actual;  // candidate output scratch
  AlignedBuffer<float> in_b, sum_b, out_b;  // blocked timing buffers
  std::size_t ordinal = 0;
  for (std::size_t i = 0; i < s.ops_.size(); ++i) {
    Op& op = s.ops_[i];
    if (op.kind != Op::Kind::kConvEngine) continue;
    const ConvDesc desc = op.conv->conv_desc(s.plan_.batch);
    const std::string desc_str = desc.to_string();
    const Tensor<float>& plan_in = ref[op.in0];
    // Fused ops are measured fused: the epilogue changes both the latency
    // ranking and the reference the SNR compares against.
    const PostOps post{op.fuse_relu, op.fuse_sum ? ref[op.in1].data() : nullptr};
    actual.reshape(s.values_[op.out].shape);

    // Builds + calibrates one kind; nullptr when it cannot carry this shape
    // or this op's fused epilogue.
    const auto build = [&](EngineKind kind) -> std::unique_ptr<ConvEngine> {
      const EngineCaps caps = engine_caps(kind, desc);
      if (!caps.supports || (!post.none() && !caps.post_ops)) return nullptr;
      std::unique_ptr<ConvEngine> e = make_conv_engine(kind, desc);
      if (caps.quantized) {
        for (const std::vector<Tensor<float>>& batch_ref : refs) {
          e->calibrate(batch_ref[op.in0].span());
        }
        e->finalize_calibration();
      }
      e->set_filters(op.conv->weights(), op.conv->bias());
      return e;
    };
    const auto snr_of = [&](ConvEngine& e) {
      e.run(plan_in.span(), actual.span(), s.pool_, post);
      return clamp_snr(quantization_error(ref[op.out].span(), actual.span()).signal_to_noise_db);
    };
    const auto meets_envelope = [&](EngineKind kind, double snr) {
      return !engine_caps(kind, desc).quantized || snr >= options.min_snr_db;
    };

    SessionPlan::ConvChoice choice;
    choice.op_index = i;
    choice.layer = op.label;
    choice.desc = desc_str;
    choice.fuse_relu = op.fuse_relu;
    choice.fuse_sum = op.fuse_sum;
    const std::span<const EngineKind> allowed = allowed_engines(options, ordinal);
    if (pinned) {
      choice.engine = allowed.front();
      op.engine = build(choice.engine);
      if (op.engine == nullptr) {
        lower_fail(std::string(options.forced_engine ? "forced" : "reused plan") + " engine " +
                   engine_token(choice.engine) + " is not eligible for " + desc_str);
      }
      if (replay != nullptr) choice.seconds = replay->convs[ordinal].seconds;
      // Forced and replayed engines skip the shoot-out but still get one
      // accuracy measurement so the plan record is honest.
      choice.snr_db = snr_of(*op.engine);
      choice.met_envelope = meets_envelope(choice.engine, choice.snr_db);
    } else {
      // The blocked copies of the input and residual, made on first use.
      const std::size_t C = desc.in_channels, K = desc.out_channels;
      const std::size_t oh = desc.out_height(), ow = desc.out_width();
      const std::size_t out_elems = BlockedActLayout(desc.batch, K, oh, ow).size();
      PostOps post_b{op.fuse_relu, nullptr};
      bool packed = false;
      const auto pack_blocked = [&] {
        in_b.ensure(BlockedActLayout(desc.batch, C, desc.height, desc.width).size());
        relayout(DType::kF32, ActLayout::kBlocked64, plan_in.data(), desc.batch, C,
                 desc.height, desc.width, in_b.data(), s.pool_);
        if (op.fuse_sum) {
          sum_b.ensure(out_elems);
          relayout(DType::kF32, ActLayout::kBlocked64, post.sum, desc.batch, K, oh, ow,
                   sum_b.data(), s.pool_);
          post_b.sum = sum_b.data();
        }
        out_b.ensure(out_elems);
        std::fill_n(out_b.data(), out_elems, 0.0f);  // fault its pages in before timing
        packed = true;
      };
      std::unique_ptr<ConvEngine> current;
      ShootoutHooks hooks;
      hooks.measure = [&](EngineKind kind) -> std::optional<ShootoutCandidate> {
        current = build(kind);
        if (current == nullptr) return std::nullopt;
        ShootoutCandidate c;
        c.engine = kind;
        c.snr_db = snr_of(*current);
        c.met_envelope = meets_envelope(kind, c.snr_db);
        return c;
      };
      hooks.time = [&](bool leader) {
        ConvEngine& e = leader ? *op.engine : *current;
        const bool blocked = engine_caps(e.kind(), desc).blocked_io;
        if (blocked && !packed) pack_blocked();
        // The SNR run was the warm-up.
        return time_it(
                   [&] {
                     if (blocked) {
                       e.run_blocked(in_b.data(), out_b.data(), s.pool_, post_b);
                     } else {
                       e.run(plan_in.span(), actual.span(), s.pool_, post);
                     }
                   },
                   /*warmup=*/0, /*min_iters=*/2, /*max_iters=*/50, options.seconds_per_candidate)
            .median;
      };
      hooks.promote = [&] { op.engine = std::move(current); };
      ShootoutResult shootout = run_shootout(allowed, hooks);
      if (!shootout.winner) lower_fail("no engine candidate is eligible for " + desc_str);
      const ShootoutCandidate& w = shootout.candidates[*shootout.winner];
      choice.engine = w.engine;
      choice.snr_db = w.snr_db;
      choice.seconds = w.seconds;
      choice.met_envelope = w.met_envelope;
      choice.candidates = std::move(shootout.candidates);
    }
    s.plan_.convs.push_back(std::move(choice));
    ++ordinal;
  }
}

/// Pass 4: the u8 activation hand-off per value (DESIGN.md decision 13).
/// Seed: a value may be u8 when it is internal and its producer can emit u8
/// (a hand-off-capable engine conv, an ungrouped FP32 conv through its
/// requant epilogue, or a ReLU/maxpool passthrough, exact on the +128
/// encoding). Legality fixpoint: an op that cannot read u8 demotes its
/// inputs, and a passthrough is all-or-nothing. A fresh compile then gates
/// each conv-output edge on the envelope (a miss demotes it and re-runs the
/// fixpoint); a replay seeds from the plan's tokens instead and must pass the
/// same seed and fixpoint rules unchanged, with no SNR gate. An FP32 conv has
/// no token of its own: on a replay its output follows the in_dtype token of
/// its first engine reader, so a plan from before FP32 convs could emit u8
/// replays with an FP32 edge there.
void InferenceSession::assign_dtypes(InferenceSession& s, const PlanOptions& options,
                                     const std::vector<std::vector<Tensor<float>>>& refs) {
  if (!u8_handoff_enabled()) return;
  const SessionPlan* replay = replayed_plan(options);
  const auto reads_u8 = [](const Op& op) {
    return op.kind == Op::Kind::kConvEngine && op.engine->supports_u8_handoff();
  };
  const auto writes_u8 = [&](const Op& op) {
    return reads_u8(op) || (op.kind == Op::Kind::kConvFp32 && op.conv->groups() == 1);
  };
  const auto passthrough = [](const Op& op) {
    return op.kind == Op::Kind::kRelu || op.kind == Op::Kind::kMaxPool;
  };

  std::vector<char> want(s.values_.size(), 0);
  // Replay only: whether each value's first engine reader, seen through
  // passthroughs, records a u8 in_dtype (-1: no engine reads it).
  std::vector<signed char> read_as_u8(s.values_.size(), -1);
  if (replay != nullptr) {
    std::vector<std::size_t> origin(s.values_.size());
    for (std::size_t v = 0; v < origin.size(); ++v) origin[v] = v;
    std::size_t ordinal = 0;
    for (const Op& op : s.ops_) {
      if (passthrough(op)) origin[op.out] = origin[op.in0];
      if (op.kind != Op::Kind::kConvEngine) continue;
      signed char& first = read_as_u8[origin[op.in0]];
      if (first < 0) first = replay->convs[ordinal].in_dtype == DType::kU8;
      ++ordinal;
    }
  }
  std::size_t ordinal = 0;
  for (const Op& op : s.ops_) {
    const bool seed = !s.values_[op.out].external && (writes_u8(op) || passthrough(op));
    if (replay == nullptr) {
      want[op.out] = seed;
      continue;
    }
    // Conv outputs take their recorded token; passthroughs inherit.
    if (op.kind == Op::Kind::kConvEngine) {
      want[op.out] = replay->convs[ordinal++].out_dtype == DType::kU8;
    } else if (op.kind == Op::Kind::kConvFp32) {
      want[op.out] = read_as_u8[op.out] == 1;
    } else if (passthrough(op)) {
      want[op.out] = want[op.in0];
    }
    if (want[op.out] != 0 && !seed) lower_fail("reused plan assigns u8 at " + op.label);
  }

  // Returns whether anything was demoted.
  const auto run_fixpoint = [&] {
    bool demoted = false, changed = true;
    const auto demote = [&](std::size_t v) {
      if (want[v] != 0) {
        want[v] = 0;
        changed = demoted = true;
      }
    };
    while (changed) {
      changed = false;
      for (const Op& op : s.ops_) {
        if (passthrough(op)) {
          // Byte-domain passthrough: input and output share dtype and scale.
          if (want[op.in0] != want[op.out]) {
            demote(op.in0);
            demote(op.out);
          }
        } else if (!reads_u8(op)) {
          demote(op.in0);
          if (op.kind == Op::Kind::kAddRelu || op.fuse_sum) demote(op.in1);
        }
      }
    }
    return demoted;
  };
  std::vector<char> gated(s.values_.size(), 0);
  for (bool stable = false; !stable;) {
    if (run_fixpoint() && replay != nullptr) {
      lower_fail("reused plan feeds u8 to an op that cannot read it");
    }
    stable = true;
    for (const Op& op : s.ops_) {
      if (op.conv == nullptr || want[op.out] == 0 || gated[op.out] != 0) continue;
      // Replayed scales re-derive deterministically from the calibration
      // batches, so a replayed session is bit-identical to the original.
      const EdgeCalib ec = calibrate_edge(refs, op.out, options.min_snr_db);
      if (!ec.met && replay == nullptr) {
        want[op.out] = 0;
        stable = false;
        break;
      }
      gated[op.out] = 1;
      s.values_[op.out].qp = ec.qp;
    }
  }

  // Commit: value dtypes, passthrough scales (topological, so a consumer conv
  // always reads a finalized qp), engine configuration, plan record.
  for (std::size_t v = 0; v < s.values_.size(); ++v) {
    if (want[v] != 0) s.values_[v].dtype = DType::kU8;
  }
  ordinal = 0;
  for (Op& op : s.ops_) {
    if (passthrough(op) && want[op.out] != 0) s.values_[op.out].qp = s.values_[op.in0].qp;
    if (op.kind != Op::Kind::kConvEngine) continue;
    const DType in_dtype = want[op.in0] != 0 ? DType::kU8 : DType::kF32;
    if (replay != nullptr && replay->convs[ordinal].in_dtype != in_dtype) {
      lower_fail("reused plan dtype mismatch at " + op.label);
    }
    SessionPlan::ConvChoice& choice = s.plan_.convs[ordinal++];
    if (want[op.in0] != 0) {
      op.engine->set_input_u8(s.values_[op.in0].qp);
      choice.in_dtype = DType::kU8;
    }
    if (want[op.out] != 0) {
      op.engine->set_output_u8(s.values_[op.out].qp);
      choice.out_dtype = DType::kU8;
    }
  }
}

/// Pass 5: a layout per value, by one rule (DESIGN.md decision 16):
///   - external values (session input and output) are NCHW;
///   - blocked-I/O engines (EngineCaps::blocked_io) read and write blocked;
///   - ReLU, maxpool and add+relu keep their input's layout, and every op
///     reads its second input (residual or addend) in its output's layout;
///   - an ungrouped FP32 conv writes blocked when its output is u8 (its u8
///     store is blocked-only) or when its readers — seen through a
///     standalone ReLU, which fusion would have folded into it — include a
///     blocked reader and no NCHW one (layout-keeping readers take either);
///   - everything else (dense, the other engines, grouped FP32 convs) reads
///     and writes NCHW.
/// Every edge whose two ends disagree gets one dtype-preserving kReorder op
/// in front of its first reader; later readers share it.
void InferenceSession::assign_layouts(InferenceSession& s) {
  constexpr ActLayout kNchw = ActLayout::kNchw, kBlocked = ActLayout::kBlocked64;
  const auto blocked_io = [&s](const Op& op) {
    return op.kind == Op::Kind::kConvEngine &&
           engine_caps(op.engine->kind(), op.conv->conv_desc(s.plan_.batch)).blocked_io;
  };
  const auto keeps_layout = [](const Op& op) {
    return op.kind == Op::Kind::kRelu || op.kind == Op::Kind::kMaxPool ||
           op.kind == Op::Kind::kAddRelu;
  };
  const auto reads_in1 = [](const Op& op) {
    return op.kind == Op::Kind::kAddRelu || op.fuse_sum;
  };
  // Whether `op` reads in0 in its own output's layout (in1 always is).
  const auto in0_follows_output = [&](const Op& op) { return blocked_io(op) || keeps_layout(op); };
  // The layout `op` writes whatever its readers want, if there is one.
  const auto fixed = [&](const Op& op) -> std::optional<ActLayout> {
    if (s.values_[op.out].external) return kNchw;
    if (blocked_io(op)) return kBlocked;
    if (op.kind == Op::Kind::kConvFp32 && s.values_[op.out].dtype == DType::kU8) return kBlocked;
    if (keeps_layout(op) || (op.kind == Op::Kind::kConvFp32 && op.conv->groups() == 1)) {
      return std::nullopt;
    }
    return kNchw;
  };

  std::vector<std::vector<const Op*>> readers(s.values_.size());
  for (const Op& op : s.ops_) {
    readers[op.in0].push_back(&op);
    if (reads_in1(op) && op.in1 != op.in0) readers[op.in1].push_back(&op);
  }
  struct Votes {
    bool blocked = false, nchw = false;
  };
  const auto vote = [&](const auto& self, std::size_t v, Votes& acc) -> void {
    for (const Op* r : readers[v]) {
      if (r->in0 == v && !in0_follows_output(*r)) {
        acc.nchw = true;
      } else if (const std::optional<ActLayout> f = fixed(*r)) {
        (*f == kBlocked ? acc.blocked : acc.nchw) = true;
      } else if (r->kind == Op::Kind::kRelu) {
        self(self, r->out, acc);
      }
    }
  };
  const auto writes = [&](const Op& op) {
    if (const std::optional<ActLayout> f = fixed(op)) return *f;
    if (keeps_layout(op)) return s.values_[op.in0].layout;
    Votes v;  // an ungrouped FP32 conv
    vote(vote, op.out, v);
    return v.blocked && !v.nchw ? kBlocked : kNchw;
  };

  std::vector<Op> ops;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> copy_of(s.values_.size(), kNone);  // value -> its relayouted copy
  const auto read_as = [&](std::size_t& v, ActLayout want, const std::string& consumer) {
    if (s.values_[v].layout == want) return;
    if (copy_of[v] == kNone) {
      Value copy = s.values_[v];
      copy.layout = want;
      copy.external = false;
      s.values_.push_back(std::move(copy));
      Op reorder;
      reorder.kind = Op::Kind::kReorder;
      reorder.in0 = v;
      reorder.out = s.values_.size() - 1;
      reorder.label = std::string("reorder->") + layout_token(want);
      ops.push_back(std::move(reorder));
      copy_of[v] = s.values_.size() - 1;
      s.plan_.reorders.push_back({consumer, want, s.values_.back().bytes()});
    }
    v = copy_of[v];
  };
  for (const Op& op : s.ops_) s.values_[op.out].layout = writes(op);
  std::size_t ordinal = 0;
  for (Op& op : s.ops_) {
    const ActLayout own = s.values_[op.out].layout;
    read_as(op.in0, in0_follows_output(op) ? own : kNchw, op.label);
    if (reads_in1(op)) read_as(op.in1, own, op.label);
    if (op.kind == Op::Kind::kConvEngine) {
      SessionPlan::ConvChoice& choice = s.plan_.convs[ordinal++];
      choice.in_layout = s.values_[op.in0].layout;
      choice.out_layout = own;
    }
    ops.push_back(std::move(op));
  }
  s.ops_ = std::move(ops);
}

/// Pass 6: liveness over the final op list, in-place residual slots, and one
/// arena for every internal value (slots sized per dtype).
void InferenceSession::plan_arena(InferenceSession& s) {
  // Values orphaned by fusion (a swallowed element-wise op's former input)
  // are never touched and get no arena request.
  std::vector<bool> live(s.values_.size(), false);
  for (std::size_t step = 0; step < s.ops_.size(); ++step) {
    const Op& op = s.ops_[step];
    s.values_[op.out].def_step = step;
    s.values_[op.out].last_use = step;
    live[op.out] = true;
    s.values_[op.in0].last_use = step;
    live[op.in0] = true;
    if (op.kind == Op::Kind::kAddRelu || op.fuse_sum) {
      s.values_[op.in1].last_use = step;
      live[op.in1] = true;
    }
  }

  // In-place residual reuse: a fused conv's output shares its residual's
  // slot when the conv is the residual's final consumer. Safe for every
  // post-op-capable engine because each output element's residual is read
  // before that element is stored, and no other element's store touches it:
  // int8_direct and int8_dw read a pixel's 64 residual lanes before storing
  // that pixel; the Winograd engines, which read the residual blocked in the
  // output's own layout, have each output tile read its residual positions
  // right before storing them, and tiles (the units of work) are disjoint.
  // This is what turns fusion into an arena *peak* win. Sharing requires the
  // same layout and equal byte footprints (arena_slots_compatible): an FP32
  // output aliasing a u8 residual's slot of equal element count would
  // overrun it.
  std::vector<std::pair<std::size_t, std::size_t>> alias_pairs;  // (out, slot root)
  std::vector<std::size_t> slot_root(s.values_.size());
  for (std::size_t v = 0; v < slot_root.size(); ++v) slot_root[v] = v;
  for (std::size_t step = 0; step < s.ops_.size(); ++step) {
    const Op& op = s.ops_[step];
    if (!op.fuse_sum) continue;
    const Value& res = s.values_[op.in1];
    const Value& out = s.values_[op.out];
    if (res.external || out.external || op.in1 == op.in0 || res.layout != out.layout ||
        !arena_slots_compatible(res.extent(), res.dtype, out.extent(), out.dtype) ||
        res.last_use != step) {  // residual read again later
      continue;
    }
    const std::size_t root = slot_root[op.in1];
    slot_root[op.out] = root;
    s.values_[root].last_use = std::max(s.values_[root].last_use, out.last_use);
    alias_pairs.emplace_back(op.out, root);
  }

  std::vector<bool> reorder_copy(s.values_.size(), false);
  for (const Op& op : s.ops_) reorder_copy[op.out] = op.kind == Op::Kind::kReorder;
  std::vector<ArenaRequest> requests;
  std::vector<std::size_t> request_value;
  std::size_t naive_bytes = 0;  // model activations only (see SessionPlan::naive_bytes)
  for (std::size_t v = 0; v < s.values_.size(); ++v) {
    const Value& val = s.values_[v];
    if (val.external || !live[v] || slot_root[v] != v) continue;
    requests.push_back({val.bytes(), val.def_step, val.last_use});
    request_value.push_back(v);
    if (!reorder_copy[v]) naive_bytes += round_up(val.bytes(), kArenaAlignment);
  }
  const ArenaPlan arena_plan = lowino::plan_arena(requests);
  for (std::size_t j = 0; j < request_value.size(); ++j) {
    s.values_[request_value[j]].offset_bytes = arena_plan.offsets[j];
  }
  // Aliased outputs inherit their slot root's offset (pairs are in op order,
  // so a root's offset is final by the time a dependent reads it).
  for (const auto& [out, root] : alias_pairs) {
    s.values_[out].offset_bytes = s.values_[root].offset_bytes;
  }
  s.arena_.ensure(arena_plan.peak_bytes);
  s.plan_.arena_bytes = arena_plan.peak_bytes;
  s.plan_.naive_bytes = naive_bytes;
}

// ---------------------------------------------------------------------------
// Run time

const void* InferenceSession::value_in(std::size_t v, const Tensor<float>& input) const {
  if (v == 0) return input.data();
  return arena_.data() + values_[v].offset_bytes;
}

void* InferenceSession::value_out(std::size_t v, Tensor<float>& output) {
  if (v == output_value_) return output.data();
  return arena_.data() + values_[v].offset_bytes;
}

void InferenceSession::run(const Tensor<float>& input, Tensor<float>& output,
                           std::size_t images) {
  maybe_inject_fault(FaultSite::kSessionRun);
  if (input.shape() != values_[0].shape) {
    throw std::invalid_argument("InferenceSession::run: input shape does not match the plan");
  }
  if (images < 1 || images > plan_.batch) {
    throw std::invalid_argument("InferenceSession::run: images must be in [1, batch()], got " +
                                std::to_string(images));
  }
  // reshape() only when needed: re-running into the same output tensor must
  // not touch the heap (reshape copies the shape vector even when sizes
  // already match).
  if (output.shape() != values_[output_value_].shape) {
    output.reshape(values_[output_value_].shape);
  }
  for (Op& op : ops_) {
    ProfileSpan span(ProfileStage::kServe);
    const void* in0 = value_in(op.in0, input);
    const void* in1 = op.kind == Op::Kind::kAddRelu || op.fuse_sum
                          ? value_in(op.in1, input)
                          : nullptr;
    void* out = value_out(op.out, output);
    execute_op(op, in0, in1, out, images);
  }
}

void InferenceSession::execute_op(Op& op, const void* in0, const void* in1, void* out,
                                  std::size_t images) {
  const Value& vi = values_[op.in0];
  const Value& vo = values_[op.out];
  // Every value is image-major (NCHW and blocked alike), so the first
  // `images` images of a value are its leading images * extent / batch
  // elements.
  const std::size_t out_extent = vo.extent() / plan_.batch * images;
  switch (op.kind) {
    case Op::Kind::kConvEngine: {
      // Injected *before* the engine touches its state: a faulted op leaves
      // the engine and every arena value exactly as a never-started op would,
      // so a run aborted here is safely retryable from the top.
      maybe_inject_fault(FaultSite::kEngineExecute);
      PostOps post;
      post.relu = op.fuse_relu;
      if (op.fuse_sum) {
        if (values_[op.in1].dtype == DType::kU8) {
          post.sum_u8 = static_cast<const std::uint8_t*>(in1);
          post.sum_u8_inv_scale = values_[op.in1].qp.inv_scale;
        } else {
          post.sum = static_cast<const float*>(in1);
        }
      }
      if (vo.layout == ActLayout::kBlocked64) {
        // Blocked chain: input, output and residual stay in the arena's
        // blocked buffers — no relayout inside the engine.
        op.engine->run_blocked(in0, out, pool_, post, images);
      } else if (vi.dtype == DType::kU8 || vo.dtype == DType::kU8 || post.sum_u8 != nullptr) {
        // u8 hand-off on any edge: the typed entry point reads/writes the
        // arena buffers with the dtypes the compiler configured.
        op.engine->run_typed(in0, out, pool_, post, images);
      } else {
        // FP32 edges; a fused epilogue rides inside the engine's output pass
        // (attributed to its output-transform / store stage).
        op.engine->run({static_cast<const float*>(in0), vi.elems},
                       {static_cast<float*>(out), vo.elems}, pool_, post, images);
      }
      break;
    }
    case Op::Kind::kConvFp32: {
      const ConvDesc desc = op.conv->conv_desc(images);
      const PostOps post{op.fuse_relu, static_cast<const float*>(in1)};
      if (vo.layout == ActLayout::kBlocked64) {
        conv_f32_blocked(desc, static_cast<const float*>(in0), op.conv->weights(),
                         op.conv->bias(), out, op.fp32, post,
                         vo.dtype == DType::kU8 ? &vo.qp : nullptr);
      } else {
        conv_f32_forward(desc, {static_cast<const float*>(in0), vi.elems}, op.conv->weights(),
                         op.conv->bias(), {static_cast<float*>(out), out_extent}, op.fp32, post);
      }
      break;
    }
    case Op::Kind::kRelu: {
      // A standalone (unfused) element-wise pass: visible as its own profile
      // stage so traces show these passes disappearing under fusion. Blocked
      // values are walked over their padded extent (relu keeps zero lanes).
      ProfileSpan pspan(ProfileStage::kPostOps);
      if (vo.dtype == DType::kU8) {
        // Byte-domain passthrough: quantization is monotone with q(0) = 128,
        // so max(q, 128) IS the quantized ReLU — exact, no dequant round trip.
        const std::uint8_t* src = static_cast<const std::uint8_t*>(in0);
        std::uint8_t* dst = static_cast<std::uint8_t*>(out);
        for (std::size_t i = 0; i < out_extent; ++i) {
          dst[i] = src[i] > 128 ? src[i] : std::uint8_t{128};
        }
      } else {
        const float* src = static_cast<const float*>(in0);
        float* dst = static_cast<float*>(out);
        for (std::size_t i = 0; i < out_extent; ++i) {
          dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
        }
      }
      break;
    }
    case Op::Kind::kMaxPool: {
      // One image plane per channel (NCHW) or per 64-channel block (blocked,
      // 64 lanes per pixel); the 2x2 window is scanned in the same order
      // either way, keeping the first maximum, so both layouts give the same
      // bits. Byte-domain maxpool is exact for the same monotonicity reason
      // as the byte-domain ReLU: max commutes with quantization under one
      // scale.
      const bool blocked = vo.layout == ActLayout::kBlocked64;
      const std::size_t planes =
          images * (blocked ? ceil_div(op.channels, kChanBlock) : op.channels);
      const std::size_t hw = op.hw;
      const std::size_t oh = hw / 2;
      // `lanes` is a compile-time constant (1 or 64) so both loops stay tight.
      const auto pool2x2 = [&](const auto* src_all, auto* dst_all, auto lanes_constant) {
        constexpr std::size_t lanes = decltype(lanes_constant)::value;
        for (std::size_t plane = 0; plane < planes; ++plane) {
          const auto* src = src_all + plane * hw * hw * lanes;
          auto* dst = dst_all + plane * oh * oh * lanes;
          for (std::size_t y = 0; y < oh; ++y) {
            for (std::size_t x = 0; x < oh; ++x) {
              const auto* s00 = src + (2 * y * hw + 2 * x) * lanes;
              const auto* s10 = s00 + hw * lanes;
              auto* d = dst + (y * oh + x) * lanes;
              for (std::size_t l = 0; l < lanes; ++l) {
                auto v = s00[l];
                if (s00[lanes + l] > v) v = s00[lanes + l];
                if (s10[l] > v) v = s10[l];
                if (s10[lanes + l] > v) v = s10[lanes + l];
                d[l] = v;
              }
            }
          }
        }
      };
      const auto pool_layout = [&](const auto* src, auto* dst) {
        if (blocked) {
          pool2x2(src, dst, std::integral_constant<std::size_t, kChanBlock>{});
        } else {
          pool2x2(src, dst, std::integral_constant<std::size_t, 1>{});
        }
      };
      if (vo.dtype == DType::kU8) {
        pool_layout(static_cast<const std::uint8_t*>(in0), static_cast<std::uint8_t*>(out));
      } else {
        pool_layout(static_cast<const float*>(in0), static_cast<float*>(out));
      }
      break;
    }
    case Op::Kind::kDense: {
      const std::size_t in_f = op.dense->in_features();
      const std::size_t out_f = op.dense->out_features();
      const float* fin0 = static_cast<const float*>(in0);
      float* fout = static_cast<float*>(out);
      fp32_gemm(fin0, in_f, op.dense->weights().data(), out_f, fout, out_f, images, in_f,
                out_f);
      const std::span<const float> bias = op.dense->bias();
      for (std::size_t b = 0; b < images; ++b) {
        for (std::size_t o = 0; o < out_f; ++o) fout[b * out_f + o] += bias[o];
      }
      break;
    }
    case Op::Kind::kAddRelu: {
      ProfileSpan pspan(ProfileStage::kPostOps);
      const float* a = static_cast<const float*>(in0);
      const float* b = static_cast<const float*>(in1);
      float* dst = static_cast<float*>(out);
      for (std::size_t i = 0; i < out_extent; ++i) {
        dst[i] = std::max(0.0f, a[i] + b[i]);
      }
      break;
    }
    case Op::Kind::kReorder:
      relayout(vo.dtype, vo.layout, in0, images, vo.shape[1], vo.shape[2], vo.shape[3], out,
               pool_);
      break;
  }
}

}  // namespace lowino
