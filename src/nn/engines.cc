#include "nn/engines.h"

#include <cctype>
#include <stdexcept>
#include <vector>

#include "baselines/downscale_wino.h"
#include "baselines/fp32_wino.h"
#include "baselines/upcast_wino.h"
#include "baselines/vendor_wino.h"
#include "common/env.h"
#include "direct/direct_f32.h"
#include "direct/direct_int8.h"
#include "lowino/lowino.h"
#include "nn/engine_registry.h"

namespace lowino {

namespace {

/// Token comparison: ASCII case-insensitive with '-' == '_'.
bool token_matches(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca == '-') ca = '_';
    if (cb == '-') cb = '_';
    if (std::tolower(static_cast<unsigned char>(ca)) !=
        std::tolower(static_cast<unsigned char>(cb))) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* engine_name(EngineKind kind) { return engine_registration(kind).name; }

const char* engine_token(EngineKind kind) { return engine_registration(kind).token; }

std::optional<EngineKind> engine_kind_from_string(std::string_view name) {
  if (token_matches(name, "int8_1x1")) return EngineKind::kInt8Direct;
  for (const EngineRegistration& reg : engine_registry()) {
    if (token_matches(name, reg.token) || name == reg.name) {
      return reg.kind;
    }
  }
  return std::nullopt;
}

std::span<const EngineKind> all_engine_kinds() {
  static const std::vector<EngineKind> kinds = [] {
    std::vector<EngineKind> k;
    for (const EngineRegistration& reg : engine_registry()) k.push_back(reg.kind);
    return k;
  }();
  return kinds;
}

EngineCaps engine_caps(EngineKind kind, const ConvDesc& desc) {
  const EngineRegistration& reg = engine_registration(kind);
  EngineCaps caps;
  caps.quantized = reg.quantized;
  caps.post_ops = reg.post_ops;
  caps.u8_handoff = reg.u8_handoff;
  caps.blocked_io = reg.blocked_io;
  caps.supports = desc.is_valid() && reg.supports(desc);
  return caps;
}

std::size_t lowino_calibration_stride(std::size_t total_tiles) {
  const long forced = config_long("LOWINO_CALIB_STRIDE", 0);
  if (forced > 0) return static_cast<std::size_t>(forced);
  return total_tiles < kCalibDenseTileLimit ? 1 : 2;
}

bool post_op_fusion_enabled() { return config_flag("LOWINO_FUSE_POSTOPS", true); }

bool u8_handoff_enabled() { return config_flag("LOWINO_U8_HANDOFF", true); }

bool ConvEngine::supports_post_ops() const {
  return engine_registration(kind()).post_ops;
}

bool ConvEngine::supports_u8_handoff() const {
  return engine_registration(kind()).u8_handoff;
}

// ---------------------------------------------------------------------------
// Lifecycle state machine (the non-virtual public API).

void ConvEngine::misuse(const char* what) const {
  throw std::logic_error(std::string(engine_name(kind())) + ": " + what);
}

void ConvEngine::calibrate(std::span<const float> input_nchw) {
  if (state_ != Lifecycle::kCalibrating) {
    misuse("calibrate() after finalize_calibration() — the input scales are "
           "already fixed; create a new engine to recalibrate");
  }
  saw_calibration_ = true;
  do_calibrate(input_nchw);
}

void ConvEngine::finalize_calibration() {
  if (state_ != Lifecycle::kCalibrating) {
    misuse("finalize_calibration() called twice");
  }
  if (!saw_calibration_ && engine_registration(kind()).quantized) {
    misuse("finalize_calibration() without any calibrate() sample — a "
           "quantized engine has no statistics to derive input scales from");
  }
  do_finalize_calibration();
  state_ = Lifecycle::kFinalized;
}

void ConvEngine::set_filters(std::span<const float> weights, std::span<const float> bias) {
  if (state_ == Lifecycle::kCalibrating) {
    if (engine_registration(kind()).quantized) {
      misuse(saw_calibration_
                 ? "set_filters() before finalize_calibration() — finalize the "
                   "input scales first"
                 : "set_filters() on an uncalibrated quantized engine — run "
                   "calibrate() + finalize_calibration() first");
    }
    // FP32 engines skip calibration entirely; advance implicitly.
    state_ = Lifecycle::kFinalized;
  }
  do_set_filters(weights, bias);
  state_ = Lifecycle::kReady;
}

void ConvEngine::run(std::span<const float> input, std::span<float> output,
                     ThreadPool* pool, const PostOps& post, std::size_t images) {
  if (state_ != Lifecycle::kReady) {
    misuse("run() before set_filters()");
  }
  if (!post.none() && !supports_post_ops()) {
    misuse("run() with a fused PostOps epilogue on an engine that does not "
           "support post-ops — check supports_post_ops() and fall back to "
           "unfused execution");
  }
  do_run(input, output, pool, post, desc_.resolve_images(images));
}

void ConvEngine::set_input_u8(const QuantParams& qp) {
  if (!supports_u8_handoff()) {
    misuse("set_input_u8() on an engine without u8 hand-off support — check "
           "supports_u8_handoff() before configuring dtypes");
  }
  if (state_ == Lifecycle::kCalibrating) {
    misuse("set_input_u8() before finalize_calibration() — the hand-off "
           "quantization composes with the engine's calibrated scales");
  }
  do_set_input_u8(qp);
  in_dtype_ = DType::kU8;
}

void ConvEngine::set_output_u8(const QuantParams& qp) {
  if (!supports_u8_handoff()) {
    misuse("set_output_u8() on an engine without u8 hand-off support — check "
           "supports_u8_handoff() before configuring dtypes");
  }
  if (state_ == Lifecycle::kCalibrating) {
    misuse("set_output_u8() before finalize_calibration() — the hand-off "
           "quantization composes with the engine's calibrated scales");
  }
  do_set_output_u8(qp);
  out_dtype_ = DType::kU8;
}

void ConvEngine::run_typed(const void* input, void* output, ThreadPool* pool,
                           const PostOps& post, std::size_t images) {
  if (state_ != Lifecycle::kReady) {
    misuse("run_typed() before set_filters()");
  }
  if (!supports_u8_handoff()) {
    misuse("run_typed() on an engine without u8 hand-off support — use the "
           "span-typed run() instead");
  }
  if (!post.none() && !supports_post_ops()) {
    misuse("run_typed() with a fused PostOps epilogue on an engine that does "
           "not support post-ops");
  }
  do_run_typed(input, output, pool, post, desc_.resolve_images(images));
}

void ConvEngine::run_blocked(const void* input, void* output, ThreadPool* pool,
                             const PostOps& post, std::size_t images) {
  if (state_ != Lifecycle::kReady) {
    misuse("run_blocked() before set_filters()");
  }
  if (!engine_registration(kind()).blocked_io) {
    misuse("run_blocked() on an engine without blocked I/O — check "
           "engine_caps(kind, desc).blocked_io and use run_typed() instead");
  }
  if (!post.none() && !supports_post_ops()) {
    misuse("run_blocked() with a fused PostOps epilogue on an engine that does "
           "not support post-ops");
  }
  do_run_blocked(input, output, pool, post, desc_.resolve_images(images));
}

void ConvEngine::do_run_blocked(const void*, void*, ThreadPool*, const PostOps&,
                                std::size_t) {
  misuse("do_run_blocked() not implemented despite engine_caps(kind, desc).blocked_io — "
         "the capability table and the engine wrapper disagree");
}

void ConvEngine::do_set_input_u8(const QuantParams&) {
  misuse("do_set_input_u8() not implemented despite "
         "engine_caps(kind, desc).u8_handoff "
         "— the capability table and the engine wrapper disagree");
}

void ConvEngine::do_set_output_u8(const QuantParams&) {
  misuse("do_set_output_u8() not implemented despite "
         "engine_caps(kind, desc).u8_handoff "
         "— the capability table and the engine wrapper disagree");
}

void ConvEngine::do_run_typed(const void*, void*, ThreadPool*, const PostOps&,
                              std::size_t) {
  misuse("do_run_typed() not implemented despite engine_caps(kind, desc).u8_handoff — "
         "the capability table and the engine wrapper disagree");
}

namespace {

/// CRTP-free small wrappers; each translates the protected do_* interface
/// onto the underlying engine's own API (the public methods on the ConvEngine
/// base enforce the lifecycle before delegating here).
class Fp32DirectEngine final : public ConvEngine {
 public:
  explicit Fp32DirectEngine(const ConvDesc& desc) : conv_(desc) {}
  EngineKind kind() const override { return EngineKind::kFp32Direct; }

 protected:
  void do_calibrate(std::span<const float>) override {}
  void do_finalize_calibration() override {}
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps& post, std::size_t) override {
    conv_.execute_nchw(in, out, pool, post);
  }

 private:
  Im2colConvF32 conv_;
};

class Fp32WinoEngine final : public ConvEngine {
 public:
  Fp32WinoEngine(const ConvDesc& desc, std::size_t m, EngineKind kind)
      : conv_(desc, m), kind_(kind) {}
  EngineKind kind() const override { return kind_; }

 protected:
  void do_calibrate(std::span<const float>) override {}
  void do_finalize_calibration() override {}
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps&, std::size_t) override {
    conv_.execute_nchw(in, out, pool);
  }

 private:
  Fp32WinoConv conv_;
  EngineKind kind_;
};

class Int8DirectEngine final : public ConvEngine {
 public:
  explicit Int8DirectEngine(const ConvDesc& desc) : conv_(desc) {}
  EngineKind kind() const override { return EngineKind::kInt8Direct; }

 protected:
  void do_calibrate(std::span<const float> in) override { conv_.calibrate(in); }
  void do_finalize_calibration() override { conv_.finalize_calibration(); }
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps& post, std::size_t images) override {
    conv_.execute_nchw(in, out, pool, post, images);
  }
  void do_set_input_u8(const QuantParams& qp) override { conv_.set_input_u8(qp); }
  void do_set_output_u8(const QuantParams& qp) override { conv_.set_output_u8(qp); }
  void do_run_typed(const void* in, void* out, ThreadPool* pool, const PostOps& post,
                    std::size_t images) override {
    conv_.execute_typed(in, out, pool, post, images);
  }
  void do_run_blocked(const void* in, void* out, ThreadPool* pool, const PostOps& post,
                      std::size_t images) override {
    conv_.execute_blocked_typed(in, out, pool, post, images);
  }

 private:
  Int8DirectConv conv_;
};

class LoWinoEngine final : public ConvEngine {
 public:
  LoWinoEngine(const ConvDesc& desc, std::size_t m, EngineKind kind)
      : conv_(desc, make_config(m)), kind_(kind) {}
  EngineKind kind() const override { return kind_; }

 protected:
  void do_calibrate(std::span<const float> in) override {
    // Subsample tiles on big feature maps (the statistics converge quickly
    // and the histograms are per position anyway), but walk every tile of
    // tiny ones — see lowino_calibration_stride.
    conv_.calibrate(in, lowino_calibration_stride(conv_.geometry().total_tiles));
  }
  void do_finalize_calibration() override { conv_.finalize_calibration(); }
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps& post, std::size_t images) override {
    conv_.execute_nchw(in, out, pool, post, images);
  }
  void do_set_input_u8(const QuantParams& qp) override { conv_.set_input_u8(qp); }
  void do_set_output_u8(const QuantParams& qp) override { conv_.set_output_u8(qp); }
  void do_run_typed(const void* in, void* out, ThreadPool* pool, const PostOps& post,
                    std::size_t images) override {
    conv_.execute_nchw_typed(in, out, pool, post, images);
  }
  void do_run_blocked(const void* in, void* out, ThreadPool* pool, const PostOps& post,
                      std::size_t images) override {
    conv_.execute_blocked_typed(in, out, pool, post, images);
  }

 private:
  static LoWinoConfig make_config(std::size_t m) {
    LoWinoConfig cfg;
    cfg.m = m;
    // Default kAuto: small layers run staged, layers whose V + Z tensors
    // outgrow aggregate L2 stream through the fused per-thread panels.
    return cfg;
  }
  LoWinoConvolution conv_;
  EngineKind kind_;
};

class DownscaleEngine final : public ConvEngine {
 public:
  DownscaleEngine(const ConvDesc& desc, std::size_t m, EngineKind kind)
      : conv_(desc, m), kind_(kind) {}
  EngineKind kind() const override { return kind_; }

 protected:
  void do_calibrate(std::span<const float> in) override { conv_.calibrate(in); }
  void do_finalize_calibration() override { conv_.finalize_calibration(); }
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps&, std::size_t) override {
    conv_.execute_nchw(in, out, pool);
  }

 private:
  DownscaleWinoConv conv_;
  EngineKind kind_;
};

class UpcastEngine final : public ConvEngine {
 public:
  explicit UpcastEngine(const ConvDesc& desc) : conv_(desc) {}
  EngineKind kind() const override { return EngineKind::kUpcastF2; }

 protected:
  void do_calibrate(std::span<const float> in) override { conv_.calibrate(in); }
  void do_finalize_calibration() override { conv_.finalize_calibration(); }
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps&, std::size_t) override {
    conv_.execute_nchw(in, out, pool);
  }

 private:
  UpcastWinoConv conv_;
};

class VendorEngine final : public ConvEngine {
 public:
  explicit VendorEngine(const ConvDesc& desc) : conv_(desc) {}
  EngineKind kind() const override { return EngineKind::kVendorF2; }

 protected:
  void do_calibrate(std::span<const float> in) override { conv_.calibrate(in); }
  void do_finalize_calibration() override { conv_.finalize_calibration(); }
  void do_set_filters(std::span<const float> w, std::span<const float> b) override {
    conv_.set_filters(w, b);
  }
  void do_run(std::span<const float> in, std::span<float> out, ThreadPool* pool,
              const PostOps&, std::size_t) override {
    conv_.execute_nchw(in, out, pool);
  }

 private:
  VendorWinoF23 conv_;
};

/// Shape gates mirroring the wrapped constructors' acceptance sets exactly
/// (the fuzzer cross-checks supports == false against a thrown
/// std::invalid_argument). Callers guarantee desc.is_valid().
bool supports_any_ungrouped(const ConvDesc& desc) { return desc.groups == 1; }

bool supports_winograd(const ConvDesc& desc) {
  return desc.groups == 1 && desc.stride == 1 && desc.symmetric_padding() &&
         desc.kernel >= 2;
}

bool supports_winograd_r3(const ConvDesc& desc) {
  return supports_winograd(desc) && desc.kernel == 3;
}

}  // namespace

void register_core_engines(EngineRegistrations& regs) {
  regs.push_back({EngineKind::kFp32Direct, "FP32 direct (im2col GEMM)", "fp32_direct",
                  /*quantized=*/false, /*post_ops=*/true, /*u8_handoff=*/false,
                  /*blocked_io=*/false, supports_any_ungrouped, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(new Fp32DirectEngine(d));
                  }});
  regs.push_back({EngineKind::kFp32WinoF2, "FP32 Winograd F(2x2,3x3)", "fp32_wino_f2",
                  false, false, false, false, supports_winograd, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(
                        new Fp32WinoEngine(d, 2, EngineKind::kFp32WinoF2));
                  }});
  regs.push_back({EngineKind::kFp32WinoF4, "FP32 Winograd F(4x4,3x3)", "fp32_wino_f4",
                  false, false, false, false, supports_winograd, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(
                        new Fp32WinoEngine(d, 4, EngineKind::kFp32WinoF4));
                  }});
  regs.push_back({EngineKind::kInt8Direct, "INT8 direct", "int8_direct",
                  /*quantized=*/true, /*post_ops=*/true, /*u8_handoff=*/true,
                  /*blocked_io=*/true, supports_any_ungrouped, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(new Int8DirectEngine(d));
                  }});
  regs.push_back({EngineKind::kLoWinoF2, "LoWino F(2x2,3x3)", "lowino_f2",
                  true, true, true, true, supports_winograd, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(
                        new LoWinoEngine(d, 2, EngineKind::kLoWinoF2));
                  }});
  regs.push_back({EngineKind::kLoWinoF4, "LoWino F(4x4,3x3)", "lowino_f4",
                  true, true, true, true, supports_winograd, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(
                        new LoWinoEngine(d, 4, EngineKind::kLoWinoF4));
                  }});
  regs.push_back({EngineKind::kLoWinoF6, "LoWino F(6x6,3x3)", "lowino_f6",
                  true, true, true, true, supports_winograd, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(
                        new LoWinoEngine(d, 6, EngineKind::kLoWinoF6));
                  }});
  regs.push_back({EngineKind::kDownscaleF2, "Down-scaling F(2x2,3x3)", "downscale_f2",
                  true, false, false, false, supports_winograd, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(
                        new DownscaleEngine(d, 2, EngineKind::kDownscaleF2));
                  }});
  regs.push_back({EngineKind::kDownscaleF4, "Down-scaling F(4x4,3x3)", "downscale_f4",
                  true, false, false, false, supports_winograd, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(
                        new DownscaleEngine(d, 4, EngineKind::kDownscaleF4));
                  }});
  regs.push_back({EngineKind::kUpcastF2, "Up-casting INT16 F(2x2,3x3)", "upcast_f2",
                  true, false, false, false, supports_winograd_r3, [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(new UpcastEngine(d));
                  }});
  regs.push_back({EngineKind::kVendorF2, "Vendor-style fused INT8 F(2x2,3x3)",
                  "vendor_f2", true, false, false, false, supports_winograd_r3,
                  [](const ConvDesc& d) {
                    return std::unique_ptr<ConvEngine>(new VendorEngine(d));
                  }});
}

std::unique_ptr<ConvEngine> make_conv_engine(EngineKind kind, const ConvDesc& desc) {
  desc.validate();
  std::unique_ptr<ConvEngine> engine = engine_registration(kind).factory(desc);
  engine->desc_ = desc;
  return engine;
}

}  // namespace lowino
