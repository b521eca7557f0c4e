// LoWinoConvolution — the library's primary public API.
//
// Lifecycle (mirrors the paper's deployment flow):
//
//   LoWinoConvolution conv(desc, config);       // choose F(m x m, r x r) etc.
//   conv.calibrate(samples, n);                 // feed ~500 sample inputs
//   conv.finalize_calibration();                // KL thresholds (Eq. 7)
//   conv.set_filters(weights, bias);            // offline transform + pack
//   conv.execute_nchw(input, output, &pool);    // low-precision inference
//
// The input transform, batched INT8 GEMM and output transform run entirely in
// the blocked layouts of Table 1. execute_blocked / execute_blocked_typed are
// that core on caller-blocked buffers — the serving session chains them with
// activations kept blocked between ops (serve/session.h, assign_layouts);
// execute_nchw / execute_nchw_typed wrap the same core in a pack -> core ->
// unpack of the interface NCHW layout (calibration, tuning, tests, the
// shoot-out and the forward-engine runtime).
#pragma once

#include <cstdint>
#include <span>

#include "common/aligned_buffer.h"
#include "gemm/int8_gemm.h"
#include "lowino/engine_config.h"
#include "lowino/filter_pack.h"
#include "lowino/fused.h"
#include "lowino/input_transform.h"
#include "lowino/output_transform.h"
#include "lowino/scales.h"
#include "tensor/blocked_staging.h"
#include "tensor/conv_desc.h"
#include "tensor/post_ops.h"
#include "winograd/transform.h"

namespace lowino {

class ThreadPool;

class LoWinoConvolution {
 public:
  /// Throws std::invalid_argument for non-unit stride or unsupported m/r.
  explicit LoWinoConvolution(const ConvDesc& desc, const LoWinoConfig& config = {});

  const ConvDesc& desc() const { return desc_; }
  const LoWinoConfig& config() const { return config_; }
  const WinogradGeometry& geometry() const { return geo_; }
  const TransformMatrices& transform() const { return *tm_; }
  const WinogradScales& scales() const { return scales_; }
  /// The statistics calibrate() has collected (one histogram per tap).
  const WinogradCalibrator& calibrator() const { return calibrator_; }

  /// Accumulates calibration statistics from a batch of NCHW FP32 inputs
  /// with the layer's B x C x H x W shape. Call repeatedly, then finalize.
  /// `tile_stride` subsamples tiles (1 = use every tile).
  void calibrate(std::span<const float> input_nchw, std::size_t tile_stride = 1);

  /// Computes the Winograd-domain input scales from collected statistics.
  void finalize_calibration();

  /// Bypasses calibration: one uniform Winograd-domain threshold for every
  /// tile position (used by tests and the ablation bench).
  void set_uniform_input_threshold(float tau);

  /// Bypasses calibration with explicit per-position thresholds (length T).
  void set_input_thresholds(std::span<const float> taus);

  /// Offline filter transform + quantization + packing. `weights` is
  /// row-major K x C x r x r; `bias` (length K) is optional.
  void set_filters(std::span<const float> weights, std::span<const float> bias = {});

  bool ready() const { return filters_set_ && input_scales_set_; }

  /// Runs the convolution on an NCHW input, writing an NCHW output.
  /// `post` is the optional fused epilogue (residual +sum, ReLU) applied
  /// inside the de-quant/output-transform pass — see tensor/post_ops.h. Its
  /// NCHW residual is packed to the blocked layout before the core runs.
  ///
  /// Every execute_*() entry point takes a prefix-batch `images` count
  /// (ConvDesc::resolve_images): only images [0, images) are computed —
  /// their tiles, and the GEMM n-blocks that hold them — bit-identical to a
  /// whole-batch run; the output of later images is left untouched.
  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr, const PostOps& post = {},
                    std::size_t images = kAllImages);

  /// Runs on pre-blocked FP32 activations (B x [C/64] x H x W x 64, padding
  /// lanes zero). A `post` residual is blocked too, in the output's layout,
  /// and may alias `output` (each output tile reads its residual positions
  /// before storing them, and tiles are disjoint).
  void execute_blocked(std::span<const float> input, std::span<float> output,
                       ThreadPool* pool = nullptr, const PostOps& post = {},
                       std::size_t images = kAllImages);

  /// Serving u8 hand-off configuration (tensor/dtype.h). After set_input_u8,
  /// execute_nchw_typed reads u8 bytes (q = round_ne(qp.scale * x) + 128) and
  /// the tile gather de-quantizes them on the fly with qp.inv_scale; after
  /// set_output_u8 the output epilogue gains the trailing requant stage
  /// (bias -> sum -> relu -> requant with qp.scale). Only execute_nchw_typed
  /// honors the configuration — the span-based FP32 entry points above are
  /// unaffected, so calibration/tuning flows stay unchanged.
  void set_input_u8(const QuantParams& qp) {
    in_u8_ = true;
    in_u8_qp_ = qp;
  }
  void set_output_u8(const QuantParams& qp) {
    out_u8_ = true;
    out_u8_qp_ = qp;
  }
  bool input_is_u8() const { return in_u8_; }
  bool output_is_u8() const { return out_u8_; }

  /// Runs on NCHW buffers whose element types follow the configured hand-off
  /// dtypes (u8 after set_input_u8 / set_output_u8, FP32 otherwise).
  /// `post.sum_u8` may supply a u8 residual with either configuration.
  void execute_nchw_typed(const void* input, void* output, ThreadPool* pool = nullptr,
                          const PostOps& post = {}, std::size_t images = kAllImages);

  /// execute_nchw_typed's core on blocked buffers: input, output and any
  /// residual are blocked (padding lanes quantized zero: 0.0f, or byte 128
  /// for u8) with the configured hand-off dtypes; the residual may alias the
  /// output as in execute_blocked.
  void execute_blocked_typed(const void* input, void* output, ThreadPool* pool = nullptr,
                             const PostOps& post = {}, std::size_t images = kAllImages);

  BlockedActLayout input_layout() const { return in_layout_; }
  BlockedActLayout output_layout() const { return out_layout_; }

  /// Resolves config.execution_mode for a concrete thread count: kAuto picks
  /// kFused when the staged V + Z workspace exceeds num_threads x L2 size —
  /// i.e. exactly when the staged intermediates stop fitting in cache.
  ExecutionMode resolve_execution_mode(std::size_t num_threads = 1) const;

  /// Bytes of intermediate state, for the memory-overhead analysis: the full
  /// V + Z tensors in staged mode, the per-thread panel arenas in fused mode.
  /// Passing kAuto reports the mode resolve_execution_mode(num_threads) picks.
  std::size_t workspace_bytes(ExecutionMode mode, std::size_t num_threads) const;

  /// Reports the mode + thread count of the last execute_*() call; before any
  /// execute an unresolved kAuto reports the staged tensors (the historical
  /// meaning — the full V + Z footprint this layer *would* materialize).
  std::size_t workspace_bytes() const {
    const ExecutionMode m =
        last_mode_ != ExecutionMode::kAuto ? last_mode_ : ExecutionMode::kStaged;
    return workspace_bytes(config_.execution_mode == ExecutionMode::kAuto
                               ? m
                               : config_.execution_mode,
                           last_threads_);
  }

  /// The mode the last execute_*() call actually ran in (kAuto until then).
  ExecutionMode last_execution_mode() const { return last_mode_; }

 private:
  void maybe_build_dequant();
  /// The blocked core over the first `images` images (already resolved).
  void execute_blocked_impl(const void* input, void* output, DType in_dtype, DType out_dtype,
                            ThreadPool* pool, const PostOps& post, std::size_t images);
  void execute_nchw_impl(const void* input, void* output, DType in_dtype, DType out_dtype,
                         ThreadPool* pool, const PostOps& post, std::size_t images);

  ConvDesc desc_;
  LoWinoConfig config_;
  WinogradGeometry geo_;
  const TransformMatrices* tm_ = nullptr;
  CodeletPlan bt_plan_;
  CodeletPlan at_plan_;
  bool canonical_tm_ = false;

  TransformedInputLayout v_layout_;
  TransformedOutputLayout z_layout_;
  BlockedActLayout in_layout_;
  BlockedActLayout out_layout_;

  WinogradScales scales_;
  WinogradCalibrator calibrator_;
  PackedFilters filters_;
  bool filters_set_ = false;
  bool input_scales_set_ = false;

  AlignedBuffer<std::uint8_t> v_buf_;
  AlignedBuffer<std::int32_t> z_buf_;
  BlockedStaging staging_;  ///< the NCHW entry points' blocked buffers
  bool in_u8_ = false;
  bool out_u8_ = false;
  QuantParams in_u8_qp_;
  QuantParams out_u8_qp_;
  FusedWorkspace fused_ws_;
  Int8GemmScratch gemm_scratch_;
  ExecutionMode last_mode_ = ExecutionMode::kAuto;
  std::size_t last_threads_ = 1;
};

/// Clamps and repairs a blocking configuration for a concrete layer shape
/// (Cblk <= padded C, Kblk <= padded K, Nblk <= padded tile count,
/// divisibility constraints). `total_tiles == 0` skips the Nblk clamp.
/// Exposed for the tuner.
Int8GemmBlocking adapt_blocking(Int8GemmBlocking blocking, std::size_t padded_c,
                                std::size_t padded_k, std::size_t total_tiles = 0);

}  // namespace lowino
