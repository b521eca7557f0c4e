// INT8 1x1 convolution: a pure blocked VNNI GEMM over the channel dimension.
//
// A 1x1 convolution is a (OH*OW) x C by C x K matrix product per image — no
// im2col patch expansion, no out-of-bounds checks (validate() forces pad = 0
// when r = 1). The engine has one kernel, on the 64-channel blocked layout
// (tensor/layout.h): its pixel rows are the GEMM's A rows. A u8 input with
// C <= 64 at stride 1 is multiplied straight off the caller's buffer (lda =
// 64, reduction over round_up(C, 4) lanes, so padding lanes are never
// multiplied); with C > 64 or stride > 1 each row chunk's 64-byte pixel rows
// are copied side by side into a per-thread panel, and an FP32 input is
// quantized straight into that panel. The dequant/PostOps/requant epilogue
// then walks each pixel's 64 contiguous output lanes
// (direct/blocked_epilogue.h).
// The NCHW entry points wrap that core in pack -> core -> unpack
// (tensor/blocked_staging.h). Quantization scheme, GEMM substrate and the
// epilogue's float order are shared with Int8DirectConv, so the speedup
// isolates the A-row build.
//
// Mirrors the Euler `elx_conv_direct_1x1_lp` specialization (SNIPPETS.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "gemm/int8_gemm.h"
#include "quant/histogram.h"
#include "quant/quantize.h"
#include "tensor/blocked_staging.h"
#include "tensor/conv_desc.h"
#include "tensor/dtype.h"
#include "tensor/post_ops.h"

namespace lowino {

class ThreadPool;

/// Same public surface as Int8DirectConv (the conformance fuzzer drives both
/// uniformly). The constructor throws std::invalid_argument — before any
/// workspace allocation — unless kernel == 1 and groups == 1; any stride is
/// accepted (a strided pixel row is copied like any other).
class Int8Conv1x1Conv {
 public:
  explicit Int8Conv1x1Conv(const ConvDesc& desc);

  void calibrate(std::span<const float> input_nchw);
  void finalize_calibration();
  /// Bypass: set the spatial-domain threshold directly.
  void set_input_threshold(float tau);

  void set_filters(std::span<const float> weights, std::span<const float> bias = {});

  /// `post` fuses the residual +sum / ReLU epilogue into the dequant store
  /// loop (see tensor/post_ops.h).
  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr, const PostOps& post = {},
                    std::size_t images = kAllImages);

  /// Serving u8 hand-off — identical contract to Int8DirectConv: set_input_u8
  /// ADOPTS the hand-off quantization as the spatial input scale, set_output_u8
  /// appends the requant stage. Only execute_typed and execute_blocked_typed
  /// honor either.
  void set_input_u8(const QuantParams& qp);
  void set_output_u8(const QuantParams& qp);
  bool input_is_u8() const { return in_u8_; }
  bool output_is_u8() const { return out_u8_; }

  void execute_typed(const void* input, void* output, ThreadPool* pool = nullptr,
                     const PostOps& post = {}, std::size_t images = kAllImages);

  /// execute_typed's core on blocked buffers (B x [C/64] x H x W x 64):
  /// input, output and any residual are blocked with the configured hand-off
  /// dtypes, padding lanes quantized zero (0.0f, or byte 128 for u8); the
  /// output's padding lanes are written as quantized zero. The residual may
  /// alias the output: each pixel reads its residual lanes before storing.
  /// Every execute entry point runs only the first `images` images
  /// (ConvDesc::resolve_images); the output of later images is left
  /// untouched.
  void execute_blocked_typed(const void* input, void* output, ThreadPool* pool = nullptr,
                             const PostOps& post = {}, std::size_t images = kAllImages);

  const ConvDesc& desc() const { return desc_; }
  float input_scale() const { return input_params_.scale; }

 private:
  ConvDesc desc_;
  std::size_t c_pad_ = 0;  ///< C rounded to 4 (the GEMM's reduction dim)
  std::size_t k_pad_ = 0;  ///< K rounded to 16

  Histogram input_hist_;
  QuantParams input_params_;
  bool input_scales_set_ = false;

  AlignedBuffer<std::int8_t> w_packed_;  ///< vpdpbusd layout (c_pad/4) x (k_pad*4)
  AlignedBuffer<std::int32_t> comp_;     ///< [k_pad]
  AlignedBuffer<float> w_dequant_;       ///< per-channel 1/(scale_in*scale_w)
  AlignedBuffer<float> bias_;
  bool filters_set_ = false;
  AlignedBuffer<float> weights_fp32_;  ///< kept until scales are known

  /// Output pixels per work item: one GEMM of kRowChunk A rows (a multiple
  /// of the 6-row register tile) and its epilogue.
  static constexpr std::size_t kRowChunk = 96;
  /// Per-thread scratch: the A panel (when the input is not used in place)
  /// followed by the kRowChunk x k_pad int32 accumulators.
  std::vector<AlignedBuffer<std::uint8_t>> scratch_;
  BlockedStaging staging_;  ///< the NCHW entry points' blocked buffers
  Int8GemmBlocking blocking_;

  bool in_u8_ = false;
  bool out_u8_ = false;
  QuantParams out_u8_qp_;

  void pack_weights();
  void execute_nchw_impl(const void* input, void* output, DType in_dtype, DType out_dtype,
                         ThreadPool* pool, const PostOps& post, std::size_t images);
  /// The core over `batch` images (the NCHW entry points run it a few
  /// images at a time).
  void execute_blocked_impl(const void* input, void* output, DType in_dtype, DType out_dtype,
                            ThreadPool* pool, const PostOps& post, std::size_t batch);
};

}  // namespace lowino
