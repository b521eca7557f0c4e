// INT8 depthwise convolution: per-channel direct accumulation for grouped
// layers with groups == C (one input channel per filter, channel multiplier
// K/C >= 1). Opens the MobileNet family, which no GEMM-shaped engine covers —
// a depthwise layer has no channel reduction to feed a GEMM, so the implicit
// im2col formulation degenerates to a patch of r*r values per output channel.
//
// Quantization scheme matches the spatial-domain engines: one KL-calibrated
// per-tensor input scale (+128 uint8 shift), exact per-output-channel weight
// scales, and the shared dequant/PostOps/requant tail, so the envelope math
// of testing/envelope.h applies with patch = (C/groups) * r * r = r * r.
// Accumulation is exact int32: each lane starts at -128 x the sum of its
// taps (DESIGN.md decision 2) and adds q * w_q for every tap, with q the
// u8 (+128) input byte, so it ends at the sum of (q - 128) * w_q.
//
// The engine has one kernel, on the 64-channel blocked layout
// (tensor/layout.h), one (image, 64-channel output block) plane at a time:
//   1. The block's input lanes are built once into per-thread scratch as a
//      haloed u8 plane: rows copied (u8 input), quantized (FP32 input) or,
//      with a channel multiplier K/C > 1, lane-gathered (output lane l of
//      block kb reads input channel (64 kb + l) / mult), inside a halo of
//      byte 128, quantized zero. Every tap of every output pixel lands inside
//      the plane, so the kernel has no bounds checks; the halo's taps add
//      128 * w_q, which the per-lane constant cancels.
//   2. A register tile of output pixels along a row x the block's live
//      16-lane groups (ceil(valid / 16): a 32-channel block does half the
//      work of a 64-channel one) accumulates with vpdpbusd on input lanes
//      widened to int32 once per filter row and shared by every horizontal
//      tap that reads them (a compile-time instance for 3x3 at stride 1;
//      other shapes take the same tile with a tap loop).
//   3. The epilogue runs from the accumulators (direct/blocked_epilogue.h,
//      BlockedEpilogue::store_groups) and stores whole 64-lane pixels, the
//      padding lanes as quantized zero.
// CPUs without AVX-512 VNNI run the same loop lane by lane (selected at run
// time by cpu_features()). The NCHW entry points wrap the core in
// pack -> core -> unpack (tensor/blocked_staging.h).
//
// Mirrors the Euler `elx_conv_direct_depthwise_lp` specialization
// (SNIPPETS.md). Supports any kernel, stride and asymmetric padding.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
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
/// workspace allocation — unless desc.is_depthwise() (groups == C > 1,
/// K a multiple of C).
class Int8DepthwiseConv {
 public:
  explicit Int8DepthwiseConv(const ConvDesc& desc);

  void calibrate(std::span<const float> input_nchw);
  void finalize_calibration();
  /// Bypass: set the spatial-domain threshold directly.
  void set_input_threshold(float tau);

  /// Weights in the grouped layout: K x (C/groups = 1) x r x r.
  void set_filters(std::span<const float> weights, std::span<const float> bias = {});

  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr, const PostOps& post = {},
                    std::size_t images = kAllImages);

  /// Serving u8 hand-off — identical contract to Int8DirectConv.
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
  std::size_t taps_ = 0;  ///< r * r, the per-channel patch

  Histogram input_hist_;
  QuantParams input_params_;
  bool input_scales_set_ = false;

  AlignedBuffer<std::int32_t> w_q_;     ///< [K/64][r*r][64] quantized filters, zero-padded
  AlignedBuffer<std::int32_t> w_comp_;  ///< per channel: -128 x the sum of its taps
  AlignedBuffer<float> w_dequant_;      ///< per channel: 1/(scale_in*scale_w)
  AlignedBuffer<float> bias_;           ///< (the per-channel arrays pad to K/64 blocks)
  bool filters_set_ = false;
  AlignedBuffer<float> weights_fp32_;  ///< kept until scales are known

  /// Per-thread scratch: one haloed u8 input plane.
  std::vector<AlignedBuffer<std::uint8_t>> scratch_;
  BlockedStaging staging_;  ///< the NCHW entry points' blocked buffers

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
