// INT8 direct convolution (implicit GEMM) — the stand-in for oneDNN's
// low-precision direct convolution baseline (Section 5.1).
//
// Spatial-domain post-training quantization: one KL-calibrated scale for the
// input activations, exact per-output-channel scales for the weights. The
// quantized im2col patches (shifted by +128 into uint8) feed the same VNNI
// instruction (vpdpbusd on packed weights, compensation-initialized
// accumulators) as LoWino's GEMM, so performance comparisons isolate the
// algorithm, not the kernel quality.
//
// The engine has one kernel, on the 64-channel blocked layout
// (tensor/layout.h). A patch row is laid out in (i, j, c) order — tap by
// tap, each tap the C channels of one input pixel — with the weights packed
// to match, so im2col is a copy of 64-byte pixel rows: per tap, each channel
// block's 64 lanes land at the tap's offset, and a block's padding lanes
// (quantized zero) are overwritten by the next tap or meet zero filter rows.
// Out-of-bounds taps are 128 (quantized zero), which the compensation row
// accounts for. A u8 input is gathered straight from the caller's buffer; an
// FP32 input is quantized one image at a time into per-thread scratch (each
// worker quantizes the images its row chunks touch), never per patch element.
// A pointwise conv (r = 1) at stride 1 on a u8 input with C <= 64 gathers
// nothing: its pixel rows already are the patch rows, so the kernel
// multiplies the input in place (lda = 64, reduction over round_up(C, 4)
// lanes, so padding lanes are never multiplied). Work items are (image, chunk
// of output pixels): the chunk's patch rows, then per 64-channel output block
// one register tile of up to 6 pixels x 4 16-lane groups at a time, whose
// accumulators go through the dequant/PostOps/requant epilogue
// (direct/blocked_epilogue.h) straight from the registers — no int32 sum
// reaches memory (CPUs without AVX-512 VNNI run the same tiles lane by lane
// on a stack array). The NCHW entry points wrap that core in pack -> core ->
// unpack (tensor/blocked_staging.h). The integer sums are exact and the
// epilogue works per element, so the result does not depend on the layout,
// the patch order or the tile.
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

class Int8DirectConv {
 public:
  explicit Int8DirectConv(const ConvDesc& desc);

  /// Accumulates input-activation statistics (NCHW batch of the layer shape).
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

  /// Serving u8 hand-off (tensor/dtype.h). set_input_u8 ADOPTS the hand-off
  /// quantization as the engine's spatial input scale — the producer's bytes
  /// already are round_ne(scale * x) + 128, exactly what im2col would have
  /// produced — and re-packs the weights so the dequant table matches.
  /// set_output_u8 appends the requant stage (bias -> sum -> relu -> requant
  /// with qp.scale) to the store loop. Only execute_typed and
  /// execute_blocked_typed honor either.
  void set_input_u8(const QuantParams& qp);
  void set_output_u8(const QuantParams& qp);
  bool input_is_u8() const { return in_u8_; }
  bool output_is_u8() const { return out_u8_; }

  /// Runs on NCHW buffers typed per the configured hand-off dtypes (u8 after
  /// set_input_u8 / set_output_u8, FP32 otherwise); `post.sum_u8` may supply
  /// a u8 residual with either configuration.
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
  std::size_t patch_ = 0;       ///< C * r * r
  std::size_t patch_pad_ = 0;   ///< rounded to 4 (the GEMM's reduction dim)
  std::size_t k_pad_ = 0;       ///< rounded to 16

  Histogram input_hist_;
  QuantParams input_params_;
  bool input_scales_set_ = false;

  AlignedBuffer<std::int8_t> w_packed_;   ///< vpdpbusd layout (patch_pad/4) x (k_pad*4)
  AlignedBuffer<std::int32_t> comp_;      ///< [k_pad]
  AlignedBuffer<float> w_dequant_;        ///< [K] per-channel 1/(scale_in*scale_w)
  AlignedBuffer<float> bias_;             ///< [K]
  bool filters_set_ = false;
  AlignedBuffer<float> weights_fp32_;     ///< kept until scales are known

  /// Output pixels per work item: kRowChunk patch rows (a multiple of the
  /// 6-row register tile) and their epilogue.
  static constexpr std::size_t kRowChunk = 96;
  /// Per-thread scratch: the quantized image (FP32 input only) and the patch
  /// panel (plus one block of slack for the last row's tail copy; none when
  /// the input is multiplied in place).
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
