// INT8 direct convolution (implicit GEMM) — the stand-in for oneDNN's
// low-precision direct convolution baseline (Section 5.1).
//
// Spatial-domain post-training quantization: one KL-calibrated scale for the
// input activations, exact per-output-channel scales for the weights. The
// quantized im2col patches (shifted by +128 into uint8) feed the same VNNI
// GEMM substrate as LoWino, so performance comparisons isolate the algorithm,
// not the kernel quality.
#pragma once

#include <cstdint>
#include <span>

#include "common/aligned_buffer.h"
#include "gemm/int8_gemm.h"
#include "quant/histogram.h"
#include "quant/quantize.h"
#include "tensor/conv_desc.h"
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
  /// loop (see tensor/post_ops.h). Both execute entry points run only the
  /// first `images` images (ConvDesc::resolve_images); the output of later
  /// images is left untouched.
  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr, const PostOps& post = {},
                    std::size_t images = kAllImages);

  /// Serving u8 hand-off (tensor/dtype.h). set_input_u8 ADOPTS the hand-off
  /// quantization as the engine's spatial input scale — the producer's bytes
  /// already are round_ne(scale * x) + 128, exactly what im2col would have
  /// produced — and re-packs the weights so the dequant table matches.
  /// set_output_u8 appends the requant stage (bias -> sum -> relu -> requant
  /// with qp.scale) to the store loop. Only execute_typed honors either.
  void set_input_u8(const QuantParams& qp);
  void set_output_u8(const QuantParams& qp);
  bool input_is_u8() const { return in_u8_; }
  bool output_is_u8() const { return out_u8_; }

  /// Runs on NCHW buffers typed per the configured hand-off dtypes (u8 after
  /// set_input_u8 / set_output_u8, FP32 otherwise); `post.sum_u8` may supply
  /// a u8 residual with either configuration.
  void execute_typed(const void* input, void* output, ThreadPool* pool = nullptr,
                     const PostOps& post = {}, std::size_t images = kAllImages);

  const ConvDesc& desc() const { return desc_; }
  float input_scale() const { return input_params_.scale; }

 private:
  ConvDesc desc_;
  std::size_t patch_ = 0;       ///< C * r * r
  std::size_t patch_pad_ = 0;   ///< rounded to 4
  std::size_t k_pad_ = 0;       ///< rounded to 16

  Histogram input_hist_;
  QuantParams input_params_;
  bool input_scales_set_ = false;

  AlignedBuffer<std::int8_t> w_packed_;   ///< vpdpbusd layout (patch_pad/4) x (k_pad*4)
  AlignedBuffer<std::int32_t> comp_;      ///< [k_pad]
  AlignedBuffer<float> w_dequant_;        ///< per-channel 1/(scale_in*scale_w)
  AlignedBuffer<float> bias_;
  bool filters_set_ = false;
  AlignedBuffer<float> weights_fp32_;     ///< kept until scales are known

  AlignedBuffer<std::uint8_t> col_;       ///< quantized im2col buffer
  AlignedBuffer<std::int32_t> acc_;       ///< GEMM result
  Int8GemmBlocking blocking_;

  bool in_u8_ = false;
  bool out_u8_ = false;
  QuantParams out_u8_qp_;

  void pack_weights();
  void execute_impl(const void* input, void* output, bool in_u8, bool out_u8,
                    ThreadPool* pool, const PostOps& post, std::size_t images);
};

}  // namespace lowino
