// FP32 direct convolutions.
//
// * `direct_conv_f32_reference` — straightforward NCHW loops; the numerical
//   oracle every other engine in the repository is tested against.
// * `Im2colConvF32` — im2col + AVX-512 GEMM; the "best FP32 implementation"
//   baseline of Section 5.1 (the `fp32_direct` engine).
// * `conv_f32_forward` — the NN runtime's FP32 convolution (training forward,
//   FP32 serving, plan-time reference), grouped shapes included.
// * `conv_f32_blocked` — the same convolution writing the 64-channel blocked
//   layout, FP32 or requantized to u8: the serving session's stems.
#pragma once

#include <cstddef>
#include <span>

#include "common/aligned_buffer.h"
#include "quant/quantize.h"
#include "tensor/conv_desc.h"
#include "tensor/post_ops.h"

namespace lowino {

class ThreadPool;

/// output[b][k][oh][ow] = bias[k] + sum_{c,i,j} input[b][c][oh+i-pad][ow+j-pad]
///                        * weights[k][c][i][j]; optional fused ReLU.
void direct_conv_f32_reference(const ConvDesc& desc, std::span<const float> input,
                               std::span<const float> weights, std::span<const float> bias,
                               std::span<float> output, bool relu = false,
                               ThreadPool* pool = nullptr);

/// im2col + FP32 GEMM convolution (NCHW in/out).
class Im2colConvF32 {
 public:
  explicit Im2colConvF32(const ConvDesc& desc);

  /// `weights`: K x C x r x r row-major; `bias` optional (length K).
  void set_filters(std::span<const float> weights, std::span<const float> bias = {});
  /// `post` fuses the residual +sum / ReLU epilogue into the bias store loop
  /// (see tensor/post_ops.h).
  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr, const PostOps& post = {});

  const ConvDesc& desc() const { return desc_; }

 private:
  ConvDesc desc_;
  std::size_t patch_ = 0;  ///< C * r * r
  AlignedBuffer<float> wT_;   ///< patch x K (GEMM B operand), K padded to 16
  std::size_t k_pad_ = 0;
  AlignedBuffer<float> bias_;
  AlignedBuffer<float> col_;  ///< im2col buffer (out_h*out_w) x patch
  AlignedBuffer<float> out_scratch_;  ///< (out_h*out_w) x k_pad
};

/// Caller-owned scratch of conv_f32_forward and conv_f32_blocked (callers
/// that may run concurrently hold one each; all three buffers only ever grow).
struct ConvF32Scratch {
  /// im2col rows x patch, per image or the batch (NCHW); one image's
  /// zero-halo copy, C x (H + 2 pad) x (W + 2 pad_w) (blocked).
  AlignedBuffer<float> col;
  /// The GEMM B operand: patch x K transposed weights (NCHW); [K/64] x patch
  /// x 64 weights then the 64-lane-padded bias, zero past K (blocked).
  AlignedBuffer<float> wt;
  AlignedBuffer<float> rows;  ///< rows x K GEMM output (NCHW only)
};

/// The FP32 convolution of the NN runtime: the layers' forward pass, the
/// serving session's NCHW non-quantizable convs and its plan-time reference.
/// NCHW in and out. Ungrouped shapes run im2col + GEMM per image; grouped
/// shapes (weights K x C/groups x r x r) run direct loops. The store loop
/// applies bias, then `post.sum` (NCHW), then `post.relu` (a u8 residual is
/// not accepted). With `keep_col` every image's im2col rows stay in
/// `scratch.col`, image after image, for a training backward pass.
void conv_f32_forward(const ConvDesc& desc, std::span<const float> input,
                      std::span<const float> weights, std::span<const float> bias,
                      std::span<float> output, ConvF32Scratch& scratch,
                      const PostOps& post = {}, bool keep_col = false);

/// conv_f32_forward of an ungrouped shape (grouped ones throw
/// std::invalid_argument) from an NCHW input to the 64-channel blocked layout
/// (tensor/layout.h), with an optional requant to u8: an implicit GEMM over
/// each image's zero-halo copy (no im2col), 6 output pixels by up to 4 x 16
/// lanes per register tile, skipping 16-lane groups that hold only padding
/// lanes. Every output accumulates from zero by one FMA per (c, i, j) in
/// order, then adds bias — the GEMM's order — so the FP32 values are
/// bit-identical to conv_f32_forward's. Epilogue: bias, `post.sum` (FP32,
/// blocked like the output; may alias it), `post.relu`, then, when `out_u8`
/// is set, quantize_u8_shift128_scaled at `out_u8->scale` (common/saturate.h:
/// NaN -> 128, +-Inf saturate). Padding lanes hold 0.0f or byte 128.
/// `output` holds desc.batch images of FP32 or u8 elements.
void conv_f32_blocked(const ConvDesc& desc, const float* input, std::span<const float> weights,
                      std::span<const float> bias, void* output, ConvF32Scratch& scratch,
                      const PostOps& post = {}, const QuantParams* out_u8 = nullptr);

/// Fills `col` ((out_h * out_w) x (C * r * r)) with the im2col expansion of
/// image `b` of `input` (NCHW), zero-padding the halo.
void im2col_f32(const ConvDesc& desc, std::span<const float> input, std::size_t b,
                float* col);

}  // namespace lowino
