// FP32 direct convolutions.
//
// * `direct_conv_f32_reference` — straightforward NCHW loops; the numerical
//   oracle every other engine in the repository is tested against.
// * `Im2colConvF32` — im2col + AVX-512 GEMM; the "best FP32 implementation"
//   baseline of Section 5.1 (the `fp32_direct` engine).
// * `conv_f32_forward` — the NN runtime's FP32 convolution (training forward,
//   FP32 serving, plan-time reference), grouped shapes included.
#pragma once

#include <cstddef>
#include <span>

#include "common/aligned_buffer.h"
#include "tensor/conv_desc.h"
#include "tensor/layout.h"
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

/// Caller-owned scratch of conv_f32_forward (callers that may run
/// concurrently hold one each; all three buffers only ever grow).
struct ConvF32Scratch {
  AlignedBuffer<float> col;   ///< im2col rows x patch (per image, or the batch)
  AlignedBuffer<float> wt;    ///< patch x K transposed weights (GEMM B operand)
  AlignedBuffer<float> rows;  ///< rows x K GEMM output
};

/// The FP32 convolution of the NN runtime: the layers' forward pass, the
/// serving session's non-quantizable convs and its plan-time reference.
/// Ungrouped shapes run im2col + GEMM per image; grouped shapes (weights
/// K x C/groups x r x r) run direct loops. The store loop applies bias, then
/// `post.sum`, then `post.relu` (a u8 residual is not accepted). The input is
/// NCHW; the output (and `post.sum`, read at the output's offsets) is NCHW or,
/// with `out_layout` kBlocked64 (ungrouped shapes only; grouped ones throw
/// std::invalid_argument), the 64-channel blocked layout with zero padding
/// lanes — the GEMM's pixel-major rows store straight into it. With
/// `keep_col` every image's im2col rows stay in `scratch.col`, image after
/// image, for a training backward pass.
void conv_f32_forward(const ConvDesc& desc, std::span<const float> input,
                      std::span<const float> weights, std::span<const float> bias,
                      std::span<float> output, ConvF32Scratch& scratch,
                      const PostOps& post = {}, ActLayout out_layout = ActLayout::kNchw,
                      bool keep_col = false);

/// Fills `col` ((out_h * out_w) x (C * r * r)) with the im2col expansion of
/// image `b` of `input` (NCHW), zero-padding the halo.
void im2col_f32(const ConvDesc& desc, std::span<const float> input, std::size_t b,
                float* col);

}  // namespace lowino
