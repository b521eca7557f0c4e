// Fused convolution epilogue description (euler's has_bias/has_relu/has_sum
// flag style, see elx_conv_wino_lp).
//
// A convolution engine that advertises post-op support applies the epilogue
//
//   out = relu? . (conv(in) + bias + sum)
//
// inside its single output pass — for LoWino that is the de-quantization +
// output-transform stage, for the direct engines the accumulator store loop.
// The stage order is fixed: bias, then the residual sum, then ReLU. Bias is
// not carried here because it already rides with the packed filters
// (set_filters / PackedFilters) and was fused into the output pass from the
// start; PostOps adds the two stages that used to be separate element-wise
// passes over the activation tensor.
//
// Fusing is bit-exact by construction: the unfused path stores y = conv + bias
// to memory and a later pass computes max(0, y + res). Float stores/loads are
// value-preserving and the epilogue contains no multiplies (so no FMA
// contraction), hence max(0, (conv + bias) + res) evaluated in registers
// performs the identical float operation sequence. The build does not enable
// -ffast-math, so compilers may not reassociate either.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lowino {

struct PostOps {
  bool relu = false;
  /// Residual source for the "+sum" stage, or nullptr. Exactly the
  /// convolution's output shape (B x K x OH x OW), in the output's layout:
  /// NCHW for the NCHW entry points, blocked for the blocked ones. Applied
  /// before ReLU. May alias the output tensor (in-place sum): every element is
  /// read before the corresponding store.
  const float* sum = nullptr;

  /// u8 residual source (serving u8 hand-off), or nullptr. Same shape and
  /// layout as `sum`; bytes carry the +128 zero-point encoding and are
  /// de-quantized on the fly as (q - 128) * sum_u8_inv_scale before the add. At most one of
  /// `sum` / `sum_u8` may be set. Only engines with u8 hand-off support
  /// (ConvEngine::supports_u8_handoff) accept a u8 residual.
  const std::uint8_t* sum_u8 = nullptr;
  float sum_u8_inv_scale = 1.0f;

  bool none() const { return !relu && sum == nullptr && sum_u8 == nullptr; }
  bool has_sum() const { return sum != nullptr || sum_u8 != nullptr; }
};

}  // namespace lowino
