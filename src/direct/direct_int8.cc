#include "direct/direct_int8.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/saturate.h"
#include "quant/calibration.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

namespace lowino {
namespace {

/// im2col with fused spatial quantization and the +128 shift: every patch
/// value is saturate(round(x * scale)) + 128 as uint8; zero padding becomes
/// exactly 128 (= quantized zero), which the compensation row accounts for.
void im2col_quantized(const ConvDesc& desc, std::span<const float> input, std::size_t b,
                      float scale, std::size_t patch_pad, std::uint8_t* col) {
  const std::size_t C = desc.in_channels, H = desc.height, W = desc.width;
  const std::size_t r = desc.kernel, pad = desc.height_pad(), pad_w = desc.width_pad();
  const std::size_t OH = desc.out_height(), OW = desc.out_width();
  for (std::size_t oh = 0; oh < OH; ++oh) {
    for (std::size_t ow = 0; ow < OW; ++ow) {
      std::uint8_t* row = col + (oh * OW + ow) * patch_pad;
      std::size_t idx = 0;
      for (std::size_t c = 0; c < C; ++c) {
        for (std::size_t i = 0; i < r; ++i) {
          const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * desc.stride + i) -
                                    static_cast<std::ptrdiff_t>(pad);
          for (std::size_t j = 0; j < r; ++j) {
            const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * desc.stride + j) -
                                      static_cast<std::ptrdiff_t>(pad_w);
            const bool oob = ih < 0 || ih >= static_cast<std::ptrdiff_t>(H) || iw < 0 ||
                             iw >= static_cast<std::ptrdiff_t>(W);
            if (oob) {
              row[idx++] = 128;
            } else {
              const float v = input[((b * C + c) * H + ih) * W + iw];
              const std::int32_t q = round_nearest_even(v * scale) + 128;
              row[idx++] = static_cast<std::uint8_t>(std::clamp(q, 0, 255));
            }
          }
        }
      }
      // Padding channels: quantized zero, annihilated by the zero filter rows.
      for (; idx < patch_pad; ++idx) row[idx] = 128;
    }
  }
}

/// u8 hand-off im2col: the input bytes already carry the engine's quantization
/// (set_input_u8 adopted the producer's scale), so patches are a plain byte
/// gather; padding stays 128 = quantized zero, identical to the FP32 path.
void im2col_u8(const ConvDesc& desc, const std::uint8_t* input, std::size_t b,
               std::size_t patch_pad, std::uint8_t* col) {
  const std::size_t C = desc.in_channels, H = desc.height, W = desc.width;
  const std::size_t r = desc.kernel, pad = desc.height_pad(), pad_w = desc.width_pad();
  const std::size_t OH = desc.out_height(), OW = desc.out_width();
  for (std::size_t oh = 0; oh < OH; ++oh) {
    for (std::size_t ow = 0; ow < OW; ++ow) {
      std::uint8_t* row = col + (oh * OW + ow) * patch_pad;
      std::size_t idx = 0;
      for (std::size_t c = 0; c < C; ++c) {
        for (std::size_t i = 0; i < r; ++i) {
          const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * desc.stride + i) -
                                    static_cast<std::ptrdiff_t>(pad);
          for (std::size_t j = 0; j < r; ++j) {
            const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * desc.stride + j) -
                                      static_cast<std::ptrdiff_t>(pad_w);
            const bool oob = ih < 0 || ih >= static_cast<std::ptrdiff_t>(H) || iw < 0 ||
                             iw >= static_cast<std::ptrdiff_t>(W);
            row[idx++] = oob ? std::uint8_t{128} : input[((b * C + c) * H + ih) * W + iw];
          }
        }
      }
      for (; idx < patch_pad; ++idx) row[idx] = 128;
    }
  }
}

}  // namespace

Int8DirectConv::Int8DirectConv(const ConvDesc& desc) : desc_(desc) {
  desc.validate();
  desc.require_ungrouped("Int8DirectConv");
  patch_ = desc_.in_channels * desc_.kernel * desc_.kernel;
  patch_pad_ = round_up(patch_, 4);
  k_pad_ = round_up(desc_.out_channels, 16);
}

void Int8DirectConv::calibrate(std::span<const float> input_nchw) {
  input_hist_.collect(input_nchw);
}

void Int8DirectConv::finalize_calibration() {
  input_params_ = calibrate_params(input_hist_);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8DirectConv::set_input_threshold(float tau) {
  input_params_ = QuantParams::from_threshold(tau);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8DirectConv::set_filters(std::span<const float> weights, std::span<const float> bias) {
  assert(weights.size() >= desc_.out_channels * patch_);
  weights_fp32_.reset(desc_.out_channels * patch_);
  std::memcpy(weights_fp32_.data(), weights.data(),
              desc_.out_channels * patch_ * sizeof(float));
  bias_.reset(desc_.out_channels);
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), desc_.out_channels * sizeof(float));
  filters_set_ = true;
  if (input_scales_set_) pack_weights();
}

void Int8DirectConv::pack_weights() {
  const std::size_t K = desc_.out_channels;
  // Per-channel exact weight scales.
  std::vector<float> w_scale(K);
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t p = 0; p < patch_; ++p) {
      amax = std::max(amax, std::abs(weights_fp32_[k * patch_ + p]));
    }
    w_scale[k] = QuantParams::from_threshold(amax).scale;
  }
  // Quantize to the row-major (patch_pad x k_pad) B matrix, then pack.
  std::vector<std::int8_t> w_q(patch_pad_ * k_pad_, 0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t p = 0; p < patch_; ++p) {
      w_q[p * k_pad_ + k] = saturate_cast_i8(weights_fp32_[k * patch_ + p] * w_scale[k]);
    }
  }
  w_packed_.reset((patch_pad_ / 4) * k_pad_ * 4);
  pack_b_vpdpbusd(w_q.data(), patch_pad_, k_pad_, w_packed_.data());
  comp_.reset(k_pad_);
  compute_compensation(w_q.data(), patch_pad_, k_pad_, comp_.data());
  w_dequant_.reset(K);
  for (std::size_t k = 0; k < K; ++k) {
    w_dequant_[k] = 1.0f / (input_params_.scale * w_scale[k]);
  }
}

void Int8DirectConv::set_input_u8(const QuantParams& qp) {
  input_params_ = qp;
  input_scales_set_ = true;
  in_u8_ = true;
  if (filters_set_) pack_weights();  // w_dequant_ depends on the input scale
}

void Int8DirectConv::set_output_u8(const QuantParams& qp) {
  out_u8_ = true;
  out_u8_qp_ = qp;
}

void Int8DirectConv::execute_nchw(std::span<const float> input, std::span<float> output,
                                  ThreadPool* pool, const PostOps& post, std::size_t images) {
  // The span API is FP32-by-contract regardless of u8 hand-off configuration.
  execute_impl(input.data(), output.data(), false, false, pool, post,
               desc_.resolve_images(images));
}

void Int8DirectConv::execute_typed(const void* input, void* output, ThreadPool* pool,
                                   const PostOps& post, std::size_t images) {
  execute_impl(input, output, in_u8_, out_u8_, pool, post, desc_.resolve_images(images));
}

void Int8DirectConv::execute_impl(const void* input, void* output, bool in_u8, bool out_u8,
                                  ThreadPool* pool, const PostOps& post, std::size_t images) {
  assert(filters_set_ && input_scales_set_);
  const std::size_t OH = desc_.out_height(), OW = desc_.out_width();
  const std::size_t rows = OH * OW;
  const std::size_t K = desc_.out_channels;
  const std::size_t in_elems = desc_.batch * desc_.in_channels * desc_.height * desc_.width;
  col_.ensure(rows * patch_pad_);
  acc_.ensure(rows * k_pad_);
  const float requant = out_u8_qp_.scale;
  for (std::size_t b = 0; b < images; ++b) {
    {
      ProfileSpan span(ProfileStage::kInputTransform);
      if (in_u8) {
        im2col_u8(desc_, static_cast<const std::uint8_t*>(input), b, patch_pad_, col_.data());
      } else {
        im2col_quantized(desc_,
                         std::span<const float>(static_cast<const float*>(input), in_elems), b,
                         input_params_.scale, patch_pad_, col_.data());
      }
    }
    int8_gemm_packed(col_.data(), patch_pad_, w_packed_.data(), comp_.data(), acc_.data(),
                     k_pad_, rows, patch_pad_, k_pad_, blocking_, pool);
    ProfileSpan span(ProfileStage::kOutputTransform);
    for (std::size_t k = 0; k < K; ++k) {
      const std::size_t plane = (b * K + k) * rows;
      const float* res = post.sum != nullptr ? post.sum + plane : nullptr;
      const std::uint8_t* res8 = post.sum_u8 != nullptr ? post.sum_u8 + plane : nullptr;
      const float res8_inv = post.sum_u8_inv_scale;
      const float dq = w_dequant_[k];
      const float bk = bias_[k];
      if (out_u8) {
        std::uint8_t* dst = static_cast<std::uint8_t*>(output) + plane;
        for (std::size_t p = 0; p < rows; ++p) {
          float v = static_cast<float>(acc_[p * k_pad_ + k]) * dq + bk;
          if (res != nullptr) v += res[p];
          if (res8 != nullptr) {
            v += static_cast<float>(static_cast<std::int32_t>(res8[p]) - 128) * res8_inv;
          }
          if (post.relu) v = std::max(0.0f, v);
          // Requant stage: same rounding contract as quantize_u8_shift128.
          const std::int32_t q = round_nearest_even(v * requant) + 128;
          dst[p] = static_cast<std::uint8_t>(std::clamp(q, 0, 255));
        }
      } else {
        float* dst = static_cast<float*>(output) + plane;
        for (std::size_t p = 0; p < rows; ++p) {
          float v = static_cast<float>(acc_[p * k_pad_ + k]) * dq + bk;
          if (res != nullptr) v += res[p];
          if (res8 != nullptr) {
            v += static_cast<float>(static_cast<std::int32_t>(res8[p]) - 128) * res8_inv;
          }
          dst[p] = post.relu ? std::max(0.0f, v) : v;
        }
      }
    }
  }
}

}  // namespace lowino
