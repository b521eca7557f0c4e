#include "direct/direct_depthwise.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/saturate.h"
#include "direct/blocked_epilogue.h"
#include "parallel/partition.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/calibration.h"
#include "tensor/layout.h"

namespace lowino {

Int8DepthwiseConv::Int8DepthwiseConv(const ConvDesc& desc) : desc_(desc) {
  desc.validate();
  if (!desc.is_depthwise()) {
    throw std::invalid_argument("Int8DepthwiseConv: depthwise only (groups == C > 1) [" +
                                desc.to_string() + "]");
  }
  taps_ = desc_.kernel * desc_.kernel;
}

void Int8DepthwiseConv::calibrate(std::span<const float> input_nchw) {
  input_hist_.collect(input_nchw);
}

void Int8DepthwiseConv::finalize_calibration() {
  input_params_ = calibrate_params(input_hist_);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8DepthwiseConv::set_input_threshold(float tau) {
  input_params_ = QuantParams::from_threshold(tau);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8DepthwiseConv::set_filters(std::span<const float> weights,
                                    std::span<const float> bias) {
  const std::size_t K = desc_.out_channels;
  assert(weights.size() >= K * taps_);
  weights_fp32_.reset(K * taps_);
  std::memcpy(weights_fp32_.data(), weights.data(), K * taps_ * sizeof(float));
  bias_.reset(K);
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), K * sizeof(float));
  filters_set_ = true;
  if (input_scales_set_) pack_weights();
}

void Int8DepthwiseConv::pack_weights() {
  // Filters go lane-major per output block, [K/64][r*r][64] with zero
  // padding lanes, so a tap's 64 weights sit next to each other like the
  // 64 lanes of the pixel they multiply.
  const std::size_t K = desc_.out_channels;
  w_q_.reset(round_up(K, kChanBlock) * taps_);
  w_q_.fill_zero();
  w_dequant_.reset(K);
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t t = 0; t < taps_; ++t) {
      amax = std::max(amax, std::abs(weights_fp32_[k * taps_ + t]));
    }
    const float w_scale = QuantParams::from_threshold(amax).scale;
    std::int32_t* w = w_q_.data() + (k / kChanBlock) * taps_ * kChanBlock + k % kChanBlock;
    for (std::size_t t = 0; t < taps_; ++t) {
      w[t * kChanBlock] = saturate_cast_i8(weights_fp32_[k * taps_ + t] * w_scale);
    }
    w_dequant_[k] = 1.0f / (input_params_.scale * w_scale);
  }
}

void Int8DepthwiseConv::set_input_u8(const QuantParams& qp) {
  input_params_ = qp;
  input_scales_set_ = true;
  in_u8_ = true;
  if (filters_set_) pack_weights();  // w_dequant_ depends on the input scale
}

void Int8DepthwiseConv::set_output_u8(const QuantParams& qp) {
  out_u8_ = true;
  out_u8_qp_ = qp;
}

void Int8DepthwiseConv::execute_nchw(std::span<const float> input, std::span<float> output,
                                     ThreadPool* pool, const PostOps& post,
                                     std::size_t images) {
  // The span API is FP32-by-contract regardless of u8 hand-off configuration.
  execute_nchw_impl(input.data(), output.data(), DType::kF32, DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void Int8DepthwiseConv::execute_typed(const void* input, void* output, ThreadPool* pool,
                                      const PostOps& post, std::size_t images) {
  execute_nchw_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                    out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void Int8DepthwiseConv::execute_blocked_typed(const void* input, void* output,
                                              ThreadPool* pool, const PostOps& post,
                                              std::size_t images) {
  execute_blocked_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                       out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                       desc_.resolve_images(images));
}

void Int8DepthwiseConv::execute_nchw_impl(const void* input, void* output, DType in_dtype,
                                          DType out_dtype, ThreadPool* pool,
                                          const PostOps& post, std::size_t images) {
  // One image per worker thread per pass: the staging buffers stay a few
  // images large whatever the batch.
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  staging_.run(desc_, images, threads, in_dtype, out_dtype, input, output, post, pool,
               [&](const void* in, void* out, const PostOps& core, std::size_t n) {
                 execute_blocked_impl(in, out, in_dtype, out_dtype, pool, core, n);
               });
}

void Int8DepthwiseConv::execute_blocked_impl(const void* input, void* output, DType in_dtype,
                                             DType out_dtype, ThreadPool* pool,
                                             const PostOps& post, std::size_t batch) {
  assert(filters_set_ && input_scales_set_);
  const std::size_t C = desc_.in_channels, H = desc_.height, W = desc_.width;
  const std::size_t K = desc_.out_channels, r = desc_.kernel, s = desc_.stride;
  const std::size_t pad = desc_.height_pad(), pad_w = desc_.width_pad();
  const std::size_t OH = desc_.out_height(), OW = desc_.out_width();
  const std::size_t mult = K / C;  ///< channel multiplier
  const BlockedActLayout in_layout(batch, C, H, W);
  const BlockedActLayout out_layout(batch, K, OH, OW);
  const bool in_u8 = in_dtype == DType::kU8;
  // A u8 input at multiplier 1 is read in place: output block kb reads input
  // block kb lane for lane. Otherwise each (image, output block) plane of
  // quantized input lanes is built in per-thread scratch first.
  const bool in_place = in_u8 && mult == 1;
  const std::size_t plane_pixels = H * W;
  const std::size_t plane_bytes =
      in_place ? 0 : round_up(plane_pixels * kChanBlock, kCacheLineBytes);
  const std::size_t row_bytes = OW * kChanBlock * sizeof(std::int32_t);
  const std::size_t chunk_rows = std::max<std::size_t>(1, kAccChunkBytes / row_bytes);
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  if (scratch_.size() < threads) scratch_.resize(threads);
  for (auto& buf : scratch_) buf.ensure(plane_bytes + chunk_rows * row_bytes);

  const std::uint8_t* in8 = static_cast<const std::uint8_t*>(input);
  const float* in32 = static_cast<const float*>(input);
  const float scale = input_params_.scale;
  const auto quantize = [scale](float x) {
    const std::int32_t q = round_nearest_even(x * scale) + 128;
    return static_cast<std::uint8_t>(std::clamp(q, 0, 255));
  };
  const BlockedEpilogue epilogue{&post, out_dtype == DType::kU8, out_u8_qp_.scale};
  const std::size_t items = batch * out_layout.chan_blocks;
  auto body = [&](std::size_t tid, std::size_t nw) {
    std::uint8_t* plane = scratch_[tid].data();
    std::int32_t* acc = reinterpret_cast<std::int32_t*>(plane + plane_bytes);
    const Range range = static_partition(items, nw, tid);
    for (std::size_t item = range.begin; item < range.end; ++item) {
      const std::size_t b = item / out_layout.chan_blocks;
      const std::size_t kb = item % out_layout.chan_blocks;
      const std::size_t k0 = kb * kChanBlock;
      const std::size_t valid = std::min(kChanBlock, K - k0);
      const std::uint8_t* src = plane;
      if (in_place) {
        src = in8 + in_layout.offset(b, kb, 0, 0);
      } else if (mult == 1) {
        // Quantize input block kb (padding lanes are 0.0f and become 128).
        ProfileSpan span(ProfileStage::kInputTransform);
        quantize_u8_shift128({in32 + in_layout.offset(b, kb, 0, 0), plane_pixels * kChanBlock},
                             scale, {plane, plane_pixels * kChanBlock});
      } else {
        // Lane gather: lane l carries input channel (k0 + l) / mult.
        ProfileSpan span(ProfileStage::kInputTransform);
        for (std::size_t l = 0; l < kChanBlock; ++l) {
          std::uint8_t* dst = plane + l;
          if (l >= valid) {
            for (std::size_t p = 0; p < plane_pixels; ++p) dst[p * kChanBlock] = 128;
            continue;
          }
          const std::size_t c = (k0 + l) / mult;
          const std::size_t at = in_layout.offset(b, c / kChanBlock, 0, 0) + c % kChanBlock;
          for (std::size_t p = 0; p < plane_pixels; ++p) {
            const std::size_t i = at + p * kChanBlock;
            dst[p * kChanBlock] = in_u8 ? in8[i] : quantize(in32[i]);
          }
        }
      }
      const std::int32_t* w = w_q_.data() + kb * taps_ * kChanBlock;
      for (std::size_t oh0 = 0; oh0 < OH; oh0 += chunk_rows) {
        const std::size_t n_rows = std::min(chunk_rows, OH - oh0);
        {
          // The tap reduction, pixel-major over 64 lanes: int32 sums of
          // (q - 128) * w_q over the in-bounds taps (out-of-bounds taps are
          // quantized zero and contribute nothing, so skipping them is exact).
          ProfileSpan span(ProfileStage::kGemm);
          for (std::size_t oh = oh0; oh < oh0 + n_rows; ++oh) {
            const std::ptrdiff_t ih0 =
                static_cast<std::ptrdiff_t>(oh * s) - static_cast<std::ptrdiff_t>(pad);
            const std::size_t i_lo = ih0 < 0 ? static_cast<std::size_t>(-ih0) : 0;
            const std::size_t i_hi =
                std::min(r, static_cast<std::size_t>(static_cast<std::ptrdiff_t>(H) - ih0));
            for (std::size_t ow = 0; ow < OW; ++ow) {
              const std::ptrdiff_t iw0 =
                  static_cast<std::ptrdiff_t>(ow * s) - static_cast<std::ptrdiff_t>(pad_w);
              const std::size_t j_lo = iw0 < 0 ? static_cast<std::size_t>(-iw0) : 0;
              const std::size_t j_hi =
                  std::min(r, static_cast<std::size_t>(static_cast<std::ptrdiff_t>(W) - iw0));
              std::int32_t sum[kChanBlock] = {};
              for (std::size_t i = i_lo; i < i_hi; ++i) {
                const auto ih = static_cast<std::size_t>(ih0 + static_cast<std::ptrdiff_t>(i));
                for (std::size_t j = j_lo; j < j_hi; ++j) {
                  const auto iw = static_cast<std::size_t>(iw0 + static_cast<std::ptrdiff_t>(j));
                  const std::uint8_t* px = src + (ih * W + iw) * kChanBlock;
                  const std::int32_t* wt = w + (i * r + j) * kChanBlock;
                  for (std::size_t l = 0; l < kChanBlock; ++l) {
                    sum[l] += (static_cast<std::int32_t>(px[l]) - 128) * wt[l];
                  }
                }
              }
              std::memcpy(acc + ((oh - oh0) * OW + ow) * kChanBlock, sum, sizeof(sum));
            }
          }
        }
        ProfileSpan span(ProfileStage::kOutputTransform);
        const std::size_t at = out_layout.offset(b, kb, oh0, 0);
        for (std::size_t p = 0; p < n_rows * OW; ++p) {
          epilogue.store(acc + p * kChanBlock, w_dequant_.data() + k0, bias_.data() + k0, valid,
                         at + p * kChanBlock, output);
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->run(body);
  } else {
    body(0, 1);
  }
}

}  // namespace lowino
