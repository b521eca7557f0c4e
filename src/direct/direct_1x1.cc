#include "direct/direct_1x1.h"

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

Int8Conv1x1Conv::Int8Conv1x1Conv(const ConvDesc& desc) : desc_(desc) {
  desc.validate();
  desc.require_ungrouped("Int8Conv1x1Conv");
  if (desc.kernel != 1) {
    throw std::invalid_argument("Int8Conv1x1Conv: kernel must be 1 [" + desc.to_string() +
                                "]");
  }
  c_pad_ = round_up(desc_.in_channels, 4);
  k_pad_ = round_up(desc_.out_channels, 16);
}

void Int8Conv1x1Conv::calibrate(std::span<const float> input_nchw) {
  input_hist_.collect(input_nchw);
}

void Int8Conv1x1Conv::finalize_calibration() {
  input_params_ = calibrate_params(input_hist_);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8Conv1x1Conv::set_input_threshold(float tau) {
  input_params_ = QuantParams::from_threshold(tau);
  input_scales_set_ = true;
  if (filters_set_) pack_weights();
}

void Int8Conv1x1Conv::set_filters(std::span<const float> weights,
                                  std::span<const float> bias) {
  const std::size_t C = desc_.in_channels, K = desc_.out_channels;
  assert(weights.size() >= K * C);
  weights_fp32_.reset(K * C);
  std::memcpy(weights_fp32_.data(), weights.data(), K * C * sizeof(float));
  bias_.reset(K);
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), K * sizeof(float));
  filters_set_ = true;
  if (input_scales_set_) pack_weights();
}

void Int8Conv1x1Conv::pack_weights() {
  const std::size_t C = desc_.in_channels, K = desc_.out_channels;
  // Per-channel exact weight scales (patch = C for r = 1).
  std::vector<float> w_scale(K);
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t c = 0; c < C; ++c) {
      amax = std::max(amax, std::abs(weights_fp32_[k * C + c]));
    }
    w_scale[k] = QuantParams::from_threshold(amax).scale;
  }
  std::vector<std::int8_t> w_q(c_pad_ * k_pad_, 0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t c = 0; c < C; ++c) {
      w_q[c * k_pad_ + k] = saturate_cast_i8(weights_fp32_[k * C + c] * w_scale[k]);
    }
  }
  w_packed_.reset((c_pad_ / 4) * k_pad_ * 4);
  pack_b_vpdpbusd(w_q.data(), c_pad_, k_pad_, w_packed_.data());
  comp_.reset(k_pad_);
  compute_compensation(w_q.data(), c_pad_, k_pad_, comp_.data());
  w_dequant_.reset(K);
  for (std::size_t k = 0; k < K; ++k) {
    w_dequant_[k] = 1.0f / (input_params_.scale * w_scale[k]);
  }
}

void Int8Conv1x1Conv::set_input_u8(const QuantParams& qp) {
  input_params_ = qp;
  input_scales_set_ = true;
  in_u8_ = true;
  if (filters_set_) pack_weights();  // w_dequant_ depends on the input scale
}

void Int8Conv1x1Conv::set_output_u8(const QuantParams& qp) {
  out_u8_ = true;
  out_u8_qp_ = qp;
}

void Int8Conv1x1Conv::execute_nchw(std::span<const float> input, std::span<float> output,
                                   ThreadPool* pool, const PostOps& post,
                                   std::size_t images) {
  // The span API is FP32-by-contract regardless of u8 hand-off configuration.
  execute_nchw_impl(input.data(), output.data(), DType::kF32, DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void Int8Conv1x1Conv::execute_typed(const void* input, void* output, ThreadPool* pool,
                                    const PostOps& post, std::size_t images) {
  execute_nchw_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                    out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void Int8Conv1x1Conv::execute_blocked_typed(const void* input, void* output, ThreadPool* pool,
                                            const PostOps& post, std::size_t images) {
  execute_blocked_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                       out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                       desc_.resolve_images(images));
}

void Int8Conv1x1Conv::execute_nchw_impl(const void* input, void* output, DType in_dtype,
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

void Int8Conv1x1Conv::execute_blocked_impl(const void* input, void* output, DType in_dtype,
                                           DType out_dtype, ThreadPool* pool,
                                           const PostOps& post, std::size_t batch) {
  assert(filters_set_ && input_scales_set_);
  const std::size_t C = desc_.in_channels, K = desc_.out_channels, s = desc_.stride;
  const std::size_t OH = desc_.out_height(), OW = desc_.out_width();
  const std::size_t rows = OH * OW;
  const BlockedActLayout in_layout(batch, C, desc_.height, desc_.width);
  const BlockedActLayout out_layout(batch, K, OH, OW);
  const std::size_t cb_in = in_layout.chan_blocks;
  // A u8 input with one channel block at stride 1 already is the GEMM's A
  // matrix: one 64-byte row per pixel, of which the first c_pad bytes are
  // multiplied (padding lanes hold 128 and meet zero filter rows anyway).
  // Otherwise each row chunk's pixels are copied (u8) or quantized (FP32)
  // into a per-thread panel with the pixel's channel blocks side by side.
  const bool in_u8 = in_dtype == DType::kU8;
  const bool in_place = in_u8 && cb_in == 1 && s == 1;
  const std::size_t lda = cb_in * kChanBlock;
  const std::size_t panel_bytes = in_place ? 0 : round_up(kRowChunk * lda, kCacheLineBytes);
  const std::size_t chunks = ceil_div(rows, kRowChunk);
  const std::size_t items = batch * chunks;
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  if (scratch_.size() < threads) scratch_.resize(threads);
  for (auto& buf : scratch_) buf.ensure(panel_bytes + kRowChunk * k_pad_ * sizeof(std::int32_t));

  const float scale = input_params_.scale;
  const BlockedEpilogue epilogue{post, out_dtype == DType::kU8, out_u8_qp_.scale};
  auto body = [&](std::size_t tid, std::size_t nw) {
    std::uint8_t* panel = scratch_[tid].data();
    std::int32_t* acc = reinterpret_cast<std::int32_t*>(panel + panel_bytes);
    const Range range = static_partition(items, nw, tid);
    for (std::size_t item = range.begin; item < range.end; ++item) {
      const std::size_t b = item / chunks;
      const std::size_t p0 = (item % chunks) * kRowChunk;
      const std::size_t n = std::min(kRowChunk, rows - p0);
      const std::uint8_t* a = panel;
      if (in_place) {
        a = static_cast<const std::uint8_t*>(input) + in_layout.offset(b, 0, p0 / OW, p0 % OW);
      } else {
        ProfileSpan span(ProfileStage::kInputTransform);
        for (std::size_t p = 0; p < n; ++p) {
          const std::size_t ih = (p0 + p) / OW * s, iw = (p0 + p) % OW * s;
          for (std::size_t cb = 0; cb < cb_in; ++cb) {
            std::uint8_t* dst = panel + p * lda + cb * kChanBlock;
            const std::size_t at = in_layout.offset(b, cb, ih, iw);
            if (in_u8) {
              std::memcpy(dst, static_cast<const std::uint8_t*>(input) + at, kChanBlock);
            } else {
              // Padding lanes are 0.0f and quantize to 128.
              quantize_u8_shift128({static_cast<const float*>(input) + at, kChanBlock}, scale,
                                   {dst, kChanBlock});
            }
          }
        }
      }
      int8_gemm_packed(a, lda, w_packed_.data(), comp_.data(), acc, k_pad_, n, c_pad_, k_pad_,
                       blocking_);
      ProfileSpan span(ProfileStage::kOutputTransform);
      for (std::size_t kb = 0; kb < out_layout.chan_blocks; ++kb) {
        const std::size_t k0 = kb * kChanBlock;
        const std::size_t valid = std::min(kChanBlock, K - k0);
        std::size_t at = out_layout.offset(b, kb, p0 / OW, p0 % OW);
        for (std::size_t p = 0; p < n; ++p, at += kChanBlock) {
          epilogue.store(acc + p * k_pad_ + k0, w_dequant_.data() + k0, bias_.data() + k0,
                         valid, at, output);
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
