#include "direct/direct_int8.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/saturate.h"
#include "direct/blocked_epilogue.h"
#include "parallel/partition.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/calibration.h"
#include "tensor/layout.h"

namespace lowino {
namespace {

/// Builds the patch rows of output pixels [p0, p0 + n) of one image. `image`
/// holds the image's quantized bytes in the blocked layout ([C/64] x H x W x
/// 64). Row p's tap t = i * r + j starts at byte t * C; every tap writes
/// whole 64-byte blocks in increasing address order, so a block's padding
/// lanes spill into the next tap's bytes, which that tap then overwrites
/// (the last tap spills into the row's padding, which meets zero filter
/// rows, or into the next row, or into the panel's slack block).
void gather_patches(const ConvDesc& desc, const std::uint8_t* image, std::size_t p0,
                    std::size_t n, std::size_t patch_pad, std::uint8_t* panel) {
  const std::size_t C = desc.in_channels, H = desc.height, W = desc.width;
  const std::size_t r = desc.kernel, s = desc.stride, OW = desc.out_width();
  const std::size_t blocks = ceil_div(C, kChanBlock);
  const std::size_t plane = H * W * kChanBlock;
  const auto pad = static_cast<std::ptrdiff_t>(desc.height_pad());
  const auto pad_w = static_cast<std::ptrdiff_t>(desc.width_pad());
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t oh = (p0 + p) / OW, ow = (p0 + p) % OW;
    std::uint8_t* dst = panel + p * patch_pad;
    for (std::size_t i = 0; i < r; ++i) {
      const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * s + i) - pad;
      for (std::size_t j = 0; j < r; ++j, dst += C) {
        const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * s + j) - pad_w;
        if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(H) || iw < 0 ||
            iw >= static_cast<std::ptrdiff_t>(W)) {
          std::memset(dst, 128, blocks * kChanBlock);
          continue;
        }
        const std::uint8_t* src =
            image + (static_cast<std::size_t>(ih) * W + static_cast<std::size_t>(iw)) * kChanBlock;
        for (std::size_t cb = 0; cb < blocks; ++cb) {
          std::memcpy(dst + cb * kChanBlock, src + cb * plane, kChanBlock);
        }
      }
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
  const std::size_t C = desc_.in_channels, K = desc_.out_channels, r = desc_.kernel;
  // Per-channel exact weight scales.
  std::vector<float> w_scale(K);
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t p = 0; p < patch_; ++p) {
      amax = std::max(amax, std::abs(weights_fp32_[k * patch_ + p]));
    }
    w_scale[k] = QuantParams::from_threshold(amax).scale;
  }
  // Quantize to the row-major (patch_pad x k_pad) B matrix, rows in the
  // patch's (i, j, c) order, then pack.
  std::vector<std::int8_t> w_q(patch_pad_ * k_pad_, 0);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t t = 0; t < r * r; ++t) {
        w_q[(t * C + c) * k_pad_ + k] =
            saturate_cast_i8(weights_fp32_[(k * C + c) * r * r + t] * w_scale[k]);
      }
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
  execute_nchw_impl(input.data(), output.data(), DType::kF32, DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void Int8DirectConv::execute_typed(const void* input, void* output, ThreadPool* pool,
                                   const PostOps& post, std::size_t images) {
  execute_nchw_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                    out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void Int8DirectConv::execute_blocked_typed(const void* input, void* output, ThreadPool* pool,
                                           const PostOps& post, std::size_t images) {
  execute_blocked_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                       out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                       desc_.resolve_images(images));
}

void Int8DirectConv::execute_nchw_impl(const void* input, void* output, DType in_dtype,
                                       DType out_dtype, ThreadPool* pool, const PostOps& post,
                                       std::size_t images) {
  // One image per worker thread per pass: the staging buffers stay a few
  // images large whatever the batch.
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  staging_.run(desc_, images, threads, in_dtype, out_dtype, input, output, post, pool,
               [&](const void* in, void* out, const PostOps& core, std::size_t n) {
                 execute_blocked_impl(in, out, in_dtype, out_dtype, pool, core, n);
               });
}

void Int8DirectConv::execute_blocked_impl(const void* input, void* output, DType in_dtype,
                                          DType out_dtype, ThreadPool* pool,
                                          const PostOps& post, std::size_t batch) {
  assert(filters_set_ && input_scales_set_);
  const std::size_t K = desc_.out_channels;
  const std::size_t OH = desc_.out_height(), OW = desc_.out_width();
  const std::size_t rows = OH * OW;
  const BlockedActLayout in_layout(batch, desc_.in_channels, desc_.height, desc_.width);
  const BlockedActLayout out_layout(batch, K, OH, OW);
  const std::size_t image_elems = in_layout.size() / batch;
  const bool in_u8 = in_dtype == DType::kU8;
  // A pointwise conv at stride 1 on a u8 input with one channel block
  // already has its A matrix in the input: one 64-byte row per pixel, of
  // which the first patch_pad bytes are multiplied (padding lanes hold 128
  // and meet zero filter rows anyway). Every other case gathers patch rows
  // into a per-thread panel.
  const bool in_place =
      in_u8 && desc_.kernel == 1 && desc_.stride == 1 && in_layout.chan_blocks == 1;
  const std::size_t lda = in_place ? kChanBlock : patch_pad_;
  const std::size_t image_bytes = in_u8 ? 0 : round_up(image_elems, kCacheLineBytes);
  const std::size_t panel_bytes =
      in_place ? 0 : round_up(kRowChunk * patch_pad_ + kChanBlock, kCacheLineBytes);
  const std::size_t chunks = ceil_div(rows, kRowChunk);
  const std::size_t items = batch * chunks;
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  if (scratch_.size() < threads) scratch_.resize(threads);
  for (auto& buf : scratch_) {
    buf.ensure(image_bytes + panel_bytes + kRowChunk * k_pad_ * sizeof(std::int32_t));
  }

  const float scale = input_params_.scale;
  const BlockedEpilogue epilogue{post, out_dtype == DType::kU8, out_u8_qp_.scale};
  auto body = [&](std::size_t tid, std::size_t nw) {
    std::uint8_t* quantized = scratch_[tid].data();
    std::uint8_t* panel = quantized + image_bytes;
    std::int32_t* acc = reinterpret_cast<std::int32_t*>(panel + panel_bytes);
    std::size_t quantized_image = batch;  // none yet
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
        const std::size_t at = in_layout.offset(b, 0, 0, 0);
        const std::uint8_t* image = quantized;
        if (in_u8) {
          image = static_cast<const std::uint8_t*>(input) + at;
        } else if (quantized_image != b) {
          // Padding lanes are 0.0f and quantize to 128.
          quantize_u8_shift128({static_cast<const float*>(input) + at, image_elems}, scale,
                               {quantized, image_elems});
          quantized_image = b;
        }
        gather_patches(desc_, image, p0, n, patch_pad_, panel);
      }
      int8_gemm_packed(a, lda, w_packed_.data(), comp_.data(), acc, k_pad_, n, patch_pad_,
                       k_pad_, blocking_);
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
