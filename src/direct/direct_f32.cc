#include "direct/direct_f32.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "gemm/fp32_gemm.h"
#include "parallel/thread_pool.h"

namespace lowino {

void direct_conv_f32_reference(const ConvDesc& desc, std::span<const float> input,
                               std::span<const float> weights, std::span<const float> bias,
                               std::span<float> output, bool relu, ThreadPool* pool) {
  const std::size_t B = desc.batch, C = desc.in_channels, K = desc.out_channels;
  const std::size_t H = desc.height, W = desc.width, r = desc.kernel;
  const std::size_t pad = desc.height_pad(), pad_w = desc.width_pad();
  const std::size_t OH = desc.out_height(), OW = desc.out_width();
  assert(input.size() >= B * C * H * W);
  assert(weights.size() >= K * C * r * r);
  assert(output.size() >= B * K * OH * OW);

  auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t job = begin; job < end; ++job) {
      const std::size_t b = job / K;
      const std::size_t k = job % K;
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow) {
          float acc = bias.empty() ? 0.0f : bias[k];
          for (std::size_t c = 0; c < C; ++c) {
            for (std::size_t i = 0; i < r; ++i) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * desc.stride + i) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(H)) continue;
              for (std::size_t j = 0; j < r; ++j) {
                const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * desc.stride + j) -
                                          static_cast<std::ptrdiff_t>(pad_w);
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(W)) continue;
                acc += input[((b * C + c) * H + ih) * W + iw] *
                       weights[((k * C + c) * r + i) * r + j];
              }
            }
          }
          output[((b * K + k) * OH + oh) * OW + ow] = relu ? std::max(0.0f, acc) : acc;
        }
      }
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(B * K, body);
  } else {
    body(0, B * K);
  }
}

void im2col_f32(const ConvDesc& desc, std::span<const float> input, std::size_t b,
                float* col) {
  const std::size_t C = desc.in_channels, H = desc.height, W = desc.width;
  const std::size_t r = desc.kernel, pad = desc.height_pad(), pad_w = desc.width_pad();
  const std::size_t OH = desc.out_height(), OW = desc.out_width();
  const std::size_t patch = C * r * r;
  for (std::size_t oh = 0; oh < OH; ++oh) {
    for (std::size_t ow = 0; ow < OW; ++ow) {
      float* row = col + (oh * OW + ow) * patch;
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
            row[idx++] = oob ? 0.0f : input[((b * C + c) * H + ih) * W + iw];
          }
        }
      }
    }
  }
}

void conv_f32_forward(const ConvDesc& desc, std::span<const float> input,
                      std::span<const float> weights, std::span<const float> bias,
                      std::span<float> output, ConvF32Scratch& scratch, const PostOps& post,
                      ActLayout out_layout, bool keep_col) {
  assert(post.sum_u8 == nullptr);
  const std::size_t B = desc.batch, C = desc.in_channels, K = desc.out_channels;
  const std::size_t H = desc.height, W = desc.width, r = desc.kernel;
  const std::size_t OH = desc.out_height(), OW = desc.out_width();
  const std::size_t rows = OH * OW;
  // The epilogue, in the engines' order: bias (already in v), sum, ReLU.
  // `at` indexes the output and the residual alike.
  const auto store = [&](std::size_t at, float v) {
    if (post.sum != nullptr) v += post.sum[at];
    output[at] = post.relu ? std::max(0.0f, v) : v;
  };
  const bool blocked = out_layout == ActLayout::kBlocked64;
  if (blocked && desc.groups != 1) {
    throw std::invalid_argument("conv_f32_forward: a blocked output needs an ungrouped shape");
  }
  if (desc.groups != 1) {
    // Grouped shapes skip the im2col-GEMM formulation (the per-filter patch
    // is tiny — r*r for depthwise) and run direct loops instead.
    const std::size_t cg = desc.group_in_channels(), kg = K / desc.groups;
    const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(desc.height_pad());
    const std::ptrdiff_t pad_w = static_cast<std::ptrdiff_t>(desc.width_pad());
    for (std::size_t b = 0; b < B; ++b) {
      for (std::size_t k = 0; k < K; ++k) {
        const std::size_t c0 = (k / kg) * cg;  // the group's first input channel
        for (std::size_t oh = 0; oh < OH; ++oh) {
          for (std::size_t ow = 0; ow < OW; ++ow) {
            float acc = bias[k];
            for (std::size_t ci = 0; ci < cg; ++ci) {
              const float* src = input.data() + (b * C + c0 + ci) * H * W;
              const float* w = weights.data() + (k * cg + ci) * r * r;
              for (std::size_t i = 0; i < r; ++i) {
                const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * desc.stride + i) - pad;
                if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(H)) continue;
                for (std::size_t j = 0; j < r; ++j) {
                  const std::ptrdiff_t iw =
                      static_cast<std::ptrdiff_t>(ow * desc.stride + j) - pad_w;
                  if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(W)) continue;
                  acc += src[ih * static_cast<std::ptrdiff_t>(W) + iw] * w[i * r + j];
                }
              }
            }
            store((b * K + k) * rows + oh * OW + ow, acc);
          }
        }
      }
    }
    return;
  }
  const std::size_t patch = C * r * r;
  scratch.col.ensure((keep_col ? B : 1) * rows * patch);
  scratch.wt.ensure(patch * K);
  scratch.rows.ensure(rows * K);
  float* wT = scratch.wt.data();
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t p = 0; p < patch; ++p) wT[p * K + k] = weights[k * patch + p];
  }
  float* out_rows = scratch.rows.data();
  for (std::size_t b = 0; b < B; ++b) {
    float* col = scratch.col.data() + (keep_col ? b * rows * patch : 0);
    im2col_f32(desc, input, b, col);
    fp32_gemm(col, patch, wT, K, out_rows, K, rows, patch, K);
    if (blocked) {
      // Pixel-major rows x K is the blocked order already: a plain store per
      // 64-channel block, then zeros in the last block's padding lanes.
      const std::size_t k_blocks = ceil_div(K, kChanBlock);
      for (std::size_t kb = 0; kb < k_blocks; ++kb) {
        const std::size_t k0 = kb * kChanBlock, kn = std::min(kChanBlock, K - k0);
        const std::size_t base = (b * k_blocks + kb) * rows * kChanBlock;
        for (std::size_t p = 0; p < rows; ++p) {
          for (std::size_t k = 0; k < kn; ++k) {
            store(base + p * kChanBlock + k, out_rows[p * K + k0 + k] + bias[k0 + k]);
          }
          std::fill(output.data() + base + p * kChanBlock + kn,
                    output.data() + base + (p + 1) * kChanBlock, 0.0f);
        }
      }
    } else {
      for (std::size_t k = 0; k < K; ++k) {
        const float bk = bias[k];
        for (std::size_t p = 0; p < rows; ++p) {
          store((b * K + k) * rows + p, out_rows[p * K + k] + bk);
        }
      }
    }
  }
}

Im2colConvF32::Im2colConvF32(const ConvDesc& desc) : desc_(desc) {
  desc.validate();
  desc.require_ungrouped("Im2colConvF32");
  patch_ = desc_.in_channels * desc_.kernel * desc_.kernel;
  k_pad_ = round_up(desc_.out_channels, 16);
}

void Im2colConvF32::set_filters(std::span<const float> weights, std::span<const float> bias) {
  assert(weights.size() >= desc_.out_channels * patch_);
  // B operand of the GEMM: patch x K (transposed weights), K padded to 16.
  wT_.reset(patch_ * k_pad_);
  wT_.fill_zero();
  for (std::size_t k = 0; k < desc_.out_channels; ++k) {
    for (std::size_t p = 0; p < patch_; ++p) {
      wT_[p * k_pad_ + k] = weights[k * patch_ + p];
    }
  }
  bias_.reset(desc_.out_channels);
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), desc_.out_channels * sizeof(float));
}

void Im2colConvF32::execute_nchw(std::span<const float> input, std::span<float> output,
                                 ThreadPool* pool, const PostOps& post) {
  const std::size_t OH = desc_.out_height(), OW = desc_.out_width();
  const std::size_t rows = OH * OW;
  const std::size_t K = desc_.out_channels;
  col_.ensure(rows * patch_);
  out_scratch_.ensure(rows * k_pad_);
  for (std::size_t b = 0; b < desc_.batch; ++b) {
    im2col_f32(desc_, input, b, col_.data());
    fp32_gemm(col_.data(), patch_, wT_.data(), k_pad_, out_scratch_.data(), k_pad_, rows,
              patch_, k_pad_, pool);
    // Transpose rows x K back to K x OH x OW with the bias/+sum/ReLU epilogue.
    for (std::size_t k = 0; k < K; ++k) {
      float* dst = output.data() + ((b * K + k) * rows);
      const float* res = post.sum != nullptr ? post.sum + (b * K + k) * rows : nullptr;
      const float bk = bias_[k];
      for (std::size_t p = 0; p < rows; ++p) {
        float v = out_scratch_[p * k_pad_ + k] + bk;
        if (res != nullptr) v += res[p];
        dst[p] = post.relu ? std::max(0.0f, v) : v;
      }
    }
  }
}

}  // namespace lowino
