#include "direct/direct_f32.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/cpu_features.h"
#include "common/saturate.h"
#include "gemm/fp32_gemm.h"
#include "parallel/thread_pool.h"
#include "quant/quantize_avx512.h"

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>
#endif

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
                      bool keep_col) {
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
    for (std::size_t k = 0; k < K; ++k) {
      const float bk = bias[k];
      for (std::size_t p = 0; p < rows; ++p) {
        store((b * K + k) * rows + p, out_rows[p * K + k] + bk);
      }
    }
  }
}

namespace {

/// One output plane of conv_f32_blocked: image b, 64-channel block kb.
struct BlockedPlane {
  // Geometry of the image's zero-halo copy and of the output.
  std::size_t channels = 0, kernel = 0, stride = 0;
  std::size_t halo_plane = 0, halo_width = 0;  ///< (H + 2 pad) x (W + 2 pad_w)
  std::size_t out_width = 0, pixels = 0;
  const float* halo = nullptr;  ///< C x halo_plane
  const float* w = nullptr;     ///< patch x 64 weights of the block
  const float* bias = nullptr;  ///< 64 lanes
  std::size_t valid = 0;        ///< real channels in the block (the rest is padding)
  const float* sum = nullptr;   ///< residual plane, pixels x 64, or nullptr
  bool relu = false;
  const QuantParams* out_u8 = nullptr;
  void* out = nullptr;  ///< output plane, pixels x 64 (float, or u8 with out_u8)

  /// The halo-copy element under the (0, 0, 0) tap of output pixel (y, x).
  const float* origin(std::size_t y, std::size_t x) const {
    return halo + y * stride * halo_width + x * stride;
  }
};

constexpr std::size_t kTilePixels = 6;

#ifdef LOWINO_COMPILE_AVX512

/// Output pixels in tiles of kTilePixels by G 16-lane groups (the block's
/// groups past G hold only padding lanes and are stored as constants).
template <int G>
void blocked_plane_avx512(const BlockedPlane& pl) {
  constexpr int P = static_cast<int>(kTilePixels);
  const __m512 zero = _mm512_setzero_ps();
  __mmask16 lanes[G];
  __m512 bias[G];
  for (int g = 0; g < G; ++g) {
    const std::size_t first = static_cast<std::size_t>(g) * 16;
    const std::size_t n = pl.valid > first ? std::min<std::size_t>(16, pl.valid - first) : 0;
    lanes[g] = static_cast<__mmask16>((1u << n) - 1);
    bias[g] = _mm512_loadu_ps(pl.bias + first);
  }
  const __m512 scale = _mm512_set1_ps(pl.out_u8 != nullptr ? pl.out_u8->scale : 1.0f);
  // The epilogue of the pixel whose lane 0 sits at element `at`.
  const auto store = [&](const __m512 (&a)[G], std::size_t at) {
    __m512 v[4];
    for (int g = 0; g < G; ++g) {
      v[g] = _mm512_add_ps(a[g], bias[g]);
      if (pl.sum != nullptr) v[g] = _mm512_add_ps(v[g], _mm512_loadu_ps(pl.sum + at + g * 16));
      // max(v, 0) takes its second operand on NaN, as std::max(0.0f, v) does.
      if (pl.relu) v[g] = _mm512_max_ps(v[g], zero);
    }
    if (pl.out_u8 == nullptr) {
      float* dst = static_cast<float*>(pl.out) + at;
      for (int g = 0; g < 4; ++g) {
        _mm512_storeu_ps(dst + g * 16, g < G ? _mm512_maskz_mov_ps(lanes[g], v[g]) : zero);
      }
      return;
    }
    // quantize_u8_shift128_scaled, 64 lanes; padding lanes encode 0.
    __m512i q[4];
    for (int g = 0; g < 4; ++g) {
      q[g] = g < G ? quantize_i32x16(_mm512_mul_ps(v[g], scale), lanes[g])
                   : _mm512_setzero_si512();
    }
    _mm512_storeu_si512(static_cast<std::uint8_t*>(pl.out) + at,
                        pack_u8x64(q[0], q[1], q[2], q[3]));
  };
  std::size_t y = 0, x = 0;  // the next tile's first output pixel
  for (std::size_t p0 = 0; p0 < pl.pixels; p0 += kTilePixels) {
    const std::size_t n = std::min(kTilePixels, pl.pixels - p0);
    // A tile may span output rows; a partial tile recomputes its last pixel
    // in the unused rows.
    const float* src[P];
    for (std::size_t q = 0; q < kTilePixels; ++q) {
      src[q] = pl.origin(y, x);
      if (q + 1 < n && ++x == pl.out_width) x = 0, ++y;
    }
    if (++x == pl.out_width) x = 0, ++y;
    __m512 acc[P][G];
    for (int q = 0; q < P; ++q) {
      for (int g = 0; g < G; ++g) acc[q][g] = zero;
    }
    const float* w = pl.w;
    for (std::size_t c = 0; c < pl.channels; ++c) {
      for (std::size_t i = 0; i < pl.kernel; ++i) {
        const std::size_t row = c * pl.halo_plane + i * pl.halo_width;
        for (std::size_t j = 0; j < pl.kernel; ++j, w += kChanBlock) {
          __m512 wv[G];
          for (int g = 0; g < G; ++g) wv[g] = _mm512_loadu_ps(w + g * 16);
          for (int q = 0; q < P; ++q) {
            const __m512 a = _mm512_set1_ps(src[q][row + j]);
            for (int g = 0; g < G; ++g) acc[q][g] = _mm512_fmadd_ps(a, wv[g], acc[q][g]);
          }
        }
      }
    }
    // Pixel by pixel, unrolled so the accumulators stay in registers.
    [&]<int... Q>(std::integer_sequence<int, Q...>) {
      ((Q < static_cast<int>(n) ? store(acc[Q], (p0 + Q) * kChanBlock) : void()), ...);
    }(std::make_integer_sequence<int, P>{});
  }
}

#endif  // LOWINO_COMPILE_AVX512

/// The path for CPUs without AVX-512: the same arithmetic, lane by lane.
void blocked_plane_scalar(const BlockedPlane& pl) {
  for (std::size_t p = 0; p < pl.pixels; ++p) {
    const float* src = pl.origin(p / pl.out_width, p % pl.out_width);
    for (std::size_t l = 0; l < kChanBlock; ++l) {
      float v = 0.0f;
      if (l < pl.valid) {
        float acc = 0.0f;
        const float* w = pl.w + l;
        for (std::size_t c = 0; c < pl.channels; ++c) {
          for (std::size_t i = 0; i < pl.kernel; ++i) {
            const float* in = src + c * pl.halo_plane + i * pl.halo_width;
            for (std::size_t j = 0; j < pl.kernel; ++j, w += kChanBlock) acc += in[j] * *w;
          }
        }
        v = acc + pl.bias[l];
        if (pl.sum != nullptr) v += pl.sum[p * kChanBlock + l];
        if (pl.relu) v = std::max(0.0f, v);
      }
      if (pl.out_u8 == nullptr) {
        static_cast<float*>(pl.out)[p * kChanBlock + l] = v;
      } else {
        static_cast<std::uint8_t*>(pl.out)[p * kChanBlock + l] =
            quantize_u8_shift128_scaled(v * pl.out_u8->scale);
      }
    }
  }
}

void blocked_plane(const BlockedPlane& pl) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    switch (ceil_div(pl.valid, std::size_t{16})) {
      case 1: return blocked_plane_avx512<1>(pl);
      case 2: return blocked_plane_avx512<2>(pl);
      case 3: return blocked_plane_avx512<3>(pl);
      default: return blocked_plane_avx512<4>(pl);
    }
  }
#endif
  blocked_plane_scalar(pl);
}

}  // namespace

void conv_f32_blocked(const ConvDesc& desc, const float* input, std::span<const float> weights,
                      std::span<const float> bias, void* output, ConvF32Scratch& scratch,
                      const PostOps& post, const QuantParams* out_u8) {
  desc.require_ungrouped("conv_f32_blocked");
  assert(post.sum_u8 == nullptr);
  const std::size_t B = desc.batch, C = desc.in_channels, K = desc.out_channels;
  const std::size_t H = desc.height, W = desc.width, r = desc.kernel;
  const std::size_t pad = desc.height_pad(), pad_w = desc.width_pad();
  const std::size_t hh = H + 2 * pad, hw = W + 2 * pad_w;
  const std::size_t pixels = desc.out_height() * desc.out_width();
  const std::size_t patch = C * r * r, k_blocks = ceil_div(K, kChanBlock);
  assert(weights.size() >= K * patch && bias.size() >= K);

  // Weights as [K/64] x patch x 64, then the bias as [K/64] x 64; zero past K.
  scratch.wt.ensure(k_blocks * (patch + 1) * kChanBlock);
  float* wb = scratch.wt.data();
  float* bias_b = wb + k_blocks * patch * kChanBlock;
  std::fill_n(wb, k_blocks * (patch + 1) * kChanBlock, 0.0f);
  for (std::size_t k = 0; k < K; ++k) {
    float* dst = wb + (k / kChanBlock) * patch * kChanBlock + k % kChanBlock;
    for (std::size_t t = 0; t < patch; ++t) dst[t * kChanBlock] = weights[k * patch + t];
    bias_b[k] = bias[k];
  }
  // The halo stays zero; each image overwrites only the interior.
  scratch.col.ensure(C * hh * hw);
  float* halo = scratch.col.data();
  std::fill_n(halo, C * hh * hw, 0.0f);

  BlockedPlane pl;
  pl.channels = C;
  pl.kernel = r;
  pl.stride = desc.stride;
  pl.halo_plane = hh * hw;
  pl.halo_width = hw;
  pl.out_width = desc.out_width();
  pl.pixels = pixels;
  pl.halo = halo;
  pl.relu = post.relu;
  pl.out_u8 = out_u8;
  const std::size_t elem_bytes = out_u8 != nullptr ? 1 : sizeof(float);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t y = 0; y < H; ++y) {
        std::copy_n(input + ((b * C + c) * H + y) * W, W,
                    halo + c * hh * hw + (y + pad) * hw + pad_w);
      }
    }
    for (std::size_t kb = 0; kb < k_blocks; ++kb) {
      const std::size_t plane = (b * k_blocks + kb) * pixels * kChanBlock;
      pl.w = wb + kb * patch * kChanBlock;
      pl.bias = bias_b + kb * kChanBlock;
      pl.valid = std::min(kChanBlock, K - kb * kChanBlock);
      pl.sum = post.sum != nullptr ? post.sum + plane : nullptr;
      pl.out = static_cast<std::uint8_t*>(output) + plane * elem_bytes;
      blocked_plane(pl);
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
