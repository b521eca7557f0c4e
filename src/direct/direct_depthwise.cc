#include "direct/direct_depthwise.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/cpu_features.h"
#include "common/saturate.h"
#include "direct/blocked_epilogue.h"
#include "parallel/partition.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/calibration.h"
#include "tensor/layout.h"

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>
#endif

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
  bias_.reset(round_up(K, kChanBlock));
  bias_.fill_zero();
  if (!bias.empty()) std::memcpy(bias_.data(), bias.data(), K * sizeof(float));
  filters_set_ = true;
  if (input_scales_set_) pack_weights();
}

void Int8DepthwiseConv::pack_weights() {
  // Filters go lane-major per output block, [K/64][r*r][64] with zero
  // padding lanes, so a tap's 64 weights sit next to each other like the
  // 64 lanes of the pixel they multiply. The per-lane arrays are zero-padded
  // to whole blocks too.
  const std::size_t K = desc_.out_channels, k_pad = round_up(K, kChanBlock);
  w_q_.reset(k_pad * taps_);
  w_q_.fill_zero();
  w_comp_.reset(k_pad);
  w_comp_.fill_zero();
  w_dequant_.reset(k_pad);
  w_dequant_.fill_zero();
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t t = 0; t < taps_; ++t) {
      amax = std::max(amax, std::abs(weights_fp32_[k * taps_ + t]));
    }
    const float w_scale = QuantParams::from_threshold(amax).scale;
    std::int32_t* w = w_q_.data() + (k / kChanBlock) * taps_ * kChanBlock + k % kChanBlock;
    for (std::size_t t = 0; t < taps_; ++t) {
      w[t * kChanBlock] = saturate_cast_i8(weights_fp32_[k * taps_ + t] * w_scale);
      w_comp_[k] -= 128 * w[t * kChanBlock];
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

namespace {

/// Output pixels per register tile along a row, by the block's live 16-lane
/// groups: 16 int32 accumulators either way, enough independent vpdpbusd
/// chains to hide its latency.
constexpr std::size_t tile_pixels(std::size_t groups) {
  return groups == 1 ? 16 : groups == 2 ? 8 : 4;
}
/// A multiple of every tile_pixels: a plane as wide as this tile's is wide
/// enough for any block's.
constexpr std::size_t kMaxTilePixels = 16;

/// One (image, output block) of the core: its haloed input plane, filters
/// and where its outputs go.
struct DwPlane {
  const std::uint8_t* halo = nullptr;  ///< rows x halo_width x 64 u8 lanes, halo byte 128
  std::size_t halo_width = 0;
  std::size_t kernel = 0, stride = 0, out_height = 0, out_width = 0;
  const std::int32_t* w = nullptr;     ///< r*r x 64 quantized taps
  const std::int32_t* comp = nullptr;  ///< 64 lanes: -128 x the lane's tap sum
  const float* dq = nullptr;           ///< 64 lanes of dequant factors
  const float* bias = nullptr;         ///< 64 lanes
  std::size_t valid = 0;               ///< real lanes (the rest is padding)
  const BlockedEpilogue* epilogue = nullptr;
  std::size_t at = 0;  ///< element offset of the plane's first pixel in the output
  void* out = nullptr;  ///< the whole blocked output (and the residual's layout)

  /// The plane byte under tap (0, 0), lane 0, of output pixel (y, x).
  const std::uint8_t* origin(std::size_t y, std::size_t x) const {
    return halo + (y * stride * halo_width + x * stride) * kChanBlock;
  }
};

#ifdef LOWINO_COMPILE_AVX512

/// The VNNI kernel over G live 16-lane groups. Each accumulator starts at the
/// lane's compensation constant and adds q * w_q per tap with vpdpbusd on a
/// widened input lane (u8 in byte 0, zeros above), so it ends at the exact
/// sum of (q - 128) * w_q. Compile-time R and S (0: the plane's own) let a
/// tile widen each input pixel once per filter row and feed it to every
/// horizontal tap that reads it.
template <int G, int R, int S>
void dw_plane_vnni(const DwPlane& pl) {
  constexpr int P = static_cast<int>(tile_pixels(G));
  const std::size_t r = R != 0 ? R : pl.kernel, s = S != 0 ? S : pl.stride;
  const std::size_t row_bytes = pl.halo_width * kChanBlock, OW = pl.out_width;
  const BlockedEpilogue epilogue = *pl.epilogue;  // a local copy stays in registers
  __mmask16 lanes[G];
  __m512i comp[G];
  __m512 dq[G], bias[G];
  for (int g = 0; g < G; ++g) {
    const std::size_t n = std::min<std::size_t>(16, pl.valid - static_cast<std::size_t>(g) * 16);
    lanes[g] = static_cast<__mmask16>((1u << n) - 1);
    comp[g] = _mm512_loadu_si512(pl.comp + g * 16);
    dq[g] = _mm512_loadu_ps(pl.dq + g * 16);
    bias[g] = _mm512_loadu_ps(pl.bias + g * 16);
  }
  const auto widen = [](const std::uint8_t* px) {
    return _mm512_cvtepu8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(px)));
  };
  const auto taps = [](const std::int32_t* w) { return _mm512_loadu_si512(w); };
  for (std::size_t oh = 0; oh < pl.out_height; ++oh) {
    for (std::size_t ow0 = 0; ow0 < OW; ow0 += P) {
      __m512i acc[P][G];
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        for (int g = 0; g < G; ++g) acc[p][g] = comp[g];
      }
      const std::uint8_t* base = pl.origin(oh, ow0);
      for (std::size_t i = 0; i < r; ++i) {
        const std::uint8_t* row = base + i * row_bytes;
        const std::int32_t* w = pl.w + i * r * kChanBlock;
        if constexpr (R != 0) {
          // Input column x of the tile's rows feeds tap j = x - p S of pixel p.
#pragma GCC unroll 64
          for (int x = 0; x < (P - 1) * S + R; ++x) {
            __m512i in[G];
            for (int g = 0; g < G; ++g) in[g] = widen(row + x * kChanBlock + g * 16);
#pragma GCC unroll 16
            for (int p = 0; p < P; ++p) {
              const int j = x - p * S;
              if (j < 0 || j >= R) continue;
              for (int g = 0; g < G; ++g) {
                acc[p][g] =
                    _mm512_dpbusd_epi32(acc[p][g], in[g], taps(w + j * kChanBlock + g * 16));
              }
            }
          }
        } else {
          for (std::size_t j = 0; j < r; ++j) {
#pragma GCC unroll 16
            for (int p = 0; p < P; ++p) {
              const std::uint8_t* px = row + (p * s + j) * kChanBlock;
              for (int g = 0; g < G; ++g) {
                acc[p][g] = _mm512_dpbusd_epi32(acc[p][g], widen(px + g * 16),
                                                taps(w + j * kChanBlock + g * 16));
              }
            }
          }
        }
      }
      // The epilogue straight from the accumulators.
      const std::size_t n = std::min<std::size_t>(P, OW - ow0);
#pragma GCC unroll 16
      for (int p = 0; p < P; ++p) {
        if (static_cast<std::size_t>(p) >= n) break;
        epilogue.store_groups<G>(acc[p], dq, bias, lanes, pl.at + (oh * OW + ow0 + p) * kChanBlock,
                                 pl.out);
      }
    }
  }
}

/// 3x3 stride 1, the depthwise shape MiniMobileNet serves, runs a
/// compile-time instance; every other shape runs the tap loop.
template <int G>
void dw_plane_vnni(const DwPlane& pl) {
  if (pl.kernel == 3 && pl.stride == 1) return dw_plane_vnni<G, 3, 1>(pl);
  dw_plane_vnni<G, 0, 0>(pl);
}

#endif  // LOWINO_COMPILE_AVX512

/// The path for CPUs without AVX-512 VNNI: the same loop, lane by lane,
/// through BlockedEpilogue.
void dw_plane_scalar(const DwPlane& pl) {
  const std::size_t r = pl.kernel, row = pl.halo_width * kChanBlock;
  for (std::size_t y = 0; y < pl.out_height; ++y) {
    for (std::size_t x = 0; x < pl.out_width; ++x) {
      const std::uint8_t* src = pl.origin(y, x);
      std::int32_t acc[kChanBlock] = {};
      for (std::size_t l = 0; l < pl.valid; ++l) {
        std::int32_t sum = pl.comp[l];
        for (std::size_t i = 0; i < r; ++i) {
          for (std::size_t j = 0; j < r; ++j) {
            sum += src[i * row + j * kChanBlock + l] * pl.w[(i * r + j) * kChanBlock + l];
          }
        }
        acc[l] = sum;
      }
      pl.epilogue->store(acc, pl.dq, pl.bias, pl.valid,
                         pl.at + (y * pl.out_width + x) * kChanBlock, pl.out);
    }
  }
}

void dw_plane(const DwPlane& pl) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_vnni_kernels()) {
    switch (ceil_div(pl.valid, std::size_t{16})) {
      case 1: return dw_plane_vnni<1>(pl);
      case 2: return dw_plane_vnni<2>(pl);
      case 3: return dw_plane_vnni<3>(pl);
      default: return dw_plane_vnni<4>(pl);
    }
  }
#endif
  dw_plane_scalar(pl);
}

}  // namespace

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
  // The haloed plane: every tap of every output pixel (and of a row's last,
  // partly unused register tile) lands inside it, so the kernel has no
  // bounds checks. Input pixel (y, x) sits at (y + pad, x + pad_w); the rest
  // is byte 128. Its width follows the block's tile.
  const std::size_t hh = (OH - 1) * s + r, rows = std::min(H, hh - pad);
  const auto halo_width = [&](std::size_t tile) { return (round_up(OW, tile) - 1) * s + r; };
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  if (scratch_.size() < threads) scratch_.resize(threads);
  for (auto& buf : scratch_) buf.ensure(hh * halo_width(kMaxTilePixels) * kChanBlock);

  const std::uint8_t* in8 = static_cast<const std::uint8_t*>(input);
  const float* in32 = static_cast<const float*>(input);
  const float scale = input_params_.scale;
  const BlockedEpilogue epilogue{post, out_dtype == DType::kU8, out_u8_qp_.scale};
  const std::size_t items = batch * out_layout.chan_blocks;
  auto body = [&](std::size_t tid, std::size_t nw) {
    std::uint8_t* plane = scratch_[tid].data();
    const Range range = static_partition(items, nw, tid);
    for (std::size_t item = range.begin; item < range.end; ++item) {
      const std::size_t b = item / out_layout.chan_blocks;
      const std::size_t kb = item % out_layout.chan_blocks;
      const std::size_t k0 = kb * kChanBlock;
      const std::size_t valid = std::min(kChanBlock, K - k0);
      const std::size_t hw = halo_width(tile_pixels(ceil_div(valid, std::size_t{16})));
      const std::size_t cols = std::min(W, hw - pad_w), row_bytes = hw * kChanBlock;
      {
        // Build the plane: input rows copied (u8), quantized (FP32; padding
        // lanes are 0.0f and become 128) or, with a channel multiplier,
        // lane-gathered (lane l carries input channel (k0 + l) / mult).
        ProfileSpan span(ProfileStage::kInputTransform);
        std::memset(plane, 128, pad * row_bytes);
        std::memset(plane + (pad + rows) * row_bytes, 128, (hh - pad - rows) * row_bytes);
        for (std::size_t y = 0; y < rows; ++y) {
          std::uint8_t* dst = plane + (y + pad) * row_bytes;
          std::memset(dst, 128, pad_w * kChanBlock);
          std::memset(dst + (pad_w + cols) * kChanBlock, 128, (hw - pad_w - cols) * kChanBlock);
          dst += pad_w * kChanBlock;
          if (mult == 1) {
            const std::size_t at = in_layout.offset(b, kb, y, 0);
            if (in_u8) {
              std::memcpy(dst, in8 + at, cols * kChanBlock);
            } else {
              quantize_u8_shift128({in32 + at, cols * kChanBlock}, scale,
                                   {dst, cols * kChanBlock});
            }
            continue;
          }
          std::memset(dst, 128, cols * kChanBlock);
          for (std::size_t l = 0; l < valid; ++l) {
            const std::size_t c = (k0 + l) / mult;
            const std::size_t at = in_layout.offset(b, c / kChanBlock, y, 0) + c % kChanBlock;
            for (std::size_t x = 0; x < cols; ++x) {
              const std::size_t i = at + x * kChanBlock;
              dst[x * kChanBlock + l] =
                  in_u8 ? in8[i] : quantize_u8_shift128_scaled(in32[i] * scale);
            }
          }
        }
      }
      ProfileSpan span(ProfileStage::kGemm);
      DwPlane pl;
      pl.halo = plane;
      pl.halo_width = hw;
      pl.kernel = r;
      pl.stride = s;
      pl.out_height = OH;
      pl.out_width = OW;
      pl.w = w_q_.data() + kb * taps_ * kChanBlock;
      pl.comp = w_comp_.data() + k0;
      pl.dq = w_dequant_.data() + k0;
      pl.bias = bias_.data() + k0;
      pl.valid = valid;
      pl.epilogue = &epilogue;
      pl.at = out_layout.offset(b, kb, 0, 0);
      pl.out = output;
      dw_plane(pl);
    }
  };
  if (pool != nullptr) {
    pool->run(body);
  } else {
    body(0, 1);
  }
}

}  // namespace lowino
