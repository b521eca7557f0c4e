#include "direct/direct_int8.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "common/cpu_features.h"
#include "common/saturate.h"
#include "direct/blocked_epilogue.h"
#include "gemm/int8_gemm.h"
#include "parallel/partition.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/calibration.h"
#include "tensor/layout.h"

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>
#endif

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

/// Output pixels per register tile: with one 64-lane block (4 groups of 16
/// lanes) that is 24 int32 accumulators, plus 4 filter registers and the
/// broadcast A word.
constexpr std::size_t kTileRows = 6;
template <std::size_t R>
using Rows = std::integral_constant<std::size_t, R>;

/// One (work item, output block) of the core: the A rows of its pixels, the
/// block's filter columns and where its outputs go.
struct DirectBlock {
  const std::uint8_t* a = nullptr;  ///< `rows` A rows, lda bytes apart
  std::size_t lda = 0;
  std::size_t rows = 0;
  std::size_t c4 = 0;               ///< reduction steps: patch_pad / 4
  const std::int8_t* w = nullptr;   ///< packed filters at the block's first column
  std::size_t w_stride = 0;         ///< bytes between the filters' c4 rows
  const std::int32_t* comp = nullptr;  ///< the block's compensation constants
  const float* dq = nullptr;           ///< `valid` dequant factors
  const float* bias = nullptr;         ///< `valid` biases
  std::size_t valid = 0;               ///< real lanes (the rest is padding)
  const BlockedEpilogue* epilogue = nullptr;
  std::size_t at = 0;  ///< element offset of the first pixel in the output
  void* out = nullptr;  ///< the whole blocked output (and the residual's layout)
};

#ifdef LOWINO_COMPILE_AVX512

/// R pixels x G live 16-lane groups from pixel p on: the accumulators start
/// at the compensation constants, add one vpdpbusd per (pixel, group) and
/// reduction step on the pixel's broadcast A word, and go to the epilogue
/// straight from the registers.
template <int G, std::size_t R>
[[gnu::always_inline]] inline void direct_tile_vnni(const DirectBlock& blk,
                                                    const BlockedEpilogue& epilogue,
                                                    const __m512i* comp, const __m512* dq,
                                                    const __m512* bias, const __mmask16* lanes,
                                                    std::size_t p) {
  const std::uint8_t* a = blk.a + p * blk.lda;
  __m512i acc[R][G];
  for (std::size_t i = 0; i < R; ++i) {
    for (int g = 0; g < G; ++g) acc[i][g] = comp[g];
  }
  const std::int8_t* w = blk.w;
  for (std::size_t c4 = 0; c4 < blk.c4; ++c4, w += blk.w_stride) {
    __m512i wg[G];
    for (int g = 0; g < G; ++g) wg[g] = _mm512_load_si512(w + g * 64);
    for (std::size_t i = 0; i < R; ++i) {
      std::int32_t word;
      std::memcpy(&word, a + i * blk.lda + c4 * 4, sizeof(word));
      const __m512i ai = _mm512_set1_epi32(word);
      for (int g = 0; g < G; ++g) acc[i][g] = _mm512_dpbusd_epi32(acc[i][g], ai, wg[g]);
    }
  }
  for (std::size_t i = 0; i < R; ++i) {
    epilogue.store_groups<G>(acc[i], dq, bias, lanes, blk.at + (p + i) * kChanBlock, blk.out);
  }
}

/// The VNNI kernel over G live 16-lane groups: whole tiles, then one
/// compile-time tile for the 1..5 rows left. dq and bias hold only `valid`
/// floats, so their loads are masked.
template <int G>
void direct_block_vnni(const DirectBlock& blk) {
  const BlockedEpilogue epilogue = *blk.epilogue;  // a local copy stays in registers
  __mmask16 lanes[G];
  __m512i comp[G];
  __m512 dq[G], bias[G];
  for (int g = 0; g < G; ++g) {
    const std::size_t n = std::min<std::size_t>(16, blk.valid - static_cast<std::size_t>(g) * 16);
    lanes[g] = static_cast<__mmask16>((1u << n) - 1);
    comp[g] = _mm512_loadu_si512(blk.comp + g * 16);
    dq[g] = _mm512_maskz_loadu_ps(lanes[g], blk.dq + g * 16);
    bias[g] = _mm512_maskz_loadu_ps(lanes[g], blk.bias + g * 16);
  }
  const auto tile = [&](auto rows, std::size_t p) {
    direct_tile_vnni<G, decltype(rows)::value>(blk, epilogue, comp, dq, bias, lanes, p);
  };
  std::size_t p = 0;
  for (; p + kTileRows <= blk.rows; p += kTileRows) tile(Rows<kTileRows>{}, p);
  switch (blk.rows - p) {
    case 1: return tile(Rows<1>{}, p);
    case 2: return tile(Rows<2>{}, p);
    case 3: return tile(Rows<3>{}, p);
    case 4: return tile(Rows<4>{}, p);
    case 5: return tile(Rows<5>{}, p);
    default: return;
  }
}

#endif  // LOWINO_COMPILE_AVX512

/// The path for CPUs without AVX-512 VNNI: the same tiles, lane by lane,
/// into a stack accumulator that BlockedEpilogue::store reads.
void direct_block_scalar(const DirectBlock& blk) {
  for (std::size_t p0 = 0; p0 < blk.rows; p0 += kTileRows) {
    const std::size_t n = std::min(kTileRows, blk.rows - p0);
    std::int32_t acc[kTileRows][kChanBlock];
    for (std::size_t p = 0; p < n; ++p) {
      std::memcpy(acc[p], blk.comp, blk.valid * sizeof(std::int32_t));
    }
    for (std::size_t c4 = 0; c4 < blk.c4; ++c4) {
      const std::int8_t* w = blk.w + c4 * blk.w_stride;
      for (std::size_t p = 0; p < n; ++p) {
        const std::uint8_t* a = blk.a + (p0 + p) * blk.lda + c4 * 4;
        for (std::size_t l = 0; l < blk.valid; ++l) {
          acc[p][l] += a[0] * w[l * 4] + a[1] * w[l * 4 + 1] + a[2] * w[l * 4 + 2] +
                       a[3] * w[l * 4 + 3];
        }
      }
    }
    for (std::size_t p = 0; p < n; ++p) {
      blk.epilogue->store(acc[p], blk.dq, blk.bias, blk.valid, blk.at + (p0 + p) * kChanBlock,
                          blk.out);
    }
  }
}

void direct_block(const DirectBlock& blk) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_vnni_kernels()) {
    switch (ceil_div(blk.valid, std::size_t{16})) {
      case 1: return direct_block_vnni<1>(blk);
      case 2: return direct_block_vnni<2>(blk);
      case 3: return direct_block_vnni<3>(blk);
      default: return direct_block_vnni<4>(blk);
    }
  }
#endif
  direct_block_scalar(blk);
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
  for (auto& buf : scratch_) buf.ensure(image_bytes + panel_bytes);

  const float scale = input_params_.scale;
  const BlockedEpilogue epilogue{post, out_dtype == DType::kU8, out_u8_qp_.scale};
  auto body = [&](std::size_t tid, std::size_t nw) {
    std::uint8_t* quantized = scratch_[tid].data();
    std::uint8_t* panel = quantized + image_bytes;
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
      ProfileSpan span(ProfileStage::kGemm);
      DirectBlock blk;
      blk.a = a;
      blk.lda = lda;
      blk.rows = n;
      blk.c4 = patch_pad_ / 4;
      blk.w_stride = k_pad_ * 4;
      blk.epilogue = &epilogue;
      blk.out = output;
      for (std::size_t kb = 0; kb < out_layout.chan_blocks; ++kb) {
        const std::size_t k0 = kb * kChanBlock;
        blk.w = w_packed_.data() + k0 * 4;
        blk.comp = comp_.data() + k0;
        blk.dq = w_dequant_.data() + k0;
        blk.bias = bias_.data() + k0;
        blk.valid = std::min(kChanBlock, K - k0);
        blk.at = out_layout.offset(b, kb, p0 / OW, p0 % OW);
        direct_block(blk);
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
