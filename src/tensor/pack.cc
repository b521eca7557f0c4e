#include "tensor/pack.h"

#include <algorithm>
#include <cassert>

#include "common/cpu_features.h"
#include "parallel/thread_pool.h"

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>
#endif

namespace lowino {
namespace {

template <typename Fn>
void for_batch(std::size_t n, ThreadPool* pool, Fn&& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

/// Pixels moved per tile. The blocked side of a tile (64 pixels x 64
/// channels: 16 KiB of FP32, 4 KiB of u8) stays in L1 while its 64 NCHW
/// planes are walked one at a time, so every plane access is a run of
/// consecutive pixels instead of one element per pixel on 64 streams that
/// alias in L1 (planes of 4 KiB or more).
constexpr std::size_t kTilePixels = 64;

/// Channels per transpose group (one 16 x 16 transpose).
constexpr std::size_t kGroup = 16;

#ifdef LOWINO_COMPILE_AVX512
// GCC 12 reports the _mm512_undefined_* merge operands inside the unmasked
// unpack/shuffle intrinsics as uninitialized (GCC PR#105593, see
// CMakeLists.txt); the warning is a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
/// Transposes 16 rows of 16 32-bit lanes in registers.
void transpose16x16(__m512 r[16]) {
  __m512 t[16];
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
  }
  const auto pd = [](__m512 v) { return _mm512_castps_pd(v); };
  const auto ps = [](__m512d v) { return _mm512_castpd_ps(v); };
  for (int i = 0; i < 16; i += 4) {
    r[i] = ps(_mm512_unpacklo_pd(pd(t[i]), pd(t[i + 2])));
    r[i + 1] = ps(_mm512_unpackhi_pd(pd(t[i]), pd(t[i + 2])));
    r[i + 2] = ps(_mm512_unpacklo_pd(pd(t[i + 1]), pd(t[i + 3])));
    r[i + 3] = ps(_mm512_unpackhi_pd(pd(t[i + 1]), pd(t[i + 3])));
  }
  for (int h = 0; h < 16; h += 8) {
    for (int i = 0; i < 4; ++i) {
      t[h + i] = _mm512_shuffle_f32x4(r[h + i], r[h + i + 4], 0x88);
      t[h + i + 4] = _mm512_shuffle_f32x4(r[h + i], r[h + i + 4], 0xdd);
    }
  }
  for (int i = 0; i < 8; ++i) {
    r[i] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0x88);
    r[i + 8] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0xdd);
  }
}

/// dst[j * ds + i] = src[i * ss + j] for a 16 x 16 block of FP32 values.
void transpose_group(const float* src, std::size_t ss, float* dst, std::size_t ds) {
  __m512 r[16];
  for (int i = 0; i < 16; ++i) r[i] = _mm512_loadu_ps(src + i * ss);
  transpose16x16(r);
  for (int j = 0; j < 16; ++j) _mm512_storeu_ps(dst + j * ds, r[j]);
}

/// The same for bytes: each row is widened to 32-bit lanes, transposed, and
/// narrowed back.
void transpose_group(const std::uint8_t* src, std::size_t ss, std::uint8_t* dst,
                     std::size_t ds) {
  __m512 r[16];
  for (int i = 0; i < 16; ++i) {
    const __m128i row = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i * ss));
    r[i] = _mm512_castsi512_ps(_mm512_cvtepu8_epi32(row));
  }
  transpose16x16(r);
  for (int j = 0; j < 16; ++j) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j * ds),
                     _mm512_cvtepi32_epi8(_mm512_castps_si512(r[j])));
  }
}
#pragma GCC diagnostic pop
#endif

/// Whether tiles may use the AVX-512 16 x 16 transposes.
bool simd_transpose() {
#ifdef LOWINO_COMPILE_AVX512
  return cpu_features().has_avx512_kernels();
#else
  return false;
#endif
}

template <typename T>
void simd_group(const T* src, std::size_t ss, T* dst, std::size_t ds) {
#ifdef LOWINO_COMPILE_AVX512
  transpose_group(src, ss, dst, ds);
#else
  (void)src, (void)ss, (void)dst, (void)ds;
#endif
}

/// One tile NCHW -> blocked: `n` pixels of `valid` channel planes (stride
/// `plane`) into n x 64 blocked lanes; lanes >= valid take `pad`, written
/// one pixel's contiguous run at a time.
template <typename T>
void pack_tile(const T* src, std::size_t plane, std::size_t valid, std::size_t n, T* dst,
               T pad, bool simd) {
  for (std::size_t c0 = 0; c0 < valid; c0 += kGroup) {
    const std::size_t cv = std::min(kGroup, valid - c0);
    std::size_t p = 0;
    if (simd && cv == kGroup) {
      for (; p + kGroup <= n; p += kGroup) {
        simd_group(src + c0 * plane + p, plane, dst + p * kChanBlock + c0, kChanBlock);
      }
    }
    for (std::size_t c = 0; c < cv; ++c) {
      const T* s = src + (c0 + c) * plane;
      T* d = dst + c0 + c;
      for (std::size_t q = p; q < n; ++q) d[q * kChanBlock] = s[q];
    }
  }
  if (valid < kChanBlock) {
    for (std::size_t q = 0; q < n; ++q) {
      std::fill(dst + q * kChanBlock + valid, dst + (q + 1) * kChanBlock, pad);
    }
  }
}

/// One tile blocked -> NCHW: the inverse of pack_tile, padding lanes dropped.
template <typename T>
void unpack_tile(const T* src, std::size_t plane, std::size_t valid, std::size_t n, T* dst,
                 bool simd) {
  for (std::size_t c0 = 0; c0 < valid; c0 += kGroup) {
    const std::size_t cv = std::min(kGroup, valid - c0);
    std::size_t p = 0;
    if (simd && cv == kGroup) {
      for (; p + kGroup <= n; p += kGroup) {
        simd_group(src + p * kChanBlock + c0, kChanBlock, dst + c0 * plane + p, plane);
      }
    }
    for (std::size_t c = 0; c < cv; ++c) {
      const T* s = src + c0 + c;
      T* d = dst + (c0 + c) * plane;
      for (std::size_t q = p; q < n; ++q) d[q] = s[q * kChanBlock];
    }
  }
}

/// Runs `tile(nchw_offset, blocked_offset, valid_channels, pixels)` over
/// every (image, channel block) job and pixel tile.
template <typename Tile>
void for_each_tile(std::size_t batch, std::size_t channels, std::size_t height,
                   std::size_t width, ThreadPool* pool, Tile&& tile) {
  const BlockedActLayout layout(batch, channels, height, width);
  const std::size_t hw = height * width;
  for_batch(batch * layout.chan_blocks, pool, [&](std::size_t job) {
    const std::size_t b = job / layout.chan_blocks;
    const std::size_t cb = job % layout.chan_blocks;
    const std::size_t c_begin = cb * kChanBlock;
    const std::size_t valid = std::min(kChanBlock, channels - c_begin);
    const std::size_t plane0 = (b * channels + c_begin) * hw;
    const std::size_t block0 = layout.offset(b, cb, 0, 0);
    for (std::size_t p0 = 0; p0 < hw; p0 += kTilePixels) {
      tile(plane0 + p0, block0 + p0 * kChanBlock, valid, std::min(kTilePixels, hw - p0));
    }
  });
}

template <typename T>
void pack_nchw_to_blocked_impl(std::span<const T> src, std::size_t batch, std::size_t channels,
                               std::size_t height, std::size_t width, std::span<T> dst,
                               T pad_value, ThreadPool* pool) {
  assert(src.size() >= batch * channels * height * width);
  assert(dst.size() >= BlockedActLayout(batch, channels, height, width).size());
  const std::size_t hw = height * width;
  const bool simd = simd_transpose();
  for_each_tile(batch, channels, height, width, pool,
                   [&](std::size_t nchw, std::size_t blocked, std::size_t valid, std::size_t n) {
                     pack_tile(src.data() + nchw, hw, valid, n, dst.data() + blocked,
                               pad_value, simd);
                   });
}

template <typename T>
void unpack_blocked_to_nchw_impl(std::span<const T> src, std::size_t batch, std::size_t channels,
                                 std::size_t height, std::size_t width, std::span<T> dst,
                                 ThreadPool* pool) {
  assert(src.size() >= BlockedActLayout(batch, channels, height, width).size());
  assert(dst.size() >= batch * channels * height * width);
  const std::size_t hw = height * width;
  const bool simd = simd_transpose();
  for_each_tile(batch, channels, height, width, pool,
                   [&](std::size_t nchw, std::size_t blocked, std::size_t valid, std::size_t n) {
                     unpack_tile(src.data() + blocked, hw, valid, n, dst.data() + nchw, simd);
                   });
}

}  // namespace

void pack_nchw_to_blocked(std::span<const float> src, std::size_t batch, std::size_t channels,
                          std::size_t height, std::size_t width, std::span<float> dst,
                          ThreadPool* pool) {
  pack_nchw_to_blocked_impl<float>(src, batch, channels, height, width, dst, 0.0f, pool);
}

void unpack_blocked_to_nchw(std::span<const float> src, std::size_t batch, std::size_t channels,
                            std::size_t height, std::size_t width, std::span<float> dst,
                            ThreadPool* pool) {
  unpack_blocked_to_nchw_impl<float>(src, batch, channels, height, width, dst, pool);
}

void pack_nchw_u8_to_blocked(std::span<const std::uint8_t> src, std::size_t batch,
                             std::size_t channels, std::size_t height, std::size_t width,
                             std::span<std::uint8_t> dst, ThreadPool* pool) {
  // Padding byte 128 == quantized zero of the +128 zero-point encoding.
  pack_nchw_to_blocked_impl<std::uint8_t>(src, batch, channels, height, width, dst,
                                          std::uint8_t{128}, pool);
}

void unpack_blocked_u8_to_nchw(std::span<const std::uint8_t> src, std::size_t batch,
                               std::size_t channels, std::size_t height, std::size_t width,
                               std::span<std::uint8_t> dst, ThreadPool* pool) {
  unpack_blocked_to_nchw_impl<std::uint8_t>(src, batch, channels, height, width, dst, pool);
}

void relayout(DType dtype, ActLayout to, const void* src, std::size_t batch,
              std::size_t channels, std::size_t height, std::size_t width, void* dst,
              ThreadPool* pool) {
  const std::size_t nchw = batch * channels * height * width;
  const std::size_t blocked = BlockedActLayout(batch, channels, height, width).size();
  const std::size_t src_n = to == ActLayout::kBlocked64 ? nchw : blocked;
  const std::size_t dst_n = to == ActLayout::kBlocked64 ? blocked : nchw;
  if (dtype == DType::kU8) {
    const std::span<const std::uint8_t> in(static_cast<const std::uint8_t*>(src), src_n);
    const std::span<std::uint8_t> out(static_cast<std::uint8_t*>(dst), dst_n);
    if (to == ActLayout::kBlocked64) {
      pack_nchw_u8_to_blocked(in, batch, channels, height, width, out, pool);
    } else {
      unpack_blocked_u8_to_nchw(in, batch, channels, height, width, out, pool);
    }
    return;
  }
  const std::span<const float> in(static_cast<const float*>(src), src_n);
  const std::span<float> out(static_cast<float*>(dst), dst_n);
  if (to == ActLayout::kBlocked64) {
    pack_nchw_to_blocked(in, batch, channels, height, width, out, pool);
  } else {
    unpack_blocked_to_nchw(in, batch, channels, height, width, out, pool);
  }
}

}  // namespace lowino
