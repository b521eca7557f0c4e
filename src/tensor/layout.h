// The customized blocked data layouts of Table 1.
//
// All five blocked layouts are expressed as small index structs exposing
// size() / offset(...) so kernels and tests share one source of truth.
// phi = 4 (int8 per 32-bit word), sigma = 16 (fp32 lanes), phi*sigma = 64.
//
//   Input images         B x [C/64] x H x W x 64                 (fp32)
//   Transformed inputs   [N/Nblk] x [C/Cblk] x T x Nblk x Cblk   (uint8)
//   Filters              C x [K/64] x r x r x 64                 (fp32, offline)
//   Transformed filters  [C/Cblk] x [K/Kblk] x T x Cblk/4 x Kblk*4 (int8)
//   Transformed outputs  [K/64] x N x T x 64                     (int32)
//   Output images        B x [K/64] x H' x W' x 64               (fp32)
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/aligned_buffer.h"
#include "tensor/conv_desc.h"

namespace lowino {

/// Layout of one serving activation: the interface NCHW layout, or the
/// 64-channel blocked layout below (BlockedActLayout), whose padding lanes
/// (channels >= C) hold quantized zero — 0.0f, or byte 128 for u8.
enum class ActLayout : std::uint8_t {
  kNchw = 0,
  kBlocked64 = 1,
};

/// Display token ("nchw" / "blocked64") for plan summaries.
inline constexpr const char* layout_token(ActLayout l) {
  return l == ActLayout::kBlocked64 ? "blocked64" : "nchw";
}

/// B x [C/64] x H x W x 64 blocked activation layout (input & output images).
struct BlockedActLayout {
  std::size_t batch = 0;
  std::size_t chan_blocks = 0;  ///< ceil(C / 64)
  std::size_t height = 0;
  std::size_t width = 0;

  BlockedActLayout() = default;
  BlockedActLayout(std::size_t b, std::size_t c, std::size_t h, std::size_t w)
      : batch(b), chan_blocks(ceil_div(c, kChanBlock)), height(h), width(w) {}

  std::size_t size() const { return batch * chan_blocks * height * width * kChanBlock; }

  /// Offset of the 64-channel pixel block (b, cb, h, w); channel-in-block 0.
  std::size_t offset(std::size_t b, std::size_t cb, std::size_t h, std::size_t w) const {
    return (((b * chan_blocks + cb) * height + h) * width + w) * kChanBlock;
  }
};

/// [N/Nblk] x [C/Cblk] x T x Nblk x Cblk transformed-input layout (uint8).
/// N (total tiles) is padded to a multiple of Nblk; C to a multiple of Cblk.
struct TransformedInputLayout {
  std::size_t n_blocks = 0;
  std::size_t c_blocks = 0;
  std::size_t t_elems = 0;
  std::size_t n_blk = 0;
  std::size_t c_blk = 0;

  TransformedInputLayout() = default;
  TransformedInputLayout(std::size_t total_tiles, std::size_t padded_c, std::size_t t,
                         std::size_t nblk, std::size_t cblk)
      : n_blocks(ceil_div(total_tiles, nblk)),
        c_blocks(ceil_div(padded_c, cblk)),
        t_elems(t),
        n_blk(nblk),
        c_blk(cblk) {}

  std::size_t size() const { return n_blocks * c_blocks * t_elems * n_blk * c_blk; }

  /// Offset of element (tile n, position t, channel c).
  std::size_t offset(std::size_t n, std::size_t t, std::size_t c) const {
    const std::size_t nb = n / n_blk, ni = n % n_blk;
    const std::size_t cb = c / c_blk, ci = c % c_blk;
    return (((nb * c_blocks + cb) * t_elems + t) * n_blk + ni) * c_blk + ci;
  }
};

/// [C/Cblk] x [K/Kblk] x T x Cblk/4 x (Kblk*4) transformed-filter layout
/// (int8), i.e. the vpdpbusd-ready packing: for a fixed group of 4 input
/// channels, 4 int8 values per output channel are laid out consecutively.
struct PackedFilterLayout {
  std::size_t c_blocks = 0;
  std::size_t k_blocks = 0;
  std::size_t t_elems = 0;
  std::size_t c_blk = 0;
  std::size_t k_blk = 0;

  PackedFilterLayout() = default;
  PackedFilterLayout(std::size_t padded_c, std::size_t padded_k, std::size_t t,
                     std::size_t cblk, std::size_t kblk)
      : c_blocks(ceil_div(padded_c, cblk)),
        k_blocks(ceil_div(padded_k, kblk)),
        t_elems(t),
        c_blk(cblk),
        k_blk(kblk) {}

  std::size_t size() const { return c_blocks * k_blocks * t_elems * c_blk * k_blk; }

  /// Offset of filter value (position t, input channel c, output channel k).
  std::size_t offset(std::size_t t, std::size_t c, std::size_t k) const {
    const std::size_t cb = c / c_blk, ci = c % c_blk;
    const std::size_t kb = k / k_blk, ki = k % k_blk;
    const std::size_t c4 = ci / kPhi, cr = ci % kPhi;
    return ((((cb * k_blocks + kb) * t_elems + t) * (c_blk / kPhi) + c4) * k_blk + ki) * kPhi +
           cr;
  }
};

/// [K/64] x Npad x T x 64 transformed-output layout (int32). The GEMM scatters
/// 16-lane result vectors here with non-temporal stores; the output transform
/// then reads each tile's T x 64 block fully consecutively (Section 4.2.3).
struct TransformedOutputLayout {
  std::size_t k_blocks = 0;
  std::size_t n_padded = 0;
  std::size_t t_elems = 0;

  TransformedOutputLayout() = default;
  TransformedOutputLayout(std::size_t padded_k, std::size_t total_tiles_padded, std::size_t t)
      : k_blocks(padded_k / kChanBlock), n_padded(total_tiles_padded), t_elems(t) {}

  std::size_t size() const { return k_blocks * n_padded * t_elems * kChanBlock; }

  /// Offset of element (tile n, position t, output channel k).
  std::size_t offset(std::size_t n, std::size_t t, std::size_t k) const {
    const std::size_t kb = k / kChanBlock, ki = k % kChanBlock;
    return ((kb * n_padded + n) * t_elems + t) * kChanBlock + ki;
  }
};

}  // namespace lowino
