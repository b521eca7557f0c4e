// Packing between the interface NCHW layout and the blocked layouts.
//
// Every relayout moves tiles of 64 pixels x 64 channels through L1 (16 x 16
// AVX-512 transposes, of FP32 values or of bytes widened to 32-bit lanes,
// where the CPU has them), so the 64 NCHW planes of a channel block are
// walked one at a time rather than as 64 interleaved store streams; padding
// lanes are filled one pixel's contiguous run at a time. They serve the
// serving session's explicit reorder ops, the NCHW engine entry points and
// the Winograd baselines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/conv_desc.h"
#include "tensor/dtype.h"
#include "tensor/layout.h"

namespace lowino {

class ThreadPool;

/// NCHW (B x C x H x W) -> blocked B x [C/64] x H x W x 64.
/// Channels beyond C (up to the padded 64-multiple) are zero-filled.
void pack_nchw_to_blocked(std::span<const float> src, std::size_t batch, std::size_t channels,
                          std::size_t height, std::size_t width, std::span<float> dst,
                          ThreadPool* pool = nullptr);

/// Blocked B x [C/64] x H x W x 64 -> NCHW (padding channels dropped).
void unpack_blocked_to_nchw(std::span<const float> src, std::size_t batch, std::size_t channels,
                            std::size_t height, std::size_t width, std::span<float> dst,
                            ThreadPool* pool = nullptr);

/// u8 hand-off variants (tensor/dtype.h): same layouts over quantized bytes.
/// Padding channels are filled with 128, the quantized zero of the +128
/// zero-point encoding, so they de-quantize to exactly 0.
void pack_nchw_u8_to_blocked(std::span<const std::uint8_t> src, std::size_t batch,
                             std::size_t channels, std::size_t height, std::size_t width,
                             std::span<std::uint8_t> dst, ThreadPool* pool = nullptr);

void unpack_blocked_u8_to_nchw(std::span<const std::uint8_t> src, std::size_t batch,
                               std::size_t channels, std::size_t height, std::size_t width,
                               std::span<std::uint8_t> dst, ThreadPool* pool = nullptr);

/// Moves one B x C x H x W activation of element type `dtype` into layout
/// `to` (from the other one): pack_nchw_to_blocked / its u8 twin when `to`
/// is kBlocked64, the unpacks when it is kNchw.
void relayout(DType dtype, ActLayout to, const void* src, std::size_t batch,
              std::size_t channels, std::size_t height, std::size_t width, void* dst,
              ThreadPool* pool = nullptr);

}  // namespace lowino
