// The NCHW entry points of a blocked-I/O engine: pack the input (and any
// residual) into blocked staging buffers, run the engine's blocked core on
// them, and unpack the output — one wrapper shared by LoWinoConvolution and
// the direct INT8 and depthwise engines, so each engine keeps a single
// kernel and its NCHW results are its blocked results by construction.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/aligned_buffer.h"
#include "tensor/conv_desc.h"
#include "tensor/dtype.h"
#include "tensor/layout.h"
#include "tensor/pack.h"
#include "tensor/post_ops.h"

namespace lowino {

class ThreadPool;

/// Staging buffers of one engine's NCHW entry points (bytes, FP32 or u8).
/// Grown on first use and reused, so steady-state calls do not allocate.
class BlockedStaging {
 public:
  /// Packs the first `images` images of `desc`'s NCHW input (dtype `dtype`)
  /// into the input staging buffer and returns it.
  const void* pack_input(const ConvDesc& desc, std::size_t images, DType dtype,
                         const void* input, ThreadPool* pool) {
    in_.ensure(BlockedActLayout(images, desc.in_channels, desc.height, desc.width).size() *
               dtype_bytes(dtype));
    relayout(dtype, ActLayout::kBlocked64, input, images, desc.in_channels, desc.height,
             desc.width, in_.data(), pool);
    return in_.data();
  }

  /// Runs `core(in_blocked, out_blocked, core_post, images)` between the
  /// relayouts of the first `images` (1..batch) images of `desc`'s NCHW input
  /// (dtype `in_dtype`) and output (`out_dtype`), `images_per_pass` (>= 1)
  /// images at a time, so the staging buffers hold one pass, not necessarily
  /// the whole batch. Output images past `images` are not touched.
  /// `core_post` is `post` with the pass's residual packed to the blocked
  /// layout: a residual of the output's dtype is packed straight into the
  /// output buffer and summed in place; one of the other dtype gets its own
  /// buffer.
  template <typename Core>
  void run(const ConvDesc& desc, std::size_t images, std::size_t images_per_pass,
           DType in_dtype, DType out_dtype, const void* input, void* output,
           const PostOps& post, ThreadPool* pool, Core&& core) {
    const std::size_t oh = desc.out_height(), ow = desc.out_width();
    const std::size_t pass = std::min(images_per_pass, images);
    const std::size_t in_image = desc.in_channels * desc.height * desc.width;
    const std::size_t out_image = desc.out_channels * oh * ow;
    const std::size_t out_elems = BlockedActLayout(pass, desc.out_channels, oh, ow).size();
    const DType sum_dtype = post.sum_u8 != nullptr ? DType::kU8 : DType::kF32;
    AlignedBuffer<std::uint8_t>& sum_buf = sum_dtype == out_dtype ? out_ : sum_;
    out_.ensure(out_elems * dtype_bytes(out_dtype));
    if (post.has_sum()) sum_buf.ensure(out_elems * dtype_bytes(sum_dtype));

    for (std::size_t b0 = 0; b0 < images; b0 += pass) {
      const std::size_t n = std::min(pass, images - b0);
      const void* in_blocked = pack_input(
          desc, n, in_dtype,
          static_cast<const std::uint8_t*>(input) + b0 * in_image * dtype_bytes(in_dtype), pool);
      PostOps core_post = post;
      if (post.has_sum()) {
        const std::size_t at = b0 * out_image;
        relayout(sum_dtype, ActLayout::kBlocked64,
                 post.sum_u8 != nullptr ? static_cast<const void*>(post.sum_u8 + at)
                                        : post.sum + at,
                 n, desc.out_channels, oh, ow, sum_buf.data(), pool);
        if (sum_dtype == DType::kU8) {
          core_post.sum_u8 = sum_buf.data();
        } else {
          core_post.sum = reinterpret_cast<const float*>(sum_buf.data());
        }
      }
      core(in_blocked, static_cast<void*>(out_.data()), core_post, n);
      relayout(out_dtype, ActLayout::kNchw, out_.data(), n, desc.out_channels, oh, ow,
               static_cast<std::uint8_t*>(output) + b0 * out_image * dtype_bytes(out_dtype),
               pool);
    }
  }

 private:
  AlignedBuffer<std::uint8_t> in_;
  AlignedBuffer<std::uint8_t> out_;
  AlignedBuffer<std::uint8_t> sum_;  ///< a residual whose dtype differs from the output's
};

}  // namespace lowino
