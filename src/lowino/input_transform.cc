#include "lowino/input_transform.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/aligned_buffer.h"
#include "lowino/transform_kernels.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

namespace lowino {
namespace {

using Scratch = InputTransformScratch;

/// Gathers the alpha x alpha x 16 sub-tile of `tile` for channel lanes
/// [chan_block*64 + group*16, +16) into `d` (zero-filling the halo).
void gather_tile_group(const InputTransformContext& ctx, const float* in, std::size_t tile,
                       std::size_t chan_block, std::size_t group, float* d) {
  const ConvDesc& desc = *ctx.desc;
  const WinogradGeometry& geo = *ctx.geo;
  const std::size_t alpha = geo.alpha;
  const std::size_t b = tile / geo.tiles_per_image;
  const std::size_t rem = tile % geo.tiles_per_image;
  const std::size_t th = rem / geo.tiles_w;
  const std::size_t tw = rem % geo.tiles_w;
  const std::ptrdiff_t ih0 =
      static_cast<std::ptrdiff_t>(th * geo.m) - static_cast<std::ptrdiff_t>(desc.pad);
  const std::ptrdiff_t iw0 =
      static_cast<std::ptrdiff_t>(tw * geo.m) - static_cast<std::ptrdiff_t>(desc.pad);

  for (std::size_t i = 0; i < alpha; ++i) {
    const std::ptrdiff_t ih = ih0 + static_cast<std::ptrdiff_t>(i);
    if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(desc.height)) {
      std::memset(d + i * alpha * 16, 0, alpha * 16 * sizeof(float));
      continue;
    }
    for (std::size_t j = 0; j < alpha; ++j) {
      const std::ptrdiff_t iw = iw0 + static_cast<std::ptrdiff_t>(j);
      float* dst = d + (i * alpha + j) * 16;
      if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(desc.width)) {
        std::memset(dst, 0, 16 * sizeof(float));
      } else {
        const float* src =
            in + ctx.in_layout.offset(b, chan_block, static_cast<std::size_t>(ih),
                                      static_cast<std::size_t>(iw)) +
            group * 16;
        std::memcpy(dst, src, 16 * sizeof(float));
      }
    }
  }
}

/// u8 hand-off gather: identical walk, de-quantizing bytes on the fly as
/// (q - 128) * ctx.in_dequant. The halo stays memset-0 — byte 128 (quantized
/// zero, also the pack padding byte) de-quantizes to exactly 0.0f, so padding
/// semantics match the FP32 gather bit-for-bit.
void gather_tile_group_u8(const InputTransformContext& ctx, const std::uint8_t* in,
                          std::size_t tile, std::size_t chan_block, std::size_t group,
                          float* d) {
  const ConvDesc& desc = *ctx.desc;
  const WinogradGeometry& geo = *ctx.geo;
  const std::size_t alpha = geo.alpha;
  const std::size_t b = tile / geo.tiles_per_image;
  const std::size_t rem = tile % geo.tiles_per_image;
  const std::size_t th = rem / geo.tiles_w;
  const std::size_t tw = rem % geo.tiles_w;
  const std::ptrdiff_t ih0 =
      static_cast<std::ptrdiff_t>(th * geo.m) - static_cast<std::ptrdiff_t>(desc.pad);
  const std::ptrdiff_t iw0 =
      static_cast<std::ptrdiff_t>(tw * geo.m) - static_cast<std::ptrdiff_t>(desc.pad);
  const float inv = ctx.in_dequant;

  for (std::size_t i = 0; i < alpha; ++i) {
    const std::ptrdiff_t ih = ih0 + static_cast<std::ptrdiff_t>(i);
    if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(desc.height)) {
      std::memset(d + i * alpha * 16, 0, alpha * 16 * sizeof(float));
      continue;
    }
    for (std::size_t j = 0; j < alpha; ++j) {
      const std::ptrdiff_t iw = iw0 + static_cast<std::ptrdiff_t>(j);
      float* dst = d + (i * alpha + j) * 16;
      if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(desc.width)) {
        std::memset(dst, 0, 16 * sizeof(float));
      } else {
        const std::uint8_t* src =
            in + ctx.in_layout.offset(b, chan_block, static_cast<std::size_t>(ih),
                                      static_cast<std::size_t>(iw)) +
            group * 16;
        for (std::size_t l = 0; l < 16; ++l) {
          dst[l] = static_cast<float>(static_cast<std::int32_t>(src[l]) - 128) * inv;
        }
      }
    }
  }
}

/// 2D transform of one gathered 16-lane group: V = B^T d B via a column pass
/// followed by a row pass of the 1D codelet plan (Section 4.2.4: the same
/// generated codelet is reused column-wise then row-wise).
void transform_group(const InputTransformContext& ctx, Scratch& s) {
  const std::size_t alpha = ctx.geo->alpha;
  const std::size_t m = ctx.hand_codelets ? ctx.geo->m : 0, r = ctx.geo->r;
  for (std::size_t j = 0; j < alpha; ++j) {
    if (!apply_bt_16(m, r, s.d.data() + j * 16, alpha * 16, s.w.data() + j * 16,
                     alpha * 16)) {
      apply_plan_16(*ctx.bt_plan, s.d.data() + j * 16, alpha * 16, s.w.data() + j * 16,
                    alpha * 16);
    }
  }
  for (std::size_t i = 0; i < alpha; ++i) {
    if (!apply_bt_16(m, r, s.w.data() + i * alpha * 16, 16, s.v.data() + i * alpha * 16,
                     16)) {
      apply_plan_16(*ctx.bt_plan, s.w.data() + i * alpha * 16, 16,
                    s.v.data() + i * alpha * 16, 16);
    }
  }
}

}  // namespace

void transform_tile_fp32(const InputTransformContext& ctx, std::span<const float> in_blocked,
                         std::size_t tile, std::size_t chan_block, float* out) {
  // Thread-local scratch: callers (baselines, calibration) invoke this in
  // tight per-tile loops, often from worker threads.
  thread_local Scratch s;
  s.ensure(ctx.geo->t_elems);
  for (std::size_t g = 0; g < kPhi; ++g) {
    gather_tile_group(ctx, in_blocked.data(), tile, chan_block, g, s.d.data());
    transform_group(ctx, s);
    for (std::size_t t = 0; t < ctx.geo->t_elems; ++t) {
      std::memcpy(out + t * kChanBlock + g * 16, s.v.data() + t * 16, 16 * sizeof(float));
    }
  }
}

void transform_quantize_tile(const InputTransformContext& ctx, const void* in_blocked,
                             std::size_t tile, std::size_t chan_block,
                             const float* scale_of_t, InputTransformScratch& s) {
  const std::size_t t_elems = ctx.geo->t_elems;
  for (std::size_t g = 0; g < kPhi; ++g) {
    if (ctx.in_dtype == DType::kU8) {
      gather_tile_group_u8(ctx, static_cast<const std::uint8_t*>(in_blocked), tile,
                           chan_block, g, s.d.data());
    } else {
      gather_tile_group(ctx, static_cast<const float*>(in_blocked), tile, chan_block, g,
                        s.d.data());
    }
    transform_group(ctx, s);
    for (std::size_t t = 0; t < t_elems; ++t) {
      quantize16_u8(s.v.data() + t * 16, scale_of_t[t],
                    s.staging.data() + t * kChanBlock + g * 16);
    }
  }
}

void run_input_transform(const InputTransformContext& ctx, const void* in_blocked,
                         const WinogradScales& scales, std::uint8_t* v, ThreadPool* pool) {
  const WinogradGeometry& geo = *ctx.geo;
  const std::size_t c_blocks64 = ctx.in_layout.chan_blocks;
  const std::size_t t_elems = geo.t_elems;
  const std::size_t jobs = ctx.tile_count() * c_blocks64;

  // Resolve per-position scales once (stack-resident: T is tiny and a heap
  // buffer here would make steady-state execute() calls allocate).
  float scale_of_t[256];
  assert(t_elems <= 256);
  for (std::size_t t = 0; t < t_elems; ++t) scale_of_t[t] = scales.input_scale(t);

  auto worker = [&](std::size_t tid, std::size_t nw) {
    // Per-worker span: each thread is credited exactly its own busy time (the
    // fused path records the same stage around its per-block transform loop).
    ProfileSpan span(ProfileStage::kInputTransform);
    // Persistent per-thread scratch: pool workers outlive execute() calls, so
    // steady-state runs never re-allocate.
    thread_local Scratch s;
    s.ensure(t_elems);
    const Range range = static_partition(jobs, nw, tid);
    for (std::size_t job = range.begin; job < range.end; ++job) {
      const std::size_t tile = job / c_blocks64;
      const std::size_t cb = job % c_blocks64;
      transform_quantize_tile(ctx, in_blocked, tile, cb, scale_of_t, s);
      // Scatter complete cache lines into [N/Nblk][C/Cblk][T][Nblk][Cblk].
      for (std::size_t t = 0; t < t_elems; ++t) {
        std::uint8_t* dst = v + ctx.v_layout.offset(tile, t, cb * kChanBlock);
        stream_store_64(dst, s.staging.data() + t * kChanBlock, ctx.nt_store);
      }
    }
    stream_fence();
  };

  if (pool != nullptr) {
    pool->run(worker);
  } else {
    worker(0, 1);
  }
}

void collect_calibration(const InputTransformContext& ctx, std::span<const float> in_blocked,
                         WinogradCalibrator& calibrator, std::size_t tile_stride) {
  assert(tile_stride >= 1);
  const WinogradGeometry& geo = *ctx.geo;
  Scratch s(geo.t_elems);
  const std::size_t channels = ctx.desc->in_channels;
  for (std::size_t tile = 0; tile < geo.total_tiles; tile += tile_stride) {
    for (std::size_t cb = 0; cb < ctx.in_layout.chan_blocks; ++cb) {
      for (std::size_t g = 0; g < kPhi; ++g) {
        // Only real channels feed the histograms — zero-padded lanes would
        // bias the KL threshold toward zero.
        const std::size_t lane0 = cb * kChanBlock + g * 16;
        if (lane0 >= channels) break;
        const std::size_t valid = std::min<std::size_t>(16, channels - lane0);
        gather_tile_group(ctx, in_blocked.data(), tile, cb, g, s.d.data());
        transform_group(ctx, s);
        for (std::size_t t = 0; t < geo.t_elems; ++t) {
          calibrator.collect(t, std::span<const float>(s.v.data() + t * 16, valid));
        }
      }
    }
  }
}

}  // namespace lowino
