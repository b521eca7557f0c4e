#include "lowino/output_transform.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/aligned_buffer.h"
#include "lowino/transform_kernels.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

namespace lowino {

void output_transform_tile(const OutputTransformContext& ctx, const std::int32_t* z_tile,
                           std::size_t tile, std::size_t kb, const WinogradScales& scales,
                           OutputTransformScratch& s, void* out_blocked) {
  const ConvDesc& desc = *ctx.desc;
  const WinogradGeometry& geo = *ctx.geo;
  const std::size_t alpha = geo.alpha;
  const std::size_t m = geo.m;
  const std::size_t t_elems = geo.t_elems;
  const std::vector<float>& dq = scales.dequant_table();
  const std::size_t k_padded = scales.k_padded();

  const std::size_t b = tile / geo.tiles_per_image;
  const std::size_t rem = tile % geo.tiles_per_image;
  const std::size_t th = rem / geo.tiles_w;
  const std::size_t tw = rem % geo.tiles_w;
  const std::size_t oh0 = th * m;
  const std::size_t ow0 = tw * m;
  const std::size_t valid_h = std::min(m, desc.out_height() - oh0);
  const std::size_t valid_w = std::min(m, desc.out_width() - ow0);

  for (std::size_t g = 0; g < kPhi; ++g) {
    const std::size_t k_base = kb * kChanBlock + g * 16;
    // 1. De-quantize the T x 16 lanes (reads are fully consecutive).
    for (std::size_t t = 0; t < t_elems; ++t) {
      dequant16(z_tile + t * kChanBlock + g * 16, dq.data() + t * k_padded + k_base,
                s.zf.data() + t * 16);
    }
    // 2. Y = A^T Z A: column pass (alpha -> m rows), then row pass.
    const std::size_t m_codelet = ctx.hand_codelets ? m : 0;
    for (std::size_t j = 0; j < alpha; ++j) {
      if (!apply_at_16(m_codelet, geo.r, s.zf.data() + j * 16, alpha * 16,
                       s.wbuf.data() + j * 16, alpha * 16)) {
        apply_plan_16(*ctx.at_plan, s.zf.data() + j * 16, alpha * 16,
                      s.wbuf.data() + j * 16, alpha * 16);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (!apply_at_16(m_codelet, geo.r, s.wbuf.data() + i * alpha * 16, 16,
                       s.ybuf.data() + i * m * 16, 16)) {
        apply_plan_16(*ctx.at_plan, s.wbuf.data() + i * alpha * 16, 16,
                      s.ybuf.data() + i * m * 16, 16);
      }
    }
    // 3. Bias / +sum / ReLU epilogue + store the valid region. The residual
    // shares the output's blocked offsets (padding lanes hold quantized zero).
    const float* bias16 = ctx.bias != nullptr ? ctx.bias + k_base : nullptr;
    const auto epilogue = [&](const float* y, std::size_t at, float* v) {
      for (std::size_t l = 0; l < 16; ++l) {
        float x = bias16 != nullptr ? y[l] + bias16[l] : y[l];
        if (ctx.sum != nullptr) x += ctx.sum[at + l];
        if (ctx.sum_u8 != nullptr) {
          x += static_cast<float>(static_cast<std::int32_t>(ctx.sum_u8[at + l]) - 128) *
               ctx.sum_u8_dequant;
        }
        v[l] = ctx.relu ? std::max(0.0f, x) : x;
      }
    };
    for (std::size_t i = 0; i < valid_h; ++i) {
      for (std::size_t j = 0; j < valid_w; ++j) {
        const float* y = s.ybuf.data() + (i * m + j) * 16;
        const std::size_t at = ctx.out_layout.offset(b, kb, oh0 + i, ow0 + j) + g * 16;
        if (ctx.out_dtype == DType::kU8) {
          // Requant epilogue: bias -> sum -> relu in FP32 registers, then the
          // same quantize16_u8 kernel as the input transform stores the bytes.
          alignas(64) float v[16];
          epilogue(y, at, v);
          quantize16_u8(v, ctx.requant_scale, static_cast<std::uint8_t*>(out_blocked) + at);
        } else if (bias16 == nullptr && !ctx.relu && ctx.sum == nullptr &&
                   ctx.sum_u8 == nullptr) {
          std::memcpy(static_cast<float*>(out_blocked) + at, y, 16 * sizeof(float));
        } else {
          epilogue(y, at, static_cast<float*>(out_blocked) + at);
        }
      }
    }
  }
}

void run_output_transform(const OutputTransformContext& ctx, const std::int32_t* z,
                          const WinogradScales& scales, void* out_blocked,
                          ThreadPool* pool) {
  const WinogradGeometry& geo = *ctx.geo;
  const std::size_t k_blocks64 = ctx.out_layout.chan_blocks;
  const std::size_t jobs = ctx.tile_count() * k_blocks64;

  auto worker = [&](std::size_t tid, std::size_t nw) {
    ProfileSpan span(ProfileStage::kOutputTransform);
    // Persistent per-thread scratch (see run_input_transform).
    thread_local OutputTransformScratch s;
    s.ensure(geo.t_elems, geo.m, geo.alpha);
    const Range range = static_partition(jobs, nw, tid);
    for (std::size_t job = range.begin; job < range.end; ++job) {
      const std::size_t tile = job / k_blocks64;
      const std::size_t kb = job % k_blocks64;
      const std::int32_t* z_tile = z + ctx.z_layout.offset(tile, 0, kb * kChanBlock);
      output_transform_tile(ctx, z_tile, tile, kb, scales, s, out_blocked);
    }
  };

  if (pool != nullptr) {
    pool->run(worker);
  } else {
    worker(0, 1);
  }
}

}  // namespace lowino
