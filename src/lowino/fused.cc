#include "lowino/fused.h"

#include <algorithm>
#include <cassert>

#include "lowino/transform_kernels.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

namespace lowino {

FusedGeometry FusedGeometry::make(const WinogradGeometry& geo, std::size_t padded_c,
                                  const Int8GemmBlocking& blocking) {
  FusedGeometry fg;
  fg.c_blocks = (padded_c + blocking.c_blk - 1) / blocking.c_blk;
  // Smallest run of filter blocks whose total width is a multiple of 64, so
  // the Z panel always holds whole output-channel blocks (k_blk is a multiple
  // of 16 => at most 4 blocks per group).
  fg.kb_per_group = 1;
  while ((fg.kb_per_group * blocking.k_blk) % kChanBlock != 0) ++fg.kb_per_group;
  fg.k_grp = fg.kb_per_group * blocking.k_blk;
  fg.v_panel_elems = fg.c_blocks * geo.t_elems * blocking.n_blk * blocking.c_blk;
  fg.z_panel_elems = fg.k_grp * blocking.n_blk * geo.t_elems;
  fg.acc_elems = blocking.n_blk * blocking.k_blk;
  return fg;
}

void FusedWorkspace::ensure(std::size_t num_threads, const WinogradGeometry& geo,
                            const FusedGeometry& fg) {
  if (arenas_.size() < num_threads) arenas_.resize(num_threads);
  for (auto& a : arenas_) {
    if (a.v_panel.size() < fg.v_panel_elems) {
      a.v_panel.reset(fg.v_panel_elems);
      // Padded-channel lanes of partial tiles stay zero forever (the transform
      // only writes real 64-channel blocks); the GEMM multiplies them against
      // zero filters, matching the staged V tensor's one-time fill_zero.
      a.v_panel.fill_zero();
    }
    a.z_panel.ensure(fg.z_panel_elems);
    a.acc.ensure(fg.acc_elems);
    a.in_scratch.ensure(geo.t_elems);
    a.out_scratch.ensure(geo.t_elems, geo.m, geo.alpha);
  }
}

void run_fused(const InputTransformContext& in_ctx, const OutputTransformContext& out_ctx,
               const PackedFilterLayout& ul, const std::int8_t* u, const std::int32_t* comp,
               const Int8GemmBlocking& blocking, const FusedGeometry& fg,
               const void* in_blocked, const WinogradScales& scales, void* out_blocked,
               FusedWorkspace& ws, ThreadPool* pool) {
  const WinogradGeometry& geo = *in_ctx.geo;
  const std::size_t t_elems = geo.t_elems;
  const std::size_t n_blk = blocking.n_blk;
  const std::size_t c_blk = blocking.c_blk;
  const std::size_t k_blk = blocking.k_blk;
  const std::size_t c_blocks64 = in_ctx.in_layout.chan_blocks;
  const std::size_t k_blocks64 = out_ctx.out_layout.chan_blocks;
  const std::size_t k_real = k_blocks64 * kChanBlock;
  const std::size_t tiles = in_ctx.tile_count();
  const std::size_t n_blocks = ceil_div(tiles, n_blk);

  assert(ws.allocated_threads() >= (pool != nullptr ? pool->num_threads() : 1));

  // Resolve per-position input scales once (T is tiny, alpha <= 16).
  float scale_of_t[256];
  assert(t_elems <= 256);
  for (std::size_t t = 0; t < t_elems; ++t) scale_of_t[t] = scales.input_scale(t);

  auto worker = [&](std::size_t tid, std::size_t nw) {
    FusedWorkspace::Arena& a = ws.arena(tid);
    const Range nbs = static_partition(n_blocks, nw, tid);
    for (std::size_t nb = nbs.begin; nb < nbs.end; ++nb) {
      const std::size_t tile0 = nb * n_blk;
      const std::size_t rows = std::min(n_blk, tiles - tile0);

      // Stage 1: transform + quantize the n-block into the V panel
      // ([C/Cblk][T][Nblk][Cblk] — the staged layout with nb fixed, so the
      // GEMM walks it with identical strides). Per-n-block profiler spans
      // expose the interleaving the fused design is built on: the trace shows
      // transform/GEMM/output alternating within one parallel region.
      {
        ProfileSpan span(ProfileStage::kInputTransform);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t cb64 = 0; cb64 < c_blocks64; ++cb64) {
            transform_quantize_tile(in_ctx, in_blocked, tile0 + r, cb64, scale_of_t,
                                    a.in_scratch);
            const std::size_t c = cb64 * kChanBlock;
            const std::size_t cb = c / c_blk;
            const std::size_t ci = c % c_blk;
            for (std::size_t t = 0; t < t_elems; ++t) {
              std::uint8_t* dst =
                  a.v_panel.data() + ((cb * t_elems + t) * n_blk + r) * c_blk + ci;
              // Plain stores: the panel is re-read immediately by the GEMM.
              stream_store_64(dst, a.in_scratch.staging.data() + t * kChanBlock, false);
            }
          }
        }
      }

      // Stages 2+3: sweep the filters one k-group at a time; each group's Z
      // panel is output-transformed while still hot.
      for (std::size_t g0 = 0; g0 < ul.k_blocks; g0 += fg.kb_per_group) {
        const std::size_t g1 = std::min(g0 + fg.kb_per_group, ul.k_blocks);
        {
          ProfileSpan span(ProfileStage::kGemm);
          int8_gemm_n_block(a.v_panel.data(), fg.c_blocks, t_elems, ul, u, comp, k_real, g0,
                            g1, a.z_panel.data(), blocking, a.acc.data());
        }
        ProfileSpan span(ProfileStage::kOutputTransform);
        const std::size_t k64_begin = g0 * k_blk / kChanBlock;
        const std::size_t k64_end = std::min(g1 * k_blk / kChanBlock, k_blocks64);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t k64 = k64_begin; k64 < k64_end; ++k64) {
            const std::int32_t* z_tile =
                a.z_panel.data() + (((k64 - k64_begin) * n_blk + r) * t_elems) * kChanBlock;
            output_transform_tile(out_ctx, z_tile, tile0 + r, k64, scales, a.out_scratch,
                                  out_blocked);
          }
        }
      }
    }
  };

  if (pool != nullptr) {
    pool->run(worker);
  } else {
    worker(0, 1);
  }
}

}  // namespace lowino
