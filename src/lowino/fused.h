// Fused streaming execution (ExecutionMode::kFused).
//
// The staged pipeline (Section 4.3) materializes the full transformed-input
// tensor V (O(tiles x C) bytes) and transformed-output tensor Z
// (4 x O(tiles x K) bytes) between three fork-join regions. The fused path
// follows the Euler INT8 engine's streaming design instead: work is
// partitioned over n-blocks (groups of n_blk macro-tiles) and each worker,
// entirely within one parallel region,
//
//   1. input-transforms + quantizes its n-block slice into a per-thread
//      V panel ([C/Cblk][T][Nblk][Cblk], the staged layout with the n-block
//      index fixed),
//   2. sweeps the packed filters in k-groups (multiples of 64 output
//      channels) with the VNNI GEMM into a per-thread Z panel
//      ([k_grp/64][Nblk][T][64]),
//   3. immediately de-quantizes + output-transforms each finished k-group
//      into the destination image (bias/ReLU fused as usual).
//
// No inter-stage barriers, and both panels stay L2-resident: the V/Z bytes
// never travel to DRAM. The per-tile bodies are shared with the staged
// drivers (transform_quantize_tile / int8_gemm_n_block /
// output_transform_tile), so the two modes are bit-identical by construction;
// the staged path remains as the per-stage-timing mode and the
// differential-testing oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned_buffer.h"
#include "gemm/int8_gemm.h"
#include "lowino/input_transform.h"
#include "lowino/output_transform.h"
#include "lowino/scales.h"
#include "tensor/conv_desc.h"
#include "tensor/layout.h"

namespace lowino {

class ThreadPool;

/// Panel shapes of the fused path for one (geometry, blocking) pair. All
/// sizes are per thread and independent of the total tile count.
struct FusedGeometry {
  std::size_t c_blocks = 0;      ///< padded C / c_blk
  std::size_t kb_per_group = 0;  ///< filter blocks per k-group
  std::size_t k_grp = 0;         ///< output channels per Z panel (multiple of 64)
  std::size_t v_panel_elems = 0; ///< c_blocks * T * n_blk * c_blk (uint8)
  std::size_t z_panel_elems = 0; ///< k_grp * n_blk * T (int32)
  std::size_t acc_elems = 0;     ///< n_blk * k_blk (int32)

  static FusedGeometry make(const WinogradGeometry& geo, std::size_t padded_c,
                            const Int8GemmBlocking& blocking);

  /// Bytes of one thread's panels + accumulator.
  std::size_t per_thread_bytes() const {
    return v_panel_elems + sizeof(std::int32_t) * (z_panel_elems + acc_elems);
  }
};

/// Per-thread arenas of the fused path, owned by the convolution object and
/// reused across execute() calls (steady-state runs are allocation-free).
class FusedWorkspace {
 public:
  struct Arena {
    AlignedBuffer<std::uint8_t> v_panel;
    AlignedBuffer<std::int32_t> z_panel;
    AlignedBuffer<std::int32_t> acc;
    InputTransformScratch in_scratch;
    OutputTransformScratch out_scratch;
  };

  /// Grows to `num_threads` arenas with the given panel shapes. Only
  /// re-allocates when a dimension grows.
  void ensure(std::size_t num_threads, const WinogradGeometry& geo, const FusedGeometry& fg);

  Arena& arena(std::size_t tid) { return arenas_[tid]; }
  std::size_t allocated_threads() const { return arenas_.size(); }

 private:
  std::vector<Arena> arenas_;
};

/// Runs the whole convolution pipeline in fused streaming mode over the
/// blocked input, writing the blocked output. `ws` must have been ensure()d
/// for the pool's thread count. `in_ctx.v_layout`/`in_ctx.nt_store` and
/// `out_ctx.z_layout` are ignored (the fused path owns its panel layouts);
/// `in_ctx.tiles` bounds the n-blocks of a prefix-batch run.
/// `in_blocked`/`out_blocked` point at in_ctx.in_dtype / out_ctx.out_dtype
/// elements (FP32 or u8 hand-off bytes).
void run_fused(const InputTransformContext& in_ctx, const OutputTransformContext& out_ctx,
               const PackedFilterLayout& ul, const std::int8_t* u, const std::int32_t* comp,
               const Int8GemmBlocking& blocking, const FusedGeometry& fg,
               const void* in_blocked, const WinogradScales& scales, void* out_blocked,
               FusedWorkspace& ws, ThreadPool* pool);

inline void run_fused(const InputTransformContext& in_ctx,
                      const OutputTransformContext& out_ctx, const PackedFilterLayout& ul,
                      const std::int8_t* u, const std::int32_t* comp,
                      const Int8GemmBlocking& blocking, const FusedGeometry& fg,
                      std::span<const float> in_blocked, const WinogradScales& scales,
                      std::span<float> out_blocked, FusedWorkspace& ws, ThreadPool* pool) {
  run_fused(in_ctx, out_ctx, ul, u, comp, blocking, fg,
            static_cast<const void*>(in_blocked.data()), scales,
            static_cast<void*>(out_blocked.data()), ws, pool);
}

}  // namespace lowino
