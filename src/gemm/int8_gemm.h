// Blocked batched INT8 GEMM (Section 4.3).
//
// The Winograd matrix-multiplication stage is a batch of T = alpha^2
// independent tall-and-skinny GEMMs  Z_t = V_t x U_t  (V_t: N x C uint8,
// U_t: C x K int8). This module implements the paper's design:
//   * cache blocking (Nblk, Cblk, Kblk) with an L2-resident accumulator,
//   * register blocking (row_blk, col_blk) via the VNNI microkernels,
//   * compensation-initialized accumulators (Eq. 9),
//   * non-temporal scatter stores into the transformed-output layout,
//   * software prefetch of the next input panel,
//   * static multi-core partitioning over (Nblk x Kblk x T) tasks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "tensor/layout.h"

namespace lowino {

class ThreadPool;

/// Persistent per-thread accumulator scratch for batched_int8_gemm. Owned by
/// the convolution object (next to the fused workspace arena) so steady-state
/// execute() calls are allocation-free; ensure() only re-allocates when the
/// thread count or blocking grows.
struct Int8GemmScratch {
  std::vector<AlignedBuffer<std::int32_t>> per_thread;

  void ensure(std::size_t num_threads, std::size_t acc_elems) {
    if (per_thread.size() < num_threads) per_thread.resize(num_threads);
    for (auto& buf : per_thread) buf.ensure(acc_elems);
  }
};

/// Tuneable blocking parameters (Section 4.3.4). Defaults are sensible for
/// typical layer shapes; the auto-tuner (src/tuning) searches this space.
struct Int8GemmBlocking {
  // Defaults follow what the auto-tuner picks on the representative Table 2
  // layers; adapt_blocking() clamps them to small layer shapes.
  std::size_t n_blk = 96;   ///< rows of V per cache block (multiple of row_blk)
  std::size_t c_blk = 256;  ///< channels per cache block (multiple of 64)
  std::size_t k_blk = 128;  ///< filter columns per cache block (multiple of col_blk*16)
  int row_blk = 6;          ///< register tile rows
  int col_blk = 4;          ///< register tile columns (x16 lanes)
  bool nt_store = true;     ///< non-temporal scatter stores
  bool prefetch = true;     ///< software prefetch of the next V panel

  /// Checks the paper's constraints: register budget row*col + col < 31,
  /// divisibility requirements, and cache bound c_blk * k_blk <= 512^2.
  bool valid() const;
  std::string to_string() const;
};

/// Runs the batched GEMM over the blocked layouts:
///   Z[n][t][k] = comp[t][k] + sum_c V[n][t][c] * U[t][c][k]
/// for n < vl tiles, t < T, k < zl.k_blocks*64. `comp` has shape
/// [T][k_padded] where k_padded = ul.k_blocks * ul.k_blk. Rows of V beyond the
/// real tile count are computed but simply never read downstream.
/// `n_blocks` (1..vl.n_blocks, 0 = all) computes only the leading n-blocks —
/// a prefix-batch run; every computed row is the same as in a full run.
/// Requirements: vl.c_blk == blocking.c_blk, ul layout blocked with
/// (blocking.c_blk, blocking.k_blk), vl.n_blk == blocking.n_blk.
void batched_int8_gemm(const TransformedInputLayout& vl, const std::uint8_t* v,
                       const PackedFilterLayout& ul, const std::int8_t* u,
                       const std::int32_t* comp, const TransformedOutputLayout& zl,
                       std::int32_t* z, const Int8GemmBlocking& blocking,
                       ThreadPool* pool = nullptr, Int8GemmScratch* scratch = nullptr,
                       std::size_t n_blocks = 0);

/// Block-level GEMM for one n-block slice (the fused streaming path).
///
/// `v_block` is a per-thread V panel [c_blocks][T][n_blk][c_blk] (the staged
/// layout with the leading n-block index fixed). Computes, for every filter
/// block kb in [kb_begin, kb_end) and every position t, the full channel
/// reduction with the same panel shapes and accumulation order as
/// batched_int8_gemm (=> bit-identical int32 results) and scatters into the
/// caller's Z panel `z_block` with layout [k_grp/64][n_blk][T][64], where
/// k_grp = (kb_end - kb_begin) * k_blk local output channels. Columns beyond
/// `k_real` global channels (K padded to 64) are skipped, exactly like the
/// staged scatter. `acc` is caller-provided n_blk x k_blk scratch.
void int8_gemm_n_block(const std::uint8_t* v_block, std::size_t c_blocks,
                       std::size_t t_elems, const PackedFilterLayout& ul,
                       const std::int8_t* u, const std::int32_t* comp, std::size_t k_real,
                       std::size_t kb_begin, std::size_t kb_end, std::int32_t* z_block,
                       const Int8GemmBlocking& blocking, std::int32_t* acc);

/// Plain single GEMM on row-major uint8 A (n x c, stride lda) and a packed
/// filter panel B ((c/4) x (k*4) int8, vpdpbusd layout):
///   C[i][j] = comp[j] + sum_l A[i][l] * B[l][j]
/// with arbitrary n (row tails handled), c % 4 == 0, k % 16 == 0.
/// Used by the fused vendor-style baseline's strip loop (and timed on its own
/// by the GEMM benches); the INT8 direct convolution runs its own register
/// tile with the epilogue fused instead (direct/direct_int8.h).
void int8_gemm_packed(const std::uint8_t* a, std::size_t lda, const std::int8_t* b_packed,
                      const std::int32_t* comp, std::int32_t* c, std::size_t ldc,
                      std::size_t n, std::size_t cdim, std::size_t k,
                      const Int8GemmBlocking& blocking, ThreadPool* pool = nullptr);

/// Packs a row-major int8 matrix B (c x k) into the vpdpbusd layout used by
/// int8_gemm_packed: out[(c4)*k*4 + j*4 + cr] = B[c4*4+cr][j], zero-padding
/// c to a multiple of 4 and k to a multiple of 16.
/// `out` must hold round_up(c,4)/4 * round_up(k,16)*4 int8 values.
void pack_b_vpdpbusd(const std::int8_t* b, std::size_t cdim, std::size_t k, std::int8_t* out);

/// Computes the compensation row comp[j] = -128 * sum_c B[c][j] (Eq. 9) from a
/// row-major int8 matrix; `comp` holds round_up(k,16) int32.
void compute_compensation(const std::int8_t* b, std::size_t cdim, std::size_t k,
                          std::int32_t* comp);

}  // namespace lowino
