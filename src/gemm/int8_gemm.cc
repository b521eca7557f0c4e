#include "gemm/int8_gemm.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "gemm/vnni_kernels.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>
#endif

namespace lowino {
namespace {

/// Streams one 64-byte line (16 int32) to `dst`; falls back to regular stores.
inline void store_line(std::int32_t* dst, const std::int32_t* src, bool nt) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    const __m512i line = _mm512_loadu_si512(src);
    if (nt) {
      _mm512_stream_si512(reinterpret_cast<__m512i*>(dst), line);
    } else {
      _mm512_store_si512(dst, line);
    }
    return;
  }
#endif
  (void)nt;
  std::memcpy(dst, src, 64);
}

inline void store_fence() {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) _mm_sfence();
#endif
}

/// Runs the register-blocked kernel sweep over one (rows x k_blk) accumulator
/// panel for one (v_panel, u_panel) cache block.
void run_panel(const std::uint8_t* v_panel, std::size_t v_stride, const std::int8_t* u_panel,
               std::size_t u_stride, std::int32_t* acc, std::size_t acc_stride,
               std::size_t rows, std::size_t k_blk, std::size_t c4_count,
               const std::uint8_t* v_prefetch, MicroKernelFn fn, int row_blk, int col_blk) {
  const std::size_t col_step = static_cast<std::size_t>(col_blk) * 16;
  for (std::size_t r0 = 0; r0 < rows; r0 += static_cast<std::size_t>(row_blk)) {
    const std::size_t r_rem = rows - r0;
    const int r_cur = r_rem >= static_cast<std::size_t>(row_blk)
                          ? row_blk
                          : static_cast<int>(r_rem);
    for (std::size_t c0 = 0; c0 < k_blk;) {
      // Column tail: fall back to single-column (16-lane) tiles when fewer
      // than col_blk * 16 columns remain.
      const bool full_cols = c0 + col_step <= k_blk;
      const int cb_cur = full_cols ? col_blk : 1;
      const std::size_t c_advance = full_cols ? col_step : 16;
      MicroKernelArgs args;
      args.v = v_panel + r0 * v_stride;
      args.v_stride = v_stride;
      args.u = u_panel + c0 * 4;
      args.u_stride = u_stride;
      args.acc = acc + r0 * acc_stride + c0;
      args.acc_stride = acc_stride;
      args.c4_count = c4_count;
      args.v_prefetch = v_prefetch != nullptr ? v_prefetch + r0 * v_stride : nullptr;
      if (fn != nullptr && r_cur == row_blk && cb_cur == col_blk) {
        fn(args);
      } else if (fn != nullptr) {
        // Row/column tail: reuse the (1, cb_cur) kernel per remaining row.
        MicroKernelFn fn1 = get_vnni_microkernel(1, cb_cur);
        for (int r = 0; r < r_cur; ++r) {
          MicroKernelArgs one = args;
          one.v = args.v + static_cast<std::size_t>(r) * v_stride;
          one.acc = args.acc + static_cast<std::size_t>(r) * acc_stride;
          one.v_prefetch = nullptr;
          fn1(one);
        }
      } else {
        scalar_microkernel(args, r_cur, cb_cur);
      }
      c0 += c_advance;
    }
  }
}

}  // namespace

bool Int8GemmBlocking::valid() const {
  if (row_blk <= 0 || col_blk <= 0) return false;
  if (!microkernel_combo_supported(row_blk, col_blk)) return false;
  if (static_cast<std::size_t>(row_blk) * col_blk + col_blk >= 31) return false;
  if (n_blk == 0 || n_blk % static_cast<std::size_t>(row_blk) != 0) return false;
  if (c_blk == 0 || c_blk % kChanBlock != 0) return false;
  if (k_blk == 0 || k_blk % (static_cast<std::size_t>(col_blk) * 16) != 0) return false;
  if (c_blk * k_blk > 512u * 512u) return false;
  return true;
}

std::string Int8GemmBlocking::to_string() const {
  return "Nblk=" + std::to_string(n_blk) + " Cblk=" + std::to_string(c_blk) +
         " Kblk=" + std::to_string(k_blk) + " row=" + std::to_string(row_blk) +
         " col=" + std::to_string(col_blk) + (nt_store ? " nt" : "") +
         (prefetch ? " pf" : "");
}

void batched_int8_gemm(const TransformedInputLayout& vl, const std::uint8_t* v,
                       const PackedFilterLayout& ul, const std::int8_t* u,
                       const std::int32_t* comp, const TransformedOutputLayout& zl,
                       std::int32_t* z, const Int8GemmBlocking& blocking, ThreadPool* pool,
                       Int8GemmScratch* scratch, std::size_t n_blocks) {
  assert(blocking.valid());
  assert(vl.c_blk == blocking.c_blk && vl.n_blk == blocking.n_blk);
  assert(ul.c_blk == blocking.c_blk && ul.k_blk == blocking.k_blk);
  assert(vl.c_blocks == ul.c_blocks && vl.t_elems == ul.t_elems && vl.t_elems == zl.t_elems);

  const std::size_t t_elems = vl.t_elems;
  assert(n_blocks <= vl.n_blocks);
  if (n_blocks == 0) n_blocks = vl.n_blocks;
  const std::size_t c_blocks = vl.c_blocks;
  const std::size_t k_blocks = ul.k_blocks;
  const std::size_t n_blk = blocking.n_blk;
  const std::size_t c_blk = blocking.c_blk;
  const std::size_t k_blk = blocking.k_blk;
  const std::size_t k_real = zl.k_blocks * kChanBlock;
  const std::size_t k_padded = k_blocks * k_blk;
  const std::size_t c4_count = c_blk / 4;
  const std::size_t v_panel_sz = n_blk * c_blk;       // bytes
  const std::size_t u_panel_sz = c_blk * k_blk;       // bytes (c_blk/4 rows x k_blk*4)

  MicroKernelFn fn = get_vnni_microkernel(blocking.row_blk, blocking.col_blk);
  const bool nt = blocking.nt_store && fn != nullptr;

  // Section 4.4: tasks are (n-block, k-block, t) triples; each task owns one
  // Nblk x Kblk accumulator and the full reduction over channel blocks, so
  // tasks are fully independent and statically partitioned.
  const std::size_t total_tasks = n_blocks * k_blocks * t_elems;
  const std::size_t num_threads = pool != nullptr ? pool->num_threads() : 1;
  // Accumulator scratch: caller-owned when provided (steady-state inference
  // is then allocation-free), local otherwise (one-shot callers, tuner).
  Int8GemmScratch local_scratch;
  Int8GemmScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  sc.ensure(num_threads, n_blk * k_blk);

  auto worker = [&](std::size_t tid, std::size_t nw) {
    // Covers the whole task loop including the Z scatter: everything between
    // the transform stages is "multiply" in the Figure 10 sense.
    ProfileSpan span(ProfileStage::kGemm);
    std::int32_t* acc = sc.per_thread[tid].data();
    const Range range = static_partition(total_tasks, nw, tid);
    for (std::size_t task = range.begin; task < range.end; ++task) {
      // kb innermost: consecutive tasks reuse the same (nb, t) V panels while
      // sweeping filter blocks, keeping V in L2 across the kb loop.
      const std::size_t nb = task / (k_blocks * t_elems);
      const std::size_t t = (task / k_blocks) % t_elems;
      const std::size_t kb = task % k_blocks;

      // Accumulator initialization carries the filter-side compensation term
      // of Eq. 9 so the hot loop never sees it.
      const std::int32_t* comp_row = comp + t * k_padded + kb * k_blk;
      for (std::size_t r = 0; r < n_blk; ++r) {
        std::memcpy(acc + r * k_blk, comp_row, k_blk * sizeof(std::int32_t));
      }

      for (std::size_t cb = 0; cb < c_blocks; ++cb) {
        const std::uint8_t* v_panel =
            v + ((nb * c_blocks + cb) * t_elems + t) * v_panel_sz;
        const std::int8_t* u_panel =
            u + ((cb * k_blocks + kb) * t_elems + t) * u_panel_sz;
        const std::uint8_t* v_next = nullptr;
        if (blocking.prefetch) {
          // Prefetch target: the panel the *next* channel block will read
          // (v_{i+1,k} in the paper's notation), or the next task's first.
          if (cb + 1 < c_blocks) {
            v_next = v + ((nb * c_blocks + cb + 1) * t_elems + t) * v_panel_sz;
          } else if (task + 1 < range.end && kb + 1 == k_blocks) {
            const std::size_t nb2 = (task + 1) / (k_blocks * t_elems);
            const std::size_t t2 = ((task + 1) / k_blocks) % t_elems;
            v_next = v + (nb2 * c_blocks * t_elems + t2) * v_panel_sz;
          }
        }
        run_panel(v_panel, c_blk, u_panel, k_blk * 4, acc, k_blk, n_blk, k_blk, c4_count,
                  v_next, fn, blocking.row_blk, blocking.col_blk);
      }

      // Scatter the finished accumulator into the transformed-output layout
      // ([K/64] x N x T x 64) one 64-byte line at a time (Section 4.3.2).
      for (std::size_t r = 0; r < n_blk; ++r) {
        const std::size_t n = nb * n_blk + r;
        if (n >= zl.n_padded) break;
        for (std::size_t k0 = 0; k0 < k_blk; k0 += 16) {
          const std::size_t k = kb * k_blk + k0;
          if (k >= k_real) break;
          store_line(z + zl.offset(n, t, k), acc + r * k_blk + k0, nt);
        }
      }
    }
    if (nt) store_fence();
  };

  if (pool != nullptr) {
    pool->run(worker);
  } else {
    worker(0, 1);
  }
}

void int8_gemm_n_block(const std::uint8_t* v_block, std::size_t c_blocks,
                       std::size_t t_elems, const PackedFilterLayout& ul,
                       const std::int8_t* u, const std::int32_t* comp, std::size_t k_real,
                       std::size_t kb_begin, std::size_t kb_end, std::int32_t* z_block,
                       const Int8GemmBlocking& blocking, std::int32_t* acc) {
  const std::size_t n_blk = blocking.n_blk;
  const std::size_t c_blk = blocking.c_blk;
  const std::size_t k_blk = blocking.k_blk;
  const std::size_t k_blocks = ul.k_blocks;
  const std::size_t k_padded = k_blocks * k_blk;
  const std::size_t c4_count = c_blk / 4;
  const std::size_t v_panel_sz = n_blk * c_blk;  // bytes
  const std::size_t u_panel_sz = c_blk * k_blk;  // bytes
  MicroKernelFn fn = get_vnni_microkernel(blocking.row_blk, blocking.col_blk);

  for (std::size_t kb = kb_begin; kb < kb_end; ++kb) {
    for (std::size_t t = 0; t < t_elems; ++t) {
      // Same accumulation order as the staged batched_int8_gemm task body:
      // compensation init, then the full channel-block reduction.
      const std::int32_t* comp_row = comp + t * k_padded + kb * k_blk;
      for (std::size_t r = 0; r < n_blk; ++r) {
        std::memcpy(acc + r * k_blk, comp_row, k_blk * sizeof(std::int32_t));
      }
      for (std::size_t cb = 0; cb < c_blocks; ++cb) {
        const std::uint8_t* v_panel = v_block + (cb * t_elems + t) * v_panel_sz;
        const std::int8_t* u_panel = u + ((cb * k_blocks + kb) * t_elems + t) * u_panel_sz;
        // No software prefetch: the V panel is L2-resident by construction.
        run_panel(v_panel, c_blk, u_panel, k_blk * 4, acc, k_blk, n_blk, k_blk, c4_count,
                  nullptr, fn, blocking.row_blk, blocking.col_blk);
      }
      // Scatter into the per-thread Z panel [k_grp/64][n_blk][T][64]; plain
      // stores — the panel is about to be re-read by the output transform.
      for (std::size_t r = 0; r < n_blk; ++r) {
        for (std::size_t k0 = 0; k0 < k_blk; k0 += 16) {
          const std::size_t k = kb * k_blk + k0;  // global output channel
          if (k >= k_real) break;
          const std::size_t k_local = k - kb_begin * k_blk;
          const std::size_t kb64 = k_local / kChanBlock;
          const std::size_t ki = k_local % kChanBlock;
          store_line(z_block + ((kb64 * n_blk + r) * t_elems + t) * kChanBlock + ki,
                     acc + r * k_blk + k0, /*nt=*/false);
        }
      }
    }
  }
}

void int8_gemm_packed(const std::uint8_t* a, std::size_t lda, const std::int8_t* b_packed,
                      const std::int32_t* comp, std::int32_t* c, std::size_t ldc,
                      std::size_t n, std::size_t cdim, std::size_t k,
                      const Int8GemmBlocking& blocking, ThreadPool* pool) {
  assert(cdim % 4 == 0 && k % 16 == 0);
  MicroKernelFn fn = get_vnni_microkernel(blocking.row_blk, blocking.col_blk);

  auto body = [&](std::size_t row_begin, std::size_t row_end) {
    // Baseline/direct GEMM entry point. Callers that already hold a kGemm
    // span (the vendor strip loop) are not double-counted: same-stage nested
    // spans are excluded from totals.
    ProfileSpan span(ProfileStage::kGemm);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      if (comp != nullptr) {
        std::memcpy(c + r * ldc, comp, k * sizeof(std::int32_t));
      } else {
        std::memset(c + r * ldc, 0, k * sizeof(std::int32_t));
      }
    }
    run_panel(a + row_begin * lda, lda, b_packed, k * 4, c + row_begin * ldc, ldc,
              row_end - row_begin, k, cdim / 4, nullptr, fn, blocking.row_blk,
              blocking.col_blk);
  };

  if (pool != nullptr && n >= 2 * static_cast<std::size_t>(blocking.row_blk)) {
    pool->parallel_for(n, body);
  } else {
    body(0, n);
  }
}

void pack_b_vpdpbusd(const std::int8_t* b, std::size_t cdim, std::size_t k, std::int8_t* out) {
  const std::size_t c_pad = round_up(cdim, 4);
  const std::size_t k_pad = round_up(k, 16);
  std::memset(out, 0, (c_pad / 4) * k_pad * 4);
  for (std::size_t ci = 0; ci < cdim; ++ci) {
    for (std::size_t j = 0; j < k; ++j) {
      out[(ci / 4) * k_pad * 4 + j * 4 + (ci % 4)] = b[ci * k + j];
    }
  }
}

void compute_compensation(const std::int8_t* b, std::size_t cdim, std::size_t k,
                          std::int32_t* comp) {
  const std::size_t k_pad = round_up(k, 16);
  std::memset(comp, 0, k_pad * sizeof(std::int32_t));
  for (std::size_t ci = 0; ci < cdim; ++ci) {
    for (std::size_t j = 0; j < k; ++j) {
      comp[j] -= 128 * static_cast<std::int32_t>(b[ci * k + j]);
    }
  }
}

}  // namespace lowino
