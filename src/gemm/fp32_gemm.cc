#include "gemm/fp32_gemm.h"

#include <type_traits>

#include "common/cpu_features.h"
#include "parallel/thread_pool.h"

#ifdef LOWINO_COMPILE_AVX512
#include <immintrin.h>
#endif

namespace lowino {
namespace {

#ifdef LOWINO_COMPILE_AVX512

/// Register-blocked FMA microkernel: RowBlk x (ColBlk*16) tile of C. The
/// last 16-column group loads and stores only the lanes in `last` (every lane
/// but a k tail's is set), so a tail runs the same FMA sequence as a full
/// group and never touches B or C past column k.
template <int RowBlk, int ColBlk>
void f32_kernel(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
                std::size_t ldc, std::size_t cdim, __mmask16 last = 0xFFFF) {
  __m512 acc[RowBlk][ColBlk];
  for (int r = 0; r < RowBlk; ++r) {
    for (int cc = 0; cc < ColBlk; ++cc) acc[r][cc] = _mm512_setzero_ps();
  }
  for (std::size_t l = 0; l < cdim; ++l) {
    __m512 bv[ColBlk];
    const float* b_row = b + l * ldb;
    for (int cc = 0; cc + 1 < ColBlk; ++cc) bv[cc] = _mm512_loadu_ps(b_row + cc * 16);
    bv[ColBlk - 1] = _mm512_maskz_loadu_ps(last, b_row + (ColBlk - 1) * 16);
    for (int r = 0; r < RowBlk; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + l]);
      for (int cc = 0; cc < ColBlk; ++cc) {
        acc[r][cc] = _mm512_fmadd_ps(av, bv[cc], acc[r][cc]);
      }
    }
  }
  for (int r = 0; r < RowBlk; ++r) {
    for (int cc = 0; cc + 1 < ColBlk; ++cc) {
      _mm512_storeu_ps(c + r * ldc + cc * 16, acc[r][cc]);
    }
    _mm512_mask_storeu_ps(c + r * ldc + (ColBlk - 1) * 16, last, acc[r][ColBlk - 1]);
  }
}

void f32_rows_avx512(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                     float* c, std::size_t ldc, std::size_t rows, std::size_t cdim,
                     std::size_t k) {
  // Columns past the last multiple of 16 run as one masked group.
  const __mmask16 tail = static_cast<__mmask16>((1u << (k % 16)) - 1);
  const auto row_block = [&](auto rows_constant, std::size_t r0) {
    constexpr int R = decltype(rows_constant)::value;
    std::size_t c0 = 0;
    for (; c0 + 64 <= k; c0 += 64) {
      f32_kernel<R, 4>(a + r0 * lda, lda, b + c0, ldb, c + r0 * ldc + c0, ldc, cdim);
    }
    for (; c0 + 16 <= k; c0 += 16) {
      f32_kernel<R, 1>(a + r0 * lda, lda, b + c0, ldb, c + r0 * ldc + c0, ldc, cdim);
    }
    if (c0 < k) {
      f32_kernel<R, 1>(a + r0 * lda, lda, b + c0, ldb, c + r0 * ldc + c0, ldc, cdim, tail);
    }
  };
  std::size_t r0 = 0;
  for (; r0 + 6 <= rows; r0 += 6) row_block(std::integral_constant<int, 6>{}, r0);
  // The last rows as one block, so B streams once more, not once per row.
  switch (rows - r0) {
    case 5: return row_block(std::integral_constant<int, 5>{}, r0);
    case 4: return row_block(std::integral_constant<int, 4>{}, r0);
    case 3: return row_block(std::integral_constant<int, 3>{}, r0);
    case 2: return row_block(std::integral_constant<int, 2>{}, r0);
    case 1: return row_block(std::integral_constant<int, 1>{}, r0);
    default: return;
  }
}
#endif  // LOWINO_COMPILE_AVX512

/// The path for CPUs without AVX-512.
void f32_rows_scalar(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                     float* c, std::size_t ldc, std::size_t rows, std::size_t cdim,
                     std::size_t k) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < k; ++j) c[i * ldc + j] = 0.0f;
    for (std::size_t l = 0; l < cdim; ++l) {
      const float av = a[i * lda + l];
      const float* b_row = b + l * ldb;
      float* c_row = c + i * ldc;
      for (std::size_t j = 0; j < k; ++j) c_row[j] += av * b_row[j];
    }
  }
}

void f32_rows(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
              std::size_t ldc, std::size_t rows, std::size_t cdim, std::size_t k) {
#ifdef LOWINO_COMPILE_AVX512
  if (cpu_features().has_avx512_kernels()) {
    f32_rows_avx512(a, lda, b, ldb, c, ldc, rows, cdim, k);
    return;
  }
#endif
  f32_rows_scalar(a, lda, b, ldb, c, ldc, rows, cdim, k);
}

}  // namespace

void fp32_gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc, std::size_t n, std::size_t cdim, std::size_t k,
               ThreadPool* pool) {
  if (pool != nullptr && n >= 12) {
    pool->parallel_for(n, [&](std::size_t begin, std::size_t end) {
      f32_rows(a + begin * lda, lda, b, ldb, c + begin * ldc, ldc, end - begin, cdim, k);
    });
  } else {
    f32_rows(a, lda, b, ldb, c, ldc, n, cdim, k);
  }
}

}  // namespace lowino
