// AVX-512 FP32 GEMM used by the full-precision baselines (direct im2col
// convolution and FP32 Winograd), the NCHW FP32 convolution and the serving
// dense head. Row-major A (n x c, stride lda), row-major B (c x k, stride
// ldb), C = A * B (row-major, stride ldc). On AVX-512 every element of C
// accumulates from zero by one FMA per l in order, and a k tail past the last
// multiple of 16 runs as one masked vector group with the same arithmetic.
// Not a general BLAS — exactly what its callers need.
#pragma once

#include <cstddef>

namespace lowino {

class ThreadPool;

void fp32_gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc, std::size_t n, std::size_t cdim, std::size_t k,
               ThreadPool* pool = nullptr);

}  // namespace lowino
