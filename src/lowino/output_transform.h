// Fused de-quantization + output transform (Section 4.2.3).
//
// The GEMM already scattered each tile's T x 64 INT32 block consecutively, so
// this stage reads purely sequential memory:
//   1. de-quantize the T x 16 lanes with the per-(t, k) table (Eq. 6),
//   2. apply Y = A^T . Z . A with the codelet plan,
//   3. apply the fused epilogue (bias, optional residual +sum, optional ReLU
//      — see tensor/post_ops.h) and store the valid m x m region into the
//      blocked output image.
#pragma once

#include <cstdint>
#include <span>

#include "common/aligned_buffer.h"
#include "lowino/engine_config.h"
#include "lowino/scales.h"
#include "tensor/conv_desc.h"
#include "tensor/dtype.h"
#include "tensor/layout.h"
#include "winograd/codelet_plan.h"

namespace lowino {

class ThreadPool;

/// Per-thread scratch of the output transform (see InputTransformScratch).
struct OutputTransformScratch {
  AlignedBuffer<float> zf;    ///< de-quantized tile, one 16-lane group
  AlignedBuffer<float> wbuf;  ///< column-pass intermediate (m x alpha x 16)
  AlignedBuffer<float> ybuf;  ///< transformed output tile (m x m x 16)

  OutputTransformScratch() = default;
  OutputTransformScratch(std::size_t t_elems, std::size_t m, std::size_t alpha) {
    ensure(t_elems, m, alpha);
  }

  void ensure(std::size_t t_elems, std::size_t m, std::size_t alpha) {
    zf.ensure(t_elems * 16);
    wbuf.ensure(m * alpha * 16);
    ybuf.ensure(m * m * 16);
  }
};

struct OutputTransformContext {
  const ConvDesc* desc = nullptr;
  const WinogradGeometry* geo = nullptr;
  const CodeletPlan* at_plan = nullptr;  ///< plan for A^T (m x alpha)
  TransformedOutputLayout z_layout;
  BlockedActLayout out_layout;
  const float* bias = nullptr;  ///< [K64], may be null
  bool relu = false;
  /// Residual source for the fused "+sum" epilogue, or nullptr. Blocked, in
  /// exactly the output's layout (out_layout): each lane is read at the offset
  /// its output lane is stored to, so the residual may alias the output (every
  /// position is read before its own store, and tiles are disjoint). Padding
  /// lanes hold quantized zero. Applied after bias, before ReLU (see
  /// tensor/post_ops.h for the bit-exactness argument).
  const float* sum = nullptr;
  /// See InputTransformContext::hand_codelets.
  bool hand_codelets = false;
  /// Element type of the blocked output. kU8 appends the requant stage to the
  /// epilogue — q = saturate_u8(round_ne(requant_scale * v) + 128) — AFTER
  /// bias, sum and ReLU, i.e. the epilogue order is bias -> sum -> relu ->
  /// requant (DESIGN.md decision 13). The FP32 store path is untouched.
  DType out_dtype = DType::kF32;
  float requant_scale = 1.0f;
  /// u8 residual for the fused "+sum" epilogue (serving hand-off), or
  /// nullptr. Same blocked walk as `sum`; bytes de-quantize on the fly as
  /// (q - 128) * sum_u8_dequant. At most one of sum / sum_u8.
  const std::uint8_t* sum_u8 = nullptr;
  float sum_u8_dequant = 1.0f;
  /// Prefix-batch bound, as InputTransformContext::tiles: only tiles
  /// [0, tiles) are stored (0 = every tile); later output images are not
  /// touched.
  std::size_t tiles = 0;
  std::size_t tile_count() const { return tiles != 0 ? tiles : geo->total_tiles; }
};

/// `out_blocked` points at ctx.out_dtype elements (FP32 or u8 hand-off bytes).
void run_output_transform(const OutputTransformContext& ctx, const std::int32_t* z,
                          const WinogradScales& scales, void* out_blocked,
                          ThreadPool* pool = nullptr);

inline void run_output_transform(const OutputTransformContext& ctx, const std::int32_t* z,
                                 const WinogradScales& scales, std::span<float> out_blocked,
                                 ThreadPool* pool = nullptr) {
  run_output_transform(ctx, z, scales, static_cast<void*>(out_blocked.data()), pool);
}

/// Block-level body shared by the staged and fused drivers: de-quantizes one
/// tile's T x 64 INT32 block (`z_tile`, contiguous position-major as produced
/// by the GEMM scatter for both the staged Z tensor and the fused Z panel),
/// applies Y = A^T Z A, adds bias/ReLU and stores the valid m x m region of
/// global tile `tile`, output-channel block `kb` (64 channels). Identical
/// float operation sequence in both drivers => bit-identical outputs.
void output_transform_tile(const OutputTransformContext& ctx, const std::int32_t* z_tile,
                           std::size_t tile, std::size_t kb, const WinogradScales& scales,
                           OutputTransformScratch& s, void* out_blocked);

}  // namespace lowino
