// Fused input transform + Winograd-domain quantization (Sections 4.2.1, 3).
//
// For every tile and 64-channel block:
//   1. gather the alpha x alpha x 64 FP32 tile from the blocked input
//      (zero-filling the padding border),
//   2. apply B^T . d . B with the CSE codelet plan, 16 lanes at a time,
//   3. quantize each of the T = alpha^2 positions with its Winograd-domain
//      scale and add the +128 compensation shift,
//   4. scatter complete 64-byte lines into the transformed-input layout with
//      non-temporal stores.
#pragma once

#include <cstdint>
#include <span>

#include "common/aligned_buffer.h"
#include "lowino/scales.h"
#include "tensor/conv_desc.h"
#include "tensor/dtype.h"
#include "tensor/layout.h"
#include "winograd/codelet_plan.h"

namespace lowino {

class ThreadPool;

/// Per-thread transform scratch: FP32 tile buffers and the uint8 staging
/// tile. Reused across execute() calls (thread-local in the staged driver,
/// arena-owned in the fused one) so steady-state runs are allocation-free.
struct InputTransformScratch {
  AlignedBuffer<float> d;               ///< alpha x alpha x 16 gathered input
  AlignedBuffer<float> w;               ///< column-pass intermediate
  AlignedBuffer<float> v;               ///< fully transformed tile
  AlignedBuffer<std::uint8_t> staging;  ///< T x 64 quantized tile

  InputTransformScratch() = default;
  explicit InputTransformScratch(std::size_t t_elems) { ensure(t_elems); }

  void ensure(std::size_t t_elems) {
    d.ensure(t_elems * 16);
    w.ensure(t_elems * 16);
    v.ensure(t_elems * 16);
    staging.ensure(t_elems * kChanBlock);
  }
};

struct InputTransformContext {
  const ConvDesc* desc = nullptr;
  const WinogradGeometry* geo = nullptr;
  const CodeletPlan* bt_plan = nullptr;  ///< plan for B^T (alpha x alpha)
  BlockedActLayout in_layout;
  TransformedInputLayout v_layout;
  bool nt_store = true;
  /// Enable the hand-scheduled AVX-512 codelets. Only valid when bt_plan was
  /// built from the *canonical* F(2,3)/F(4,3) matrices — the codelets
  /// hard-code those coefficients (generated matrices differ in row signs).
  bool hand_codelets = false;
  /// Element type of the blocked input. kU8 means the serving u8 hand-off:
  /// the gather de-quantizes bytes on the fly as (q - 128) * in_dequant into
  /// the FP32 tile (the zero-filled halo is unchanged — 128 de-quantizes to
  /// exactly 0), and everything downstream is identical to the FP32 path.
  DType in_dtype = DType::kF32;
  float in_dequant = 1.0f;  ///< inv_scale of the u8 input hand-off
  /// Prefix-batch bound: the drivers process tiles [0, tiles) only; 0 means
  /// every tile. Tiles are numbered image by image, so the first n images
  /// are exactly the first n * tiles_per_image tiles.
  std::size_t tiles = 0;
  std::size_t tile_count() const { return tiles != 0 ? tiles : geo->total_tiles; }
};

/// Transforms + quantizes the blocked input's first ctx.tile_count() tiles
/// into `v`. `in_blocked`
/// points at ctx.in_dtype elements (FP32 floats or u8 hand-off bytes).
void run_input_transform(const InputTransformContext& ctx, const void* in_blocked,
                         const WinogradScales& scales, std::uint8_t* v,
                         ThreadPool* pool = nullptr);

inline void run_input_transform(const InputTransformContext& ctx,
                                std::span<const float> in_blocked,
                                const WinogradScales& scales, std::uint8_t* v,
                                ThreadPool* pool = nullptr) {
  run_input_transform(ctx, static_cast<const void*>(in_blocked.data()), scales, v, pool);
}

/// Block-level body shared by the staged and fused drivers: transforms one
/// (tile, 64-channel-block) pair and quantizes it into `s.staging`
/// (T x 64 bytes, position-major). `scale_of_t` holds the resolved
/// per-position input scales (length T). The caller scatters the staging tile
/// into its destination layout; the computation is identical either way, so
/// the two drivers produce bit-identical V bytes.
void transform_quantize_tile(const InputTransformContext& ctx, const void* in_blocked,
                             std::size_t tile, std::size_t chan_block,
                             const float* scale_of_t, InputTransformScratch& s);

/// Transforms one (tile, 64-channel-block) pair to FP32 Winograd-domain
/// values without quantization: out[t*64 + g*16 + lane]. Used by calibration
/// and by tests as the reference for the quantized path.
void transform_tile_fp32(const InputTransformContext& ctx, std::span<const float> in_blocked,
                         std::size_t tile, std::size_t chan_block, float* out);

/// Calibration sweep: transforms every tile of `in_blocked` and feeds the
/// FP32 Winograd-domain values into the calibrator (Eq. 7's sample pass).
/// `tile_stride` subsamples tiles to bound calibration cost.
void collect_calibration(const InputTransformContext& ctx, std::span<const float> in_blocked,
                         WinogradCalibrator& calibrator, std::size_t tile_stride = 1);

}  // namespace lowino
