// Fused vendor-style INT8 Winograd F(2x2, 3x3) — the performance stand-in for
// oneDNN's low-precision Winograd convolution (Sections 2.3, 5.3).
//
// Design replicated from the paper's description of oneDNN:
//   * down-scaling quantization (spatial INT8 + fixed post-transform scaling),
//   * the image is processed in *strips* of tiles whose intermediate V / Z
//     buffers stay cache-resident ("divides the input data into several
//     partitions, and for each part it saves all the intermediate data"),
//   * consequently the T GEMMs are small (strip x C x K), trading compute
//     efficiency for memory locality — the exact trade-off Figure 10 analyzes.
#pragma once

#include <cstdint>
#include <span>

#include "baselines/wino_common.h"
#include "common/aligned_buffer.h"
#include "gemm/int8_gemm.h"
#include "quant/histogram.h"
#include "tensor/conv_desc.h"
#include "tensor/layout.h"
#include "winograd/transform.h"

namespace lowino {

class VendorWinoF23 {
 public:
  /// `cache_budget_bytes`: target size of the per-strip intermediates
  /// (default 256 KiB, a typical L2 working-set share).
  explicit VendorWinoF23(const ConvDesc& desc, std::size_t cache_budget_bytes = 256 * 1024);

  void calibrate(std::span<const float> input_nchw);
  void finalize_calibration();
  void set_input_threshold(float tau);
  void set_filters(std::span<const float> weights, std::span<const float> bias = {});

  void execute_nchw(std::span<const float> input, std::span<float> output,
                    ThreadPool* pool = nullptr);

  const ConvDesc& desc() const { return desc_; }
  std::size_t strip_tiles() const { return strip_tiles_; }

 private:
  void maybe_pack();

  ConvDesc desc_;
  WinogradGeometry geo_;
  const TransformMatrices* tm_ = nullptr;
  CodeletPlan bt_plan_;
  CodeletPlan at_plan_;
  BlockedActLayout in_layout_;
  BlockedActLayout out_layout_;
  std::size_t strip_tiles_ = 1;

  Histogram input_hist_;
  float input_scale_ = 0.0f;
  float alpha_v_ = 0.25f;  ///< F(2,3) down-scale factor 1/4
  float alpha_u_ = 1.0f;
  bool input_scales_set_ = false;

  AlignedBuffer<float> weights_fp32_;
  AlignedBuffer<float> bias_;
  bool filters_set_ = false;
  bool packed_ = false;

  AlignedBuffer<std::int8_t> u_packed_;  ///< [T] x vpdpbusd-packed (C64 x K64)
  AlignedBuffer<std::int32_t> comp_;     ///< [T][K64]
  AlignedBuffer<float> dequant_;         ///< [K64]

  AlignedBuffer<float> grid_input_;
  AlignedBuffer<float> in_blocked_;
  AlignedBuffer<float> out_blocked_;
};

}  // namespace lowino
