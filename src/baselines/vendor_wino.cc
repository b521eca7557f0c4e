#include "baselines/vendor_wino.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/saturate.h"
#include "lowino/filter_pack.h"
#include "lowino/input_transform.h"
#include "lowino/transform_kernels.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "quant/calibration.h"
#include "tensor/pack.h"

namespace lowino {

VendorWinoF23::VendorWinoF23(const ConvDesc& desc, std::size_t cache_budget_bytes)
    : desc_(desc) {
  desc.validate();
  desc.require_ungrouped("VendorWinoF23");
  if (desc.stride != 1) throw std::invalid_argument("unit stride only");
  if (!desc.symmetric_padding()) throw std::invalid_argument("symmetric padding only");
  if (desc.kernel != 3) throw std::invalid_argument("VendorWinoF23: r = 3 only");
  geo_ = WinogradGeometry(desc_, 2);
  tm_ = &canonical_f23();
  bt_plan_ = CodeletPlan::build(tm_->BT.data(), geo_.alpha, geo_.alpha);
  at_plan_ = CodeletPlan::build(tm_->AT.data(), geo_.m, geo_.alpha);
  in_layout_ = BlockedActLayout(desc_.batch, desc_.in_channels, desc_.height, desc_.width);
  out_layout_ = BlockedActLayout(desc_.batch, desc_.out_channels, desc_.out_height(),
                                 desc_.out_width());
  alpha_v_ = static_cast<float>(1.0 / tm_->input_amplification_2d());  // 1/4

  // Strip size: T * (S*C (uint8 V) + S*K*4 (int32 Z)) <= budget.
  const std::size_t c64 = desc_.padded_in_channels();
  const std::size_t k64 = desc_.padded_out_channels();
  const std::size_t per_tile = geo_.t_elems * (c64 + 4 * k64);
  strip_tiles_ = std::clamp<std::size_t>(cache_budget_bytes / per_tile, 1, geo_.total_tiles);
}

void VendorWinoF23::calibrate(std::span<const float> input_nchw) {
  ProfileSpan span(ProfileStage::kCalibration);
  input_hist_.collect(input_nchw);
}

void VendorWinoF23::finalize_calibration() {
  input_scale_ = calibrate_params(input_hist_).scale;
  input_scales_set_ = true;
  maybe_pack();
}

void VendorWinoF23::set_input_threshold(float tau) {
  input_scale_ = QuantParams::from_threshold(tau).scale;
  input_scales_set_ = true;
  maybe_pack();
}

void VendorWinoF23::set_filters(std::span<const float> weights, std::span<const float> bias) {
  const std::size_t n = desc_.out_channels * desc_.in_channels * 9;
  assert(weights.size() >= n);
  weights_fp32_.reset(n);
  std::copy(weights.begin(), weights.begin() + static_cast<std::ptrdiff_t>(n),
            weights_fp32_.data());
  bias_.reset(desc_.padded_out_channels());
  bias_.fill_zero();
  if (!bias.empty()) {
    std::memcpy(bias_.data(), bias.data(), desc_.out_channels * sizeof(float));
  }
  filters_set_ = true;
  maybe_pack();
}

void VendorWinoF23::maybe_pack() {
  if (!filters_set_ || !input_scales_set_) return;
  ProfileSpan span(ProfileStage::kFilterPack);
  const std::size_t C = desc_.in_channels, K = desc_.out_channels;
  const std::size_t c64 = desc_.padded_in_channels();
  const std::size_t k64 = desc_.padded_out_channels();
  const std::size_t t_elems = geo_.t_elems;

  // Down-scaling filter path (same scheme as DownscaleWinoConv, F(2,3)).
  std::vector<float> w_scale(K);
  std::vector<float> w_grid(K * C * 9);
  for (std::size_t k = 0; k < K; ++k) {
    float amax = 0.0f;
    for (std::size_t i = 0; i < C * 9; ++i) {
      amax = std::max(amax, std::abs(weights_fp32_[k * C * 9 + i]));
    }
    w_scale[k] = QuantParams::from_threshold(amax).scale;
    for (std::size_t i = 0; i < C * 9; ++i) {
      w_grid[k * C * 9 + i] =
          static_cast<float>(saturate_cast_i8(weights_fp32_[k * C * 9 + i] * w_scale[k])) /
          w_scale[k];
    }
  }
  const double g_gain = 2.25;  // (1/2+1/2+1/2)^2, F(2,3) G amplification
  alpha_u_ = static_cast<float>(1.0 / g_gain);

  std::vector<float> u_all;
  transform_all_filters(desc_, *tm_, w_grid, u_all);
  std::vector<std::int8_t> u_q(c64 * k64);
  const std::size_t panel = (c64 / 4) * k64 * 4;
  u_packed_.reset(t_elems * panel);
  comp_.reset(t_elems * k64);
  for (std::size_t t = 0; t < t_elems; ++t) {
    std::fill(u_q.begin(), u_q.end(), static_cast<std::int8_t>(0));
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t k = 0; k < K; ++k) {
        u_q[c * k64 + k] =
            saturate_cast_i8(u_all[(t * c64 + c) * k64 + k] * w_scale[k] * alpha_u_);
      }
    }
    pack_b_vpdpbusd(u_q.data(), c64, k64, u_packed_.data() + t * panel);
    compute_compensation(u_q.data(), c64, k64, comp_.data() + t * k64);
  }

  dequant_.reset(k64);
  for (std::size_t k = 0; k < k64; ++k) {
    const float ws = k < K ? w_scale[k] : 1.0f;
    dequant_[k] = 1.0f / (input_scale_ * alpha_v_ * ws * alpha_u_);
  }
  packed_ = true;
}

void VendorWinoF23::execute_nchw(std::span<const float> input, std::span<float> output,
                                 ThreadPool* pool) {
  if (!packed_) throw std::logic_error("VendorWinoF23: setup incomplete");
  const std::size_t c64 = desc_.padded_in_channels();
  const std::size_t k64 = desc_.padded_out_channels();
  const std::size_t n_tiles = geo_.total_tiles;
  const std::size_t t_elems = geo_.t_elems;
  const std::size_t n_in = desc_.batch * desc_.in_channels * desc_.height * desc_.width;
  const std::size_t cb_count = c64 / kChanBlock;
  const float v_scale = alpha_v_ * input_scale_;

  grid_input_.ensure(n_in);
  quantize_to_grid(input.subspan(0, n_in), input_scale_, grid_input_.span());
  in_blocked_.ensure(in_layout_.size());
  out_blocked_.ensure(out_layout_.size());
  pack_nchw_to_blocked(grid_input_.span(), desc_.batch, desc_.in_channels, desc_.height,
                       desc_.width, in_blocked_.span(), pool);

  InputTransformContext ctx{&desc_, &geo_, &bt_plan_, in_layout_, TransformedInputLayout{},
                            false, /*hand_codelets=*/true};  // canonical F(2,3)
  const std::size_t panel = (c64 / 4) * k64 * 4;
  const std::size_t n_strips = ceil_div(n_tiles, strip_tiles_);

  // Strips are distributed across threads; all intermediates are per-strip
  // (cache-resident), which is the defining property of this design.
  auto worker = [&](std::size_t tid, std::size_t nw) {
    AlignedBuffer<float> tile_vals(t_elems * kChanBlock);
    AlignedBuffer<std::uint8_t> v_strip(t_elems * strip_tiles_ * c64);
    AlignedBuffer<std::int32_t> z_strip(t_elems * strip_tiles_ * k64);
    const Range range = static_partition(n_strips, nw, tid);
    for (std::size_t strip = range.begin; strip < range.end; ++strip) {
      const std::size_t tile0 = strip * strip_tiles_;
      const std::size_t tile1 = std::min(n_tiles, tile0 + strip_tiles_);
      const std::size_t rows = tile1 - tile0;

      {
        ProfileSpan span(ProfileStage::kInputTransform);
        for (std::size_t tile = tile0; tile < tile1; ++tile) {
          for (std::size_t cb = 0; cb < cb_count; ++cb) {
            transform_tile_fp32(ctx, in_blocked_.span(), tile, cb, tile_vals.data());
            for (std::size_t t = 0; t < t_elems; ++t) {
              std::uint8_t* dst = v_strip.data() +
                                  (t * strip_tiles_ + (tile - tile0)) * c64 + cb * kChanBlock;
              for (std::size_t g = 0; g < kPhi; ++g) {
                quantize16_u8(tile_vals.data() + t * kChanBlock + g * 16, v_scale,
                              dst + g * 16);
              }
            }
          }
        }
      }

      {
        ProfileSpan span(ProfileStage::kGemm);
        for (std::size_t t = 0; t < t_elems; ++t) {
          int8_gemm_packed(v_strip.data() + t * strip_tiles_ * c64, c64,
                           u_packed_.data() + t * panel, comp_.data() + t * k64,
                           z_strip.data() + t * strip_tiles_ * k64, k64, rows, c64, k64,
                           Int8GemmBlocking{});
        }
      }

      {
        ProfileSpan span(ProfileStage::kOutputTransform);
        gather_output_transform_i32(desc_, geo_, at_plan_, z_strip.data(), strip_tiles_, k64,
                                    dequant_.data(), bias_.data(), out_blocked_.span(),
                                    tile0, tile1, tile0);
      }
    }
  };

  if (pool != nullptr) {
    pool->run(worker);
  } else {
    worker(0, 1);
  }

  unpack_blocked_to_nchw(out_blocked_.span(), desc_.batch, desc_.out_channels,
                         desc_.out_height(), desc_.out_width(), output, pool);
}

}  // namespace lowino
