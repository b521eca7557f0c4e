#include "lowino/convolution.h"

#include <cassert>
#include <stdexcept>

#include "common/cpu_features.h"
#include "gemm/int8_gemm.h"
#include "gemm/vnni_kernels.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"

namespace lowino {

Int8GemmBlocking adapt_blocking(Int8GemmBlocking b, std::size_t padded_c,
                                std::size_t padded_k, std::size_t total_tiles) {
  b.c_blk = std::min(b.c_blk, padded_c);
  b.k_blk = std::min(b.k_blk, padded_k);
  if (total_tiles != 0 && b.n_blk > total_tiles) {
    // Small layers: padding N up to a large Nblk would waste whole multiples
    // of the real work (e.g. 8 tiles padded to 96).
    b.n_blk = round_up_multiple(total_tiles, static_cast<std::size_t>(b.row_blk));
  }
  // Repair divisibility: k_blk must be a multiple of col_blk * 16.
  while (b.col_blk > 1 && b.k_blk % (static_cast<std::size_t>(b.col_blk) * 16) != 0) {
    --b.col_blk;
  }
  if (!microkernel_combo_supported(b.row_blk, b.col_blk)) {
    // Fall back to a known-good register tile.
    b.row_blk = 6;
    b.col_blk = 4;
    while (b.col_blk > 1 && b.k_blk % (static_cast<std::size_t>(b.col_blk) * 16) != 0) {
      --b.col_blk;
    }
  }
  if (b.n_blk % static_cast<std::size_t>(b.row_blk) != 0) {
    b.n_blk = round_up_multiple(b.n_blk, static_cast<std::size_t>(b.row_blk));
  }
  // Cache bound (Section 4.3.4): shrink c_blk if the clamp pushed k_blk up.
  while (b.c_blk * b.k_blk > 512u * 512u && b.c_blk > kChanBlock) {
    b.c_blk -= kChanBlock;
  }
  if (!b.valid()) throw std::invalid_argument("adapt_blocking: unrepairable blocking");
  return b;
}

LoWinoConvolution::LoWinoConvolution(const ConvDesc& desc, const LoWinoConfig& config)
    : desc_(desc), config_(config) {
  desc.validate();
  desc.require_ungrouped("LoWinoConvolution");
  if (desc.stride != 1) {
    throw std::invalid_argument("LoWino supports unit stride only");
  }
  if (!desc.symmetric_padding()) {
    throw std::invalid_argument("LoWino supports symmetric padding only");
  }
  if (desc.kernel < 2) {
    throw std::invalid_argument("LoWino needs r >= 2 (use direct conv for 1x1)");
  }
  geo_ = WinogradGeometry(desc_, config_.m);

  // Canonical Lavin matrices for the paper's headline sizes; generated
  // (exact-rational, verified) matrices for everything else.
  if (config_.m == 2 && desc.kernel == 3) {
    tm_ = &canonical_f23();
  } else if (config_.m == 4 && desc.kernel == 3) {
    tm_ = &canonical_f43();
  } else {
    tm_ = &winograd_transform(config_.m, desc.kernel);
  }
  canonical_tm_ = (tm_ == &canonical_f23() || tm_ == &canonical_f43()) &&
                  config_.use_hand_codelets;
  bt_plan_ = CodeletPlan::build(tm_->BT.data(), geo_.alpha, geo_.alpha);
  at_plan_ = CodeletPlan::build(tm_->AT.data(), geo_.m, geo_.alpha);

  const std::size_t c64 = desc_.padded_in_channels();
  const std::size_t k64 = desc_.padded_out_channels();
  config_.blocking = adapt_blocking(config_.blocking, c64, k64, geo_.total_tiles);

  v_layout_ = TransformedInputLayout(geo_.total_tiles, c64, geo_.t_elems,
                                     config_.blocking.n_blk, config_.blocking.c_blk);
  const std::size_t n_padded = v_layout_.n_blocks * config_.blocking.n_blk;
  z_layout_ = TransformedOutputLayout(k64, n_padded, geo_.t_elems);
  in_layout_ = BlockedActLayout(desc_.batch, desc_.in_channels, desc_.height, desc_.width);
  out_layout_ =
      BlockedActLayout(desc_.batch, desc_.out_channels, desc_.out_height(), desc_.out_width());

  const PackedFilterLayout fl(c64, k64, geo_.t_elems, config_.blocking.c_blk,
                              config_.blocking.k_blk);
  const std::size_t k_padded = fl.k_blocks * fl.k_blk;
  scales_ = WinogradScales(geo_.t_elems,
                           config_.input_scales == ScaleGranularity::kPerPosition, k_padded,
                           config_.per_channel_filter_scales);
  calibrator_ = WinogradCalibrator(geo_.t_elems,
                                   config_.input_scales == ScaleGranularity::kPerPosition);
}

void LoWinoConvolution::calibrate(std::span<const float> input_nchw,
                                  std::size_t tile_stride) {
  ProfileSpan span(ProfileStage::kCalibration);
  const std::span<const float> blocked(
      static_cast<const float*>(
          staging_.pack_input(desc_, desc_.batch, DType::kF32, input_nchw.data(), nullptr)),
      in_layout_.size());
  InputTransformContext ctx{&desc_, &geo_, &bt_plan_, in_layout_, v_layout_, false,
                            canonical_tm_};
  collect_calibration(ctx, blocked, calibrator_, tile_stride);
}

void LoWinoConvolution::finalize_calibration() {
  if (calibrator_.empty()) {
    throw std::logic_error("finalize_calibration called before calibrate()");
  }
  calibrator_.finalize_into(scales_);
  input_scales_set_ = true;
  maybe_build_dequant();
}

void LoWinoConvolution::set_input_thresholds(std::span<const float> taus) {
  assert(taus.size() >= geo_.t_elems);
  for (std::size_t t = 0; t < geo_.t_elems; ++t) {
    scales_.set_input_scale(t, QuantParams::from_threshold(taus[t]));
  }
  input_scales_set_ = true;
  maybe_build_dequant();
}

void LoWinoConvolution::set_uniform_input_threshold(float tau) {
  for (std::size_t t = 0; t < geo_.t_elems; ++t) {
    scales_.set_input_scale(t, QuantParams::from_threshold(tau));
  }
  input_scales_set_ = true;
  maybe_build_dequant();
}

void LoWinoConvolution::set_filters(std::span<const float> weights,
                                    std::span<const float> bias) {
  ProfileSpan span(ProfileStage::kFilterPack);
  transform_and_pack_filters(desc_, geo_, *tm_, config_, weights, bias, scales_, filters_);
  filters_set_ = true;
  maybe_build_dequant();
}

void LoWinoConvolution::maybe_build_dequant() {
  if (filters_set_ && input_scales_set_) scales_.build_dequant_table();
}

ExecutionMode LoWinoConvolution::resolve_execution_mode(std::size_t num_threads) const {
  if (config_.execution_mode != ExecutionMode::kAuto) return config_.execution_mode;
  const std::size_t staged =
      v_layout_.size() * sizeof(std::uint8_t) + z_layout_.size() * sizeof(std::int32_t);
  // Fuse exactly when the staged intermediates stop fitting in aggregate L2:
  // below that the staged round trips are cache hits anyway and its larger
  // GEMM task grid parallelizes the k dimension too.
  return staged > num_threads * l2_cache_bytes() ? ExecutionMode::kFused
                                                 : ExecutionMode::kStaged;
}

std::size_t LoWinoConvolution::workspace_bytes(ExecutionMode mode,
                                               std::size_t num_threads) const {
  if (num_threads == 0) num_threads = 1;
  if (mode == ExecutionMode::kAuto) mode = resolve_execution_mode(num_threads);
  if (mode == ExecutionMode::kFused) {
    const FusedGeometry fg =
        FusedGeometry::make(geo_, desc_.padded_in_channels(), config_.blocking);
    return num_threads * fg.per_thread_bytes();
  }
  return v_layout_.size() * sizeof(std::uint8_t) + z_layout_.size() * sizeof(std::int32_t);
}

void LoWinoConvolution::execute_blocked(std::span<const float> input, std::span<float> output,
                                        ThreadPool* pool, const PostOps& post,
                                        std::size_t images) {
  images = desc_.resolve_images(images);
  assert(input.size() >= in_layout_.size() / desc_.batch * images);
  assert(output.size() >= out_layout_.size() / desc_.batch * images);
  // The span API is FP32-by-contract regardless of any u8 hand-off
  // configuration — calibration/tuning/testing flows keep their semantics.
  execute_blocked_impl(input.data(), output.data(), DType::kF32, DType::kF32, pool, post,
                       images);
}

void LoWinoConvolution::execute_blocked_typed(const void* input, void* output,
                                              ThreadPool* pool, const PostOps& post,
                                              std::size_t images) {
  execute_blocked_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                       out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                       desc_.resolve_images(images));
}

void LoWinoConvolution::execute_blocked_impl(const void* input, void* output, DType in_dtype,
                                             DType out_dtype, ThreadPool* pool,
                                             const PostOps& post, std::size_t images) {
  if (!ready()) {
    throw std::logic_error("LoWinoConvolution: set_filters + calibration required");
  }

  const std::size_t num_threads = pool != nullptr ? pool->num_threads() : 1;
  const ExecutionMode mode = resolve_execution_mode(num_threads);
  last_mode_ = mode;
  last_threads_ = num_threads;

  InputTransformContext in_ctx{&desc_,     &geo_,     &bt_plan_,     in_layout_,
                               v_layout_, config_.blocking.nt_store, canonical_tm_};
  in_ctx.in_dtype = in_dtype;
  in_ctx.in_dequant = in_u8_qp_.inv_scale;
  OutputTransformContext out_ctx{&desc_,      &geo_,       &at_plan_,
                                 z_layout_,   out_layout_, filters_.bias.data(),
                                 post.relu,   post.sum,    canonical_tm_};
  out_ctx.out_dtype = out_dtype;
  out_ctx.requant_scale = out_u8_qp_.scale;
  out_ctx.sum_u8 = post.sum_u8;
  out_ctx.sum_u8_dequant = post.sum_u8_inv_scale;
  // A prefix run covers whole images: their tiles come first (image-major
  // numbering), and the mode stays the one resolved for the full batch.
  const std::size_t tiles = images * geo_.tiles_per_image;
  in_ctx.tiles = tiles;
  out_ctx.tiles = tiles;

  if (mode == ExecutionMode::kFused) {
    const FusedGeometry fg =
        FusedGeometry::make(geo_, desc_.padded_in_channels(), config_.blocking);
    fused_ws_.ensure(num_threads, geo_, fg);
    run_fused(in_ctx, out_ctx, filters_.layout, filters_.data.data(), filters_.comp.data(),
              config_.blocking, fg, input, scales_, output, fused_ws_, pool);
    return;
  }

  if (v_buf_.size() != v_layout_.size()) {
    v_buf_.reset(v_layout_.size());
    // Padded tiles/channels are never written by the transform; zero them
    // once so the GEMM reads well-defined values (they multiply zero filters).
    v_buf_.fill_zero();
  }
  z_buf_.ensure(z_layout_.size());

  run_input_transform(in_ctx, input, scales_, v_buf_.data(), pool);
  batched_int8_gemm(v_layout_, v_buf_.data(), filters_.layout, filters_.data.data(),
                    filters_.comp.data(), z_layout_, z_buf_.data(), config_.blocking, pool,
                    &gemm_scratch_, ceil_div(tiles, config_.blocking.n_blk));
  run_output_transform(out_ctx, z_buf_.data(), scales_, output, pool);
}

void LoWinoConvolution::execute_nchw(std::span<const float> input, std::span<float> output,
                                     ThreadPool* pool, const PostOps& post,
                                     std::size_t images) {
  execute_nchw_impl(input.data(), output.data(), DType::kF32, DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void LoWinoConvolution::execute_nchw_typed(const void* input, void* output, ThreadPool* pool,
                                           const PostOps& post, std::size_t images) {
  execute_nchw_impl(input, output, in_u8_ ? DType::kU8 : DType::kF32,
                    out_u8_ ? DType::kU8 : DType::kF32, pool, post,
                    desc_.resolve_images(images));
}

void LoWinoConvolution::execute_nchw_impl(const void* input, void* output, DType in_dtype,
                                          DType out_dtype, ThreadPool* pool,
                                          const PostOps& post, std::size_t images) {
  // One pass over every requested image: the core's layouts are sized for it.
  staging_.run(desc_, images, images, in_dtype, out_dtype, input, output, post, pool,
               [&](const void* in, void* out, const PostOps& core, std::size_t n) {
                 execute_blocked_impl(in, out, in_dtype, out_dtype, pool, core, n);
               });
}

}  // namespace lowino
