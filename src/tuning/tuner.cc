#include "tuning/tuner.h"

#include <limits>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "common/timer.h"
#include "lowino/convolution.h"
#include "parallel/thread_pool.h"
#include "profile/profiler.h"
#include "tuning/search_space.h"

namespace lowino {
namespace {

double time_blocking(const ConvDesc& desc, const WinogradGeometry& geo,
                     const Int8GemmBlocking& blocking, ThreadPool* pool,
                     const TuneOptions& options, AlignedBuffer<std::uint8_t>& v,
                     AlignedBuffer<std::int8_t>& u, AlignedBuffer<std::int32_t>& comp,
                     AlignedBuffer<std::int32_t>& z) {
  const std::size_t c64 = desc.padded_in_channels();
  const std::size_t k64 = desc.padded_out_channels();
  const TransformedInputLayout vl(geo.total_tiles, c64, geo.t_elems, blocking.n_blk,
                                  blocking.c_blk);
  const PackedFilterLayout ul(c64, k64, geo.t_elems, blocking.c_blk, blocking.k_blk);
  const TransformedOutputLayout zl(k64, vl.n_blocks * blocking.n_blk, geo.t_elems);
  v.ensure(vl.size());
  u.ensure(ul.size());
  comp.ensure(geo.t_elems * ul.k_blocks * ul.k_blk);
  z.ensure(zl.size());
  // Contents are irrelevant for timing; reuse whatever is in the buffers.
  ProfileSpan trial(ProfileStage::kTunerTrial);
  const TimingStats stats = time_it(
      [&] {
        batched_int8_gemm(vl, v.data(), ul, u.data(), comp.data(), zl, z.data(), blocking,
                          pool);
      },
      /*warmup=*/1, options.min_reps, /*max_iters=*/50, options.seconds_per_candidate);
  return stats.median;
}

}  // namespace

std::string wisdom_key(const ConvDesc& desc, std::size_t m) {
  return desc.to_string() + " m" + std::to_string(m);
}

TuneResult tune_layer(const ConvDesc& desc, std::size_t m, ThreadPool* pool,
                      const TuneOptions& options) {
  const WinogradGeometry geo(desc, m);
  const std::size_t c64 = desc.padded_in_channels();
  const std::size_t k64 = desc.padded_out_channels();

  std::vector<Int8GemmBlocking> candidates = enumerate_blockings(c64, k64);
  if (options.max_candidates != 0 && candidates.size() > options.max_candidates) {
    candidates.resize(options.max_candidates);
  }

  AlignedBuffer<std::uint8_t> v;
  AlignedBuffer<std::int8_t> u;
  AlignedBuffer<std::int32_t> comp;
  AlignedBuffer<std::int32_t> z;

  TuneResult result;
  result.best = adapt_blocking(Int8GemmBlocking{}, c64, k64);
  result.default_seconds =
      time_blocking(desc, geo, result.best, pool, options, v, u, comp, z);
  result.best_seconds = result.default_seconds;

  for (const Int8GemmBlocking& cand : candidates) {
    const double t = time_blocking(desc, geo, cand, pool, options, v, u, comp, z);
    ++result.evaluated;
    if (t < result.best_seconds) {
      result.best_seconds = t;
      result.best = cand;
    }
  }

  return result;
}

}  // namespace lowino
