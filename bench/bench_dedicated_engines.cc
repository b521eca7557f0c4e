// The direct INT8 engines on MobileNet-family layer shapes: Int8DirectConv
// on the pointwise (1x1) convs, and the dedicated depthwise engine against
// the generic alternative.
//
// Pointwise rows time Int8DirectConv alone; on a u8 input with C <= 64 at
// stride 1 it multiplies the input in place, on every other shape it copies
// each pixel's channel blocks into a patch panel. Depthwise rows compare
// Int8DepthwiseConv against the FP32 scalar grouped reference (the fallback a
// session without the dedicated engine would use; no GEMM-shaped engine
// covers groups == C).
//
// Both engines have one kernel on the 64-channel blocked layout; their NCHW
// column (execute_nchw) wraps it in pack -> core -> unpack, and the blocked
// columns time the core alone (execute_blocked_typed), so the kernel time
// shows apart from the relayout cost: on packed FP32 buffers (the core
// quantizes its input), and with u8 input and output, what a blocked serving
// chain runs. The first rows are MiniMobileNet's convs.
//
// Env: LOWINO_BENCH_BATCH (default 16), LOWINO_BENCH_BUDGET_MS.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "direct/direct_depthwise.h"
#include "direct/direct_int8.h"
#include "parallel/thread_pool.h"
#include "quant/quantize.h"
#include "tensor/layout.h"

namespace lowino {
namespace {

ConvDesc make_desc(std::size_t c, std::size_t k, std::size_t hw, std::size_t r,
                   std::size_t stride, std::size_t groups, std::size_t batch) {
  ConvDesc d;
  d.batch = batch;
  d.in_channels = c;
  d.out_channels = k;
  d.height = d.width = hw;
  d.kernel = r;
  d.pad = r / 2;
  d.stride = stride;
  d.groups = groups;
  return d;
}

/// FP32 scalar grouped direct convolution — the engine-less fallback path.
void fp32_grouped_direct(const ConvDesc& d, const bench::LayerData& data,
                         std::vector<float>& out) {
  const std::size_t CG = d.group_in_channels(), KG = d.out_channels / d.groups;
  const std::size_t OH = d.out_height(), OW = d.out_width();
  for (std::size_t b = 0; b < d.batch; ++b) {
    for (std::size_t k = 0; k < d.out_channels; ++k) {
      const std::size_t c0 = (k / KG) * CG;
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow) {
          float acc = data.bias[k];
          for (std::size_t ci = 0; ci < CG; ++ci) {
            for (std::size_t i = 0; i < d.kernel; ++i) {
              const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * d.stride + i) -
                                        static_cast<std::ptrdiff_t>(d.pad);
              if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(d.height)) continue;
              for (std::size_t j = 0; j < d.kernel; ++j) {
                const std::ptrdiff_t iw = static_cast<std::ptrdiff_t>(ow * d.stride + j) -
                                          static_cast<std::ptrdiff_t>(d.width_pad());
                if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(d.width)) continue;
                acc += data.input[((b * d.in_channels + c0 + ci) * d.height +
                                   static_cast<std::size_t>(ih)) *
                                      d.width +
                                  static_cast<std::size_t>(iw)] *
                       data.weights[((k * CG + ci) * d.kernel + i) * d.kernel + j];
              }
            }
          }
          out[((b * d.out_channels + k) * OH + oh) * OW + ow] = acc;
        }
      }
    }
  }
}

/// Median seconds of `conv`'s blocked core on packed FP32 buffers.
template <typename Conv>
double measure_blocked(Conv& conv, const ConvDesc& d, ThreadPool& pool) {
  std::vector<float> in(BlockedActLayout(d.batch, d.in_channels, d.height, d.width).size(), 0.0f);
  std::vector<float> out(
      BlockedActLayout(d.batch, d.out_channels, d.out_height(), d.out_width()).size());
  // Any values do: the core's time does not depend on them.
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i % 13) * 0.1f - 0.6f;
  return bench::measure([&] { conv.execute_blocked_typed(in.data(), out.data(), &pool); });
}

/// Median seconds of `conv`'s blocked core with u8 input and output, what a
/// served chain runs. Switches `conv` to the u8 hand-off for good.
template <typename Conv>
double measure_blocked_u8(Conv& conv, const ConvDesc& d, ThreadPool& pool) {
  conv.set_input_u8(QuantParams::from_threshold(1.0f));
  conv.set_output_u8(QuantParams::from_threshold(1.0f));
  std::vector<std::uint8_t> in(BlockedActLayout(d.batch, d.in_channels, d.height, d.width).size());
  std::vector<std::uint8_t> out(
      BlockedActLayout(d.batch, d.out_channels, d.out_height(), d.out_width()).size());
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i % 251);
  return bench::measure([&] { conv.execute_blocked_typed(in.data(), out.data(), &pool); });
}

}  // namespace

int bench_main() {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t batch = bench::batch_override();
  std::printf("Direct INT8 engines on MobileNet shapes (threads=%zu, batch=%zu)\n\n",
              pool.num_threads(), batch);

  // --- 1x1 pointwise: int8_direct ------------------------------------------
  struct Shape {
    const char* name;
    ConvDesc desc;
  };
  const Shape pw[] = {
      {"pw 32->64 /32", make_desc(32, 64, 32, 1, 1, 1, batch)},
      {"pw 64->128 /16", make_desc(64, 128, 16, 1, 1, 1, batch)},
      {"pw 64->128 /28", make_desc(64, 128, 28, 1, 1, 1, batch)},
      {"pw 128->128 /28", make_desc(128, 128, 28, 1, 1, 1, batch)},
      {"pw 256->256 /14", make_desc(256, 256, 14, 1, 1, 1, batch)},
      {"pw 256->512 /14 s2", make_desc(256, 512, 14, 1, 2, 1, batch)},
      {"pw 512->512 /7", make_desc(512, 512, 7, 1, 1, 1, batch)},
  };
  std::printf("%-20s %12s | %12s %10s | %9s %9s\n", "pointwise layer", "direct ms",
              "blocked ms", "core GOPS", "u8 ms", "u8 GOPS");
  bench::print_rule(80);
  for (const Shape& s : pw) {
    const ConvDesc& d = s.desc;
    const bench::LayerData data = bench::make_layer_data(d, 11);
    std::vector<float> out(d.batch * d.out_channels * d.out_height() * d.out_width());
    double t_direct, t_blocked, t_u8;
    {
      Int8DirectConv conv(d);
      conv.set_input_threshold(abs_max(data.input));
      conv.set_filters(data.weights, data.bias);
      t_direct = bench::measure([&] { conv.execute_nchw(data.input, out, &pool); });
      t_blocked = measure_blocked(conv, d, pool);
      t_u8 = measure_blocked_u8(conv, d, pool);
    }
    std::printf("%-20s %12.3f | %12.3f %10.1f | %9.3f %9.1f\n", s.name, 1e3 * t_direct,
                1e3 * t_blocked, bench::direct_gflops(d, t_blocked), 1e3 * t_u8,
                bench::direct_gflops(d, t_u8));
    std::fflush(stdout);
  }
  std::printf("\n");

  // --- depthwise: int8_dw vs the FP32 scalar grouped fallback -------------
  const Shape dw[] = {
      {"dw3x3 g=32 /32", make_desc(32, 32, 32, 3, 1, 32, batch)},
      {"dw3x3 g=64 /16", make_desc(64, 64, 16, 3, 1, 64, batch)},
      {"dw3x3 g=64 /56", make_desc(64, 64, 56, 3, 1, 64, batch)},
      {"dw3x3 g=128 /28", make_desc(128, 128, 28, 3, 1, 128, batch)},
      {"dw3x3 g=256 /14 s2", make_desc(256, 256, 14, 3, 2, 256, batch)},
      {"dw3x3 g=512 /7", make_desc(512, 512, 7, 3, 1, 512, batch)},
  };
  std::printf("%-20s %12s %12s %9s | %12s %9s | %10s | %9s %9s\n", "depthwise layer",
              "fp32 ms", "int8_dw ms", "speedup", "blocked ms", "speedup", "core GOPS", "u8 ms",
              "u8 GOPS");
  bench::print_rule(118);
  for (const Shape& s : dw) {
    const ConvDesc& d = s.desc;
    const bench::LayerData data = bench::make_layer_data(d, 13);
    std::vector<float> out(d.batch * d.out_channels * d.out_height() * d.out_width());
    const double t_fp32 = bench::measure([&] { fp32_grouped_direct(d, data, out); });
    double t_dw, t_blocked, t_u8;
    {
      Int8DepthwiseConv conv(d);
      conv.set_input_threshold(abs_max(data.input));
      conv.set_filters(data.weights, data.bias);
      t_dw = bench::measure([&] { conv.execute_nchw(data.input, out, &pool); });
      t_blocked = measure_blocked(conv, d, pool);
      t_u8 = measure_blocked_u8(conv, d, pool);
    }
    std::printf("%-20s %12.3f %12.3f %8.2fx | %12.3f %8.2fx | %10.1f | %9.3f %9.1f\n", s.name,
                1e3 * t_fp32, 1e3 * t_dw, t_fp32 / t_dw, 1e3 * t_blocked, t_fp32 / t_blocked,
                bench::direct_gflops(d, t_blocked), 1e3 * t_u8, bench::direct_gflops(d, t_u8));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace lowino

int main() { return lowino::bench_main(); }
