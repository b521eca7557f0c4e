#include "testing/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/downscale_wino.h"
#include "baselines/fp32_wino.h"
#include "baselines/upcast_wino.h"
#include "baselines/vendor_wino.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "direct/direct_depthwise.h"
#include "direct/direct_f32.h"
#include "direct/direct_int8.h"
#include "lowino/convolution.h"
#include "nn/engines.h"
#include "parallel/thread_pool.h"
#include "quant/quantize.h"
#include "tensor/post_ops.h"
#include "testing/envelope.h"
#include "testing/oracle.h"

namespace lowino {
namespace testing {
namespace {

/// Multiplicative + additive margin applied to oracle-derived thresholds so
/// the engines' FP32-computed values can never exceed them (clipping would
/// void the envelopes).
double with_margin(double v) { return v * 1.0001 + 1e-6; }

struct CaseData {
  std::vector<float> input, weights, bias, residual;
};

CaseData make_data(const FuzzCase& fc) {
  const ConvDesc& d = fc.desc;
  Rng rng(fc.seed ^ 0x9e3779b97f4a7c15ULL);
  CaseData data;
  data.input.resize(d.batch * d.in_channels * d.height * d.width);
  for (float& v : data.input) v = rng.uniform(-1.5f, 1.5f);
  // Grouped filters only span their group's C/groups input channels.
  data.weights.resize(d.out_channels * d.group_in_channels() * d.kernel * d.kernel);
  for (float& v : data.weights) v = rng.uniform(-1.0f, 1.0f);
  if (fc.with_bias) {
    data.bias.resize(d.out_channels);
    for (float& v : data.bias) v = rng.uniform(-0.5f, 0.5f);
  }
  if (fc.sum) {
    data.residual.resize(d.batch * d.out_channels * d.out_height() * d.out_width());
    for (float& v : data.residual) v = rng.uniform(-1.0f, 1.0f);
  }
  return data;
}

/// Checks one engine output against a reference within per-channel bounds.
/// Returns an empty string on success.
std::string check_output(const char* engine, const ConvDesc& d,
                         std::span<const float> out, const std::vector<double>& ref,
                         const std::vector<double>& bound) {
  const std::size_t plane = d.out_height() * d.out_width();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const std::size_t k = (i / plane) % d.out_channels;
    const double diff = std::abs(static_cast<double>(out[i]) - ref[i]);
    if (!(diff <= bound[k])) {  // negated compare also catches NaN
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s: |err|=%.6g exceeds bound %.6g at element %zu (channel %zu)",
                    engine, diff, bound[k], i, k);
      return buf;
    }
  }
  return {};
}

/// Degenerate-descriptor path: every engine constructor must reject the shape
/// with std::invalid_argument — thrown by ConvDesc::validate() before any
/// workspace sizing arithmetic (which would wrap in size_t) and before any
/// aligned allocation happens.
CaseResult run_degenerate_case(const FuzzCase& fc) {
  CaseResult result;
  const ConvDesc& d = fc.desc;
  const std::uint64_t allocs_before = aligned_buffer_alloc_count();
  const auto expect_reject = [&](const char* engine, auto&& construct) {
    ++result.engines_checked;
    if (!result.ok) return;
    try {
      construct();
      result.ok = false;
      result.failure = std::string(engine) + ": accepted a degenerate descriptor";
    } catch (const std::invalid_argument&) {
      // The required rejection.
    } catch (const std::exception& e) {
      result.ok = false;
      result.failure =
          std::string(engine) + ": rejected with the wrong exception: " + e.what();
    }
  };
  expect_reject("fp32-im2col", [&] { [[maybe_unused]] Im2colConvF32 c(d); });
  expect_reject("fp32-winograd", [&] { [[maybe_unused]] Fp32WinoConv c(d, 2); });
  expect_reject("int8-direct", [&] { [[maybe_unused]] Int8DirectConv c(d); });
  expect_reject("lowino-m2", [&] {
    LoWinoConfig cfg;
    cfg.m = 2;
    [[maybe_unused]] LoWinoConvolution c(d, cfg);
  });
  expect_reject("lowino-m4", [&] {
    LoWinoConfig cfg;
    cfg.m = 4;
    [[maybe_unused]] LoWinoConvolution c(d, cfg);
  });
  expect_reject("downscale-winograd", [&] { [[maybe_unused]] DownscaleWinoConv c(d, 2); });
  expect_reject("upcast-winograd", [&] { [[maybe_unused]] UpcastWinoConv c(d); });
  expect_reject("vendor-winograd", [&] { [[maybe_unused]] VendorWinoF23 c(d); });
  expect_reject("int8-depthwise", [&] { [[maybe_unused]] Int8DepthwiseConv c(d); });
  if (result.ok && aligned_buffer_alloc_count() != allocs_before) {
    result.ok = false;
    result.failure = "degenerate rejection allocated workspace memory";
  }
  return result;
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed) {
  Rng rng(seed);
  FuzzCase fc;
  fc.seed = rng.next_u64();

  ConvDesc& d = fc.desc;
  const std::uint64_t kernel_roll = rng.next_below(10);
  d.kernel = kernel_roll == 0 ? 5 : (kernel_roll <= 2 ? 1 : 3);  // ~10% 5x5, ~20% 1x1
  d.pad = d.kernel == 1 ? 0 : rng.next_below(d.kernel == 3 ? 2 : 3);
  d.batch = 1 + rng.next_below(2);
  d.in_channels = 1 + rng.next_below(48);
  d.out_channels = 1 + rng.next_below(48);
  d.height = d.kernel + rng.next_below(16);
  d.width = d.kernel + rng.next_below(16);
  d.stride = 1;
  // Widened shape dimensions: strongly non-square inputs, stride 2 and
  // asymmetric width padding. Only the direct engines claim the latter two —
  // run_case() checks them numerically and asserts the Winograd engines
  // reject the descriptor cleanly.
  if (rng.next_below(6) == 0) {
    (rng.next_below(2) == 0 ? d.height : d.width) += 16 + rng.next_below(17);
  }
  if (rng.next_below(6) == 0) d.stride = 2;
  if (d.kernel > 1 && rng.next_below(6) == 0) {
    // Any width pad < kernel that differs from the height pad. A 1x1 kernel
    // admits no such pad (the only valid pad is 0), so skip the draw there.
    d.pad_w = (d.pad + 1 + rng.next_below(d.kernel - 1)) % d.kernel;
  }
  while (d.direct_macs() > 2.0e7) {
    if (d.in_channels > 8) {
      d.in_channels /= 2;
    } else if (d.out_channels > 8) {
      d.out_channels /= 2;
    } else {
      d.batch = 1;
      d.height = std::max(d.kernel, d.height / 2);
      d.width = std::max(d.kernel, d.width / 2);
    }
  }
  // Grouped corners (drawn after the cost clamp so the halving above cannot
  // break divisibility): ~1/5 depthwise — the int8_dw workload, channel
  // multiplier 1 or 2 — and ~1/10 a general grouped shape no engine claims.
  const std::uint64_t group_roll = rng.next_below(10);
  if (group_roll < 2 && d.in_channels > 1) {
    d.groups = d.in_channels;
    d.out_channels = d.in_channels * (1 + rng.next_below(2));
  } else if (group_roll == 2) {
    d.in_channels = std::max<std::size_t>(4, d.in_channels + d.in_channels % 2);
    d.out_channels = std::max<std::size_t>(4, d.out_channels + d.out_channels % 2);
    d.groups = 2;
  }

  const std::size_t ms[] = {2, 4, 6};
  fc.m = ms[rng.next_below(3)];
  const ExecutionMode modes[] = {ExecutionMode::kStaged, ExecutionMode::kFused,
                                 ExecutionMode::kAuto};
  fc.mode = modes[rng.next_below(3)];
  fc.threads = 1 + rng.next_below(4);
  fc.relu = rng.next_below(2) == 0;
  fc.with_bias = rng.next_below(2) == 0;
  fc.sum = rng.next_below(3) == 0;
  fc.per_tensor_scales = rng.next_below(4) == 0;
  // Per-edge hand-off dtypes: ~1/3 per activation edge, and a byte-typed
  // residual half the time one exists. Any drawn edge adds the typed
  // execution pass (INT8 direct + LoWino staged/fused) to the case.
  fc.in_u8 = rng.next_below(3) == 0;
  fc.out_u8 = rng.next_below(3) == 0;
  fc.sum_u8 = fc.sum && rng.next_below(2) == 0;

  // Occasionally break the descriptor on purpose: the harness then asserts
  // every engine rejects it cleanly (std::invalid_argument, no allocation)
  // instead of wrapping the size_t out_height()/out_width() arithmetic.
  // Mutate last — the cost clamp above calls direct_macs(), which itself
  // evaluates out_height() and would wrap on a degenerate shape.
  if (rng.next_below(12) == 0) {
    switch (rng.next_below(8)) {
      case 0: d.pad = 0; d.height = d.kernel - 1; break;  // kernel > h + 2p
      case 1: d.pad = 0; d.pad_w = 0; d.width = d.kernel - 1; break;  // kernel > w + 2p
      case 2: d.pad = d.kernel + rng.next_below(2); break;  // pad >= kernel
      case 3: (rng.next_below(2) == 0 ? d.in_channels : d.out_channels) = 0; break;
      case 4: d.stride = 0; break;  // division by zero in out_height()
      case 5: d.pad_w = d.kernel + rng.next_below(2); break;  // width pad >= kernel
      case 6: d.groups = d.in_channels + 1; break;  // never divides in_channels
      case 7: d.kernel = 1; d.pad = 1; break;  // padded 1x1: pad >= kernel
    }
  }
  return fc;
}

std::string describe(const FuzzCase& fc) {
  std::string s = fc.desc.to_string();  // carries pw/s tokens when widened
  s += " p" + std::to_string(fc.desc.pad);
  s += " m" + std::to_string(fc.m);
  s += std::string(" ") + execution_mode_name(fc.mode);
  s += " t" + std::to_string(fc.threads);
  s += fc.relu ? " relu" : "";
  s += fc.with_bias ? " bias" : "";
  s += fc.sum ? " sum" : "";
  s += fc.per_tensor_scales ? " per-tensor" : " per-position";
  s += fc.in_u8 ? " u8in" : "";
  s += fc.out_u8 ? " u8out" : "";
  s += fc.sum_u8 ? " u8sum" : "";
  if (!fc.desc.is_valid()) s += " degenerate";
  s += " seed=" + std::to_string(fc.seed);
  return s;
}

std::string repro_line(std::uint64_t base_seed, std::size_t index) {
  return "LOWINO_TEST_SEED=" + std::to_string(base_seed) +
         " LOWINO_FUZZ_INDEX=" + std::to_string(index) +
         " LOWINO_FUZZ_CASES=1 ./tests/fuzz_conv";
}

CaseResult run_case(const FuzzCase& fc) {
  // A degenerate shape never reaches data generation: make_data() and the
  // oracle both evaluate out_height(), which wraps (or divides by zero) on
  // shapes ConvDesc::validate() rejects.
  if (!fc.desc.is_valid()) return run_degenerate_case(fc);
  CaseResult result;
  const ConvDesc& d = fc.desc;

  // --- Capability cross-check (the PR 6 gating contract, per registry) -----
  // For every registered kind, engine_caps(kind, d).supports must predict the
  // factory exactly: a supported shape constructs, an unsupported one throws
  // std::invalid_argument. This is what lets the session compiler skip
  // candidates without a try/catch probe.
  for (const EngineKind kind : all_engine_kinds()) {
    ++result.engines_checked;
    if (!result.ok) break;
    const EngineCaps caps = engine_caps(kind, d);
    try {
      const auto e = make_conv_engine(kind, d);
      if (!caps.supports) {
        result.ok = false;
        result.failure = std::string(engine_token(kind)) +
                         ": constructed a shape engine_caps reports unsupported";
      }
    } catch (const std::invalid_argument&) {
      if (caps.supports) {
        result.ok = false;
        result.failure = std::string(engine_token(kind)) +
                         ": rejected a shape engine_caps reports supported";
      }
    }
  }
  if (!result.ok) return result;

  const CaseData data = make_data(fc);
  const std::span<const float> bias(data.bias);

  const std::vector<double> ref_plain =
      direct_conv_f64(d, data.input, data.weights, bias, /*relu=*/false);
  std::vector<double> ref_relu;
  if (fc.relu) {
    ref_relu = ref_plain;
    for (double& v : ref_relu) v = std::max(v, 0.0);
  }
  // relu-only reference, for engines without fused-sum support.
  const std::vector<double>& ref_nosum = fc.relu ? ref_relu : ref_plain;
  // Full post-op reference (bias -> +sum -> relu) for post-op engines.
  std::vector<double> ref_full;
  if (fc.sum) {
    ref_full = ref_plain;
    for (std::size_t i = 0; i < ref_full.size(); ++i) {
      ref_full[i] += static_cast<double>(data.residual[i]);
      if (fc.relu) ref_full[i] = std::max(ref_full[i], 0.0);
    }
  }
  const std::vector<double>& ref_post = fc.sum ? ref_full : ref_nosum;
  const PostOps post{fc.relu, fc.sum ? data.residual.data() : nullptr};

  // The fused +sum adds one extra float rounding per element; widen the
  // pre-sum envelope by an ulp of the post-sum magnitude.
  const auto with_sum_slack = [&](std::vector<double> bound) {
    if (!fc.sum) return bound;
    double mag = 1.0;
    for (const double v : ref_post) mag = std::max(mag, std::abs(v));
    const double slack = std::ldexp(mag, -22);
    for (double& b : bound) b += slack;
    return bound;
  };

  const SpatialFilterStats sstats = spatial_filter_stats(d, data.weights);
  const double dmax = abs_max_f64(data.input);
  const double tau_d = with_margin(dmax);

  // --- Per-edge u8 hand-off state (the typed execution paths) --------------
  // The harness quantizes the drawn edges itself and re-derives the oracle
  // reference from the *dequantized* bytes, so edge quantization error
  // cancels exactly and the per-scheme envelopes apply unchanged — only a u8
  // output adds half a requant step (the engine rounds its own FP32 result).
  const bool typed = fc.in_u8 || fc.out_u8 || fc.sum_u8;
  QuantParams in_qp, sum_qp;
  std::vector<std::uint8_t> in_bytes, sum_bytes;
  std::vector<float> in_deq, sum_deq;
  std::vector<double> ref_typed;
  double dmax_typed = dmax;
  if (typed) {
    in_qp = QuantParams::from_threshold(static_cast<float>(tau_d));
    if (fc.in_u8) {
      in_bytes.resize(data.input.size());
      quantize_u8_shift128(data.input, in_qp.scale, in_bytes);
      in_deq.resize(data.input.size());
      dequantize_u8_shift128(in_bytes, in_qp.inv_scale, in_deq);
      dmax_typed = abs_max_f64(in_deq);
    }
    if (fc.sum_u8) {
      sum_qp = QuantParams::from_threshold(
          static_cast<float>(with_margin(abs_max_f64(data.residual))));
      sum_bytes.resize(data.residual.size());
      quantize_u8_shift128(data.residual, sum_qp.scale, sum_bytes);
      sum_deq.resize(data.residual.size());
      dequantize_u8_shift128(sum_bytes, sum_qp.inv_scale, sum_deq);
    }
    ref_typed = fc.in_u8 ? direct_conv_f64(d, in_deq, data.weights, bias, /*relu=*/false)
                         : ref_plain;
    if (fc.sum) {
      const std::vector<float>& res = fc.sum_u8 ? sum_deq : data.residual;
      for (std::size_t i = 0; i < ref_typed.size(); ++i) {
        ref_typed[i] += static_cast<double>(res[i]);
      }
    }
    if (fc.relu) {
      for (double& v : ref_typed) v = std::max(v, 0.0);
    }
  }
  PostOps typed_post;
  typed_post.relu = fc.relu;
  if (fc.sum) {
    if (fc.sum_u8) {
      typed_post.sum_u8 = sum_bytes.data();
      typed_post.sum_u8_inv_scale = sum_qp.inv_scale;
    } else {
      typed_post.sum = data.residual.data();
    }
  }
  const auto typed_sum_slack = [&](std::vector<double>& bound) {
    if (!fc.sum) return;
    double mag = 1.0;
    for (const double v : ref_typed) mag = std::max(mag, std::abs(v));
    const double slack = std::ldexp(mag, -22);
    for (double& b : bound) b += slack;
  };
  // Requant bound/scale: picks an output threshold covering reference +
  // envelope (so saturation is impossible), then widens the bound by half a
  // dequantized step — the round-to-nearest-even error of the requant stage.
  const auto typed_requant = [&](std::vector<double>& bound) {
    double mag = 0.0;
    for (const double v : ref_typed) mag = std::max(mag, std::abs(v));
    double bmax = 0.0;
    for (const double b : bound) bmax = std::max(bmax, b);
    const QuantParams qp =
        QuantParams::from_threshold(static_cast<float>(with_margin(mag + bmax)));
    const double half_step = 0.5 * static_cast<double>(qp.inv_scale);
    for (double& b : bound) b += with_margin(half_step);
    return qp;
  };

  ThreadPool pool(fc.threads);
  std::vector<float> out(ref_plain.size());
  const auto check = [&](const char* engine, const std::vector<double>& ref,
                         const std::vector<double>& bound) {
    ++result.engines_checked;
    if (!result.ok) return;
    const std::string err = check_output(engine, d, out, ref, bound);
    if (!err.empty()) {
      result.ok = false;
      result.failure = err;
    }
  };

  // Fused-epilogue bit-identity referee (the tentpole's contract): run the
  // same engine unfused, apply the element-wise sum-then-relu passes the
  // fused path absorbed, and require exact bit equality with the fused
  // output (see tensor/post_ops.h for why this must hold).
  const auto check_fused_bits = [&](const char* engine, std::span<const float> fused,
                                    std::vector<float>& plain) {
    ++result.engines_checked;
    if (!result.ok) return;
    if (fc.sum) {
      for (std::size_t i = 0; i < plain.size(); ++i) plain[i] += data.residual[i];
    }
    if (fc.relu) {
      for (float& v : plain) v = std::max(0.0f, v);
    }
    for (std::size_t i = 0; i < plain.size(); ++i) {
      if (fused[i] != plain[i]) {
        result.ok = false;
        result.failure = std::string(engine) +
                         ": fused epilogue differs from unfused engine-then-"
                         "elementwise at element " +
                         std::to_string(i) + ": " + std::to_string(fused[i]) + " vs " +
                         std::to_string(plain[i]);
        return;
      }
    }
  };

  // The Winograd family only claims ungrouped unit-stride symmetric-padding
  // r >= 2 shapes; for anything else the eligible direct engines are checked
  // numerically and the Winograd constructors must reject cleanly (asserted
  // engine-by-engine below and via the caps cross-check above).
  const bool winograd_ok =
      d.groups == 1 && d.stride == 1 && d.symmetric_padding() && d.kernel >= 2;

  // One spatial-INT8 typed run (u8 hand-off edges) for an Int8DirectConv-like
  // engine: same surface, same envelope. Shared by int8-direct and
  // int8-depthwise.
  const auto run_spatial_typed = [&](const char* name, auto& conv) {
    conv.set_input_threshold(static_cast<float>(tau_d));
    conv.set_filters(data.weights, bias);
    // set_input_u8 adopts the same 127/tau_d scale the threshold implies,
    // so the spatial INT8 envelope carries over unchanged.
    if (fc.in_u8) conv.set_input_u8(in_qp);
    std::vector<double> bound = spatial_int8_budget(d, tau_d, dmax_typed, sstats);
    typed_sum_slack(bound);
    const void* in_ptr = fc.in_u8 ? static_cast<const void*>(in_bytes.data())
                                  : static_cast<const void*>(data.input.data());
    if (fc.out_u8) {
      const QuantParams out_qp = typed_requant(bound);
      conv.set_output_u8(out_qp);
      std::vector<std::uint8_t> o8(out.size());
      conv.execute_typed(in_ptr, o8.data(), &pool, typed_post);
      dequantize_u8_shift128(o8, out_qp.inv_scale, out);
    } else {
      conv.execute_typed(in_ptr, out.data(), &pool, typed_post);
    }
    check(name, ref_typed, bound);
  };

  try {
    if (d.groups == 1) {
      // --- Direct engines (full stride/padding support) --------------------
      const std::vector<double> fp32_direct_bound =
          fp32_budget(d, dmax, sstats, bias, /*amplification=*/1.0);
      direct_conv_f32_reference(d, data.input, data.weights, bias, out, fc.relu, &pool);
      check("fp32-reference", ref_nosum, fp32_direct_bound);

      {
        Im2colConvF32 conv(d);
        conv.set_filters(data.weights, bias);
        conv.execute_nchw(data.input, out, &pool, post);
        check("fp32-im2col", ref_post, with_sum_slack(fp32_direct_bound));
        if (!post.none()) {
          std::vector<float> plain(out.size());
          conv.execute_nchw(data.input, plain, &pool);
          check_fused_bits("fp32-im2col", out, plain);
        }
      }

      {
        Int8DirectConv conv(d);
        conv.set_input_threshold(static_cast<float>(tau_d));
        conv.set_filters(data.weights, bias);
        conv.execute_nchw(data.input, out, &pool, post);
        check("int8-direct", ref_post,
              with_sum_slack(spatial_int8_budget(d, tau_d, dmax, sstats)));
        if (!post.none()) {
          std::vector<float> plain(out.size());
          conv.execute_nchw(data.input, plain, &pool);
          check_fused_bits("int8-direct", out, plain);
        }
      }

      // --- INT8 direct, typed (u8 hand-off edges) --------------------------
      if (typed) {
        Int8DirectConv conv(d);
        run_spatial_typed("int8-direct-typed", conv);
      }
    } else if (d.is_depthwise()) {
      // --- Dedicated INT8 depthwise engine ---------------------------------
      {
        Int8DepthwiseConv conv(d);
        conv.set_input_threshold(static_cast<float>(tau_d));
        conv.set_filters(data.weights, bias);
        conv.execute_nchw(data.input, out, &pool, post);
        check("int8-depthwise", ref_post,
              with_sum_slack(spatial_int8_budget(d, tau_d, dmax, sstats)));
        if (!post.none()) {
          std::vector<float> plain(out.size());
          conv.execute_nchw(data.input, plain, &pool);
          check_fused_bits("int8-depthwise", out, plain);
        }
      }
      if (typed) {
        Int8DepthwiseConv conv(d);
        run_spatial_typed("int8-depthwise-typed", conv);
      }
    }
    if (d.groups != 1) {
      // The caps cross-check already asserted that every other registered
      // kind rejects grouped shapes; nothing further runs numerically.
      return result;
    }

    if (!winograd_ok) {
      // Unsupported-shape contract: the same clean std::invalid_argument
      // rejection the degenerate path demands, from every Winograd engine.
      const auto expect_reject = [&](const char* engine, auto&& construct) {
        ++result.engines_checked;
        if (!result.ok) return;
        try {
          construct();
          result.ok = false;
          result.failure =
              std::string(engine) + ": accepted a stride/padding it does not support";
        } catch (const std::invalid_argument&) {
          // The required rejection.
        } catch (const std::exception& e) {
          result.ok = false;
          result.failure =
              std::string(engine) + ": rejected with the wrong exception: " + e.what();
        }
      };
      expect_reject("fp32-winograd", [&] { [[maybe_unused]] Fp32WinoConv c(d, fc.m); });
      expect_reject("lowino", [&] {
        LoWinoConfig cfg;
        cfg.m = fc.m;
        [[maybe_unused]] LoWinoConvolution c(d, cfg);
      });
      expect_reject("downscale-winograd",
                    [&] { [[maybe_unused]] DownscaleWinoConv c(d, fc.m); });
      expect_reject("upcast-winograd", [&] { [[maybe_unused]] UpcastWinoConv c(d); });
      expect_reject("vendor-winograd", [&] { [[maybe_unused]] VendorWinoF23 c(d); });
      return result;
    }

    const TransformMatrices& tm = engine_transform(fc.m, d.kernel);
    const TransformGains gains = transform_gains(tm);
    {
      Fp32WinoConv conv(d, fc.m);
      conv.set_filters(data.weights, bias);
      conv.execute_nchw(data.input, out, &pool);
      check("fp32-winograd", ref_plain,
            fp32_budget(d, dmax, sstats, bias, gains.in_amp_max * gains.g_amp_max));
    }

    // --- LoWino: staged and fused must agree bit-for-bit and sit inside the
    // Winograd-domain quantization envelope. ------------------------------
    {
      const std::vector<double> v_absmax = transformed_input_absmax(d, fc.m, data.input);
      std::vector<double> taus(v_absmax.size());
      double tau_uniform = 0.0;
      for (std::size_t t = 0; t < taus.size(); ++t) {
        taus[t] = with_margin(v_absmax[t]);
        tau_uniform = std::max(tau_uniform, taus[t]);
      }
      if (fc.per_tensor_scales) std::fill(taus.begin(), taus.end(), tau_uniform);
      const TransformedFilterStats fstats =
          transformed_filter_stats(d, fc.m, data.weights);
      const std::vector<double> lw_bound = with_sum_slack(lowino_budget(d, tm, taus, fstats));

      const auto run_lowino = [&](ExecutionMode mode, std::vector<float>& dst,
                                  const PostOps& p) {
        LoWinoConfig cfg;
        cfg.m = fc.m;
        cfg.execution_mode = mode;
        cfg.input_scales = fc.per_tensor_scales ? ScaleGranularity::kPerTensor
                                                : ScaleGranularity::kPerPosition;
        LoWinoConvolution conv(d, cfg);
        if (fc.per_tensor_scales) {
          conv.set_uniform_input_threshold(static_cast<float>(tau_uniform));
        } else {
          std::vector<float> taus_f(taus.begin(), taus.end());
          conv.set_input_thresholds(taus_f);
        }
        conv.set_filters(data.weights, bias);
        conv.execute_nchw(data.input, dst, &pool, p);
      };

      std::vector<float> out_fused(out.size());
      run_lowino(ExecutionMode::kStaged, out, post);
      check("lowino-staged", ref_post, lw_bound);
      run_lowino(ExecutionMode::kFused, out_fused, post);
      std::swap(out, out_fused);
      check("lowino-fused", ref_post, lw_bound);
      std::swap(out, out_fused);

      ++result.engines_checked;
      if (result.ok && out != out_fused) {
        std::size_t i = 0;
        while (i < out.size() && out[i] == out_fused[i]) ++i;
        result.ok = false;
        result.failure = "lowino staged/fused mismatch at element " + std::to_string(i) +
                         ": " + std::to_string(out[i]) + " vs " +
                         std::to_string(out_fused[i]);
      }

      if (!post.none() && result.ok) {
        std::vector<float> plain(out.size());
        run_lowino(ExecutionMode::kStaged, plain, PostOps{});
        check_fused_bits("lowino-staged", out, plain);
      }

      if (fc.mode == ExecutionMode::kAuto) {
        run_lowino(ExecutionMode::kAuto, out, post);
        check("lowino-auto", ref_post, lw_bound);
      }

      // --- LoWino, typed (u8 hand-off edges) -------------------------------
      if (typed && result.ok) {
        // The Winograd-domain thresholds must cover the values the engine
        // actually transforms — the *dequantized* input when the edge is u8 —
        // or V-domain clipping would void the envelope.
        std::vector<double> taus_t = taus;
        double tau_uniform_t = tau_uniform;
        if (fc.in_u8) {
          const std::vector<double> v_absmax_t =
              transformed_input_absmax(d, fc.m, in_deq);
          tau_uniform_t = 0.0;
          for (std::size_t t = 0; t < taus_t.size(); ++t) {
            taus_t[t] = with_margin(v_absmax_t[t]);
            tau_uniform_t = std::max(tau_uniform_t, taus_t[t]);
          }
          if (fc.per_tensor_scales) std::fill(taus_t.begin(), taus_t.end(), tau_uniform_t);
        }
        std::vector<double> bound = lowino_budget(d, tm, taus_t, fstats);
        typed_sum_slack(bound);
        QuantParams out_qp;
        if (fc.out_u8) out_qp = typed_requant(bound);

        const auto run_typed = [&](ExecutionMode mode, void* dst) {
          LoWinoConfig cfg;
          cfg.m = fc.m;
          cfg.execution_mode = mode;
          cfg.input_scales = fc.per_tensor_scales ? ScaleGranularity::kPerTensor
                                                  : ScaleGranularity::kPerPosition;
          LoWinoConvolution conv(d, cfg);
          if (fc.per_tensor_scales) {
            conv.set_uniform_input_threshold(static_cast<float>(tau_uniform_t));
          } else {
            std::vector<float> taus_f(taus_t.begin(), taus_t.end());
            conv.set_input_thresholds(taus_f);
          }
          conv.set_filters(data.weights, bias);
          if (fc.in_u8) conv.set_input_u8(in_qp);
          if (fc.out_u8) conv.set_output_u8(out_qp);
          const void* in_ptr = fc.in_u8 ? static_cast<const void*>(in_bytes.data())
                                        : static_cast<const void*>(data.input.data());
          conv.execute_nchw_typed(in_ptr, dst, &pool, typed_post);
        };

        const std::size_t out_sz = out.size() * (fc.out_u8 ? 1 : sizeof(float));
        std::vector<std::uint8_t> t_staged(out_sz), t_fused(out_sz);
        run_typed(ExecutionMode::kStaged, t_staged.data());
        run_typed(ExecutionMode::kFused, t_fused.data());
        ++result.engines_checked;
        if (result.ok && t_staged != t_fused) {
          std::size_t i = 0;
          while (i < out_sz && t_staged[i] == t_fused[i]) ++i;
          result.ok = false;
          result.failure =
              "lowino-typed staged/fused byte mismatch at byte " + std::to_string(i);
        }
        if (fc.out_u8) {
          dequantize_u8_shift128(t_staged, out_qp.inv_scale, out);
        } else {
          std::memcpy(out.data(), t_staged.data(), out_sz);
        }
        check("lowino-typed", ref_typed, bound);
      }
    }

    // --- Spatially quantized Winograd baselines ----------------------------
    {
      DownscaleWinoConv conv(d, fc.m);
      conv.set_input_threshold(static_cast<float>(tau_d));
      conv.set_filters(data.weights, bias);
      conv.execute_nchw(data.input, out, &pool);
      check("downscale-winograd", ref_plain, downscale_budget(d, tm, tau_d, sstats));
    }
    if (d.kernel == 3) {
      {
        UpcastWinoConv conv(d);
        conv.set_input_threshold(static_cast<float>(tau_d));
        conv.set_filters(data.weights, bias);
        conv.execute_nchw(data.input, out, &pool);
        check("upcast-winograd", ref_plain, spatial_int8_budget(d, tau_d, dmax, sstats));
      }
      {
        VendorWinoF23 conv(d);
        conv.set_input_threshold(static_cast<float>(tau_d));
        conv.set_filters(data.weights, bias);
        conv.execute_nchw(data.input, out, &pool);
        check("vendor-winograd", ref_plain,
              downscale_budget(d, canonical_f23(), tau_d, sstats));
      }
    }
  } catch (const std::exception& e) {
    result.ok = false;
    result.failure = std::string("engine threw: ") + e.what();
  }
  return result;
}

FuzzCase shrink_case(FuzzCase fc, std::size_t max_attempts) {
  const auto still_fails = [&](const FuzzCase& candidate) {
    return !run_case(candidate).ok;
  };
  using Mutator = bool (*)(FuzzCase&);
  static const Mutator mutators[] = {
      [](FuzzCase& c) { return std::exchange(c.threads, 1) != 1; },
      [](FuzzCase& c) { return std::exchange(c.desc.batch, 1) != 1; },
      [](FuzzCase& c) { return std::exchange(c.relu, false); },
      [](FuzzCase& c) {
        c.sum_u8 = false;  // sum_u8 implies sum; clear both together
        return std::exchange(c.sum, false);
      },
      [](FuzzCase& c) { return std::exchange(c.with_bias, false); },
      [](FuzzCase& c) { return std::exchange(c.in_u8, false); },
      [](FuzzCase& c) { return std::exchange(c.out_u8, false); },
      [](FuzzCase& c) { return std::exchange(c.sum_u8, false); },
      [](FuzzCase& c) { return std::exchange(c.per_tensor_scales, false); },
      [](FuzzCase& c) {
        return std::exchange(c.mode, ExecutionMode::kStaged) != ExecutionMode::kStaged;
      },
      [](FuzzCase& c) {
        if (c.desc.in_channels <= 1) return false;
        c.desc.in_channels = (c.desc.in_channels + 1) / 2;
        return true;
      },
      [](FuzzCase& c) {
        if (c.desc.out_channels <= 1) return false;
        c.desc.out_channels = (c.desc.out_channels + 1) / 2;
        return true;
      },
      [](FuzzCase& c) {
        if (c.desc.height <= c.desc.kernel) return false;
        c.desc.height = std::max(c.desc.kernel, (c.desc.height + 1) / 2);
        return true;
      },
      [](FuzzCase& c) {
        if (c.desc.width <= c.desc.kernel) return false;
        c.desc.width = std::max(c.desc.kernel, (c.desc.width + 1) / 2);
        return true;
      },
      [](FuzzCase& c) { return std::exchange(c.desc.pad, 0) != 0; },
      [](FuzzCase& c) { return std::exchange(c.desc.stride, 1) != 1; },
      [](FuzzCase& c) { return std::exchange(c.desc.groups, 1) != 1; },
      [](FuzzCase& c) {
        if (c.desc.symmetric_padding()) return false;
        c.desc.pad_w = ConvDesc::kPadLikeHeight;
        return true;
      },
  };

  std::size_t attempts = 0;
  bool improved = true;
  while (improved && attempts < max_attempts) {
    improved = false;
    for (const Mutator mutate : mutators) {
      if (attempts >= max_attempts) break;
      FuzzCase candidate = fc;
      if (!mutate(candidate)) continue;
      ++attempts;
      if (still_fails(candidate)) {
        fc = candidate;
        improved = true;
      }
    }
  }
  return fc;
}

}  // namespace testing
}  // namespace lowino
