// Engine-level PostOps epilogue tests: fused-vs-unfused bit-identity for
// every post-op-capable engine across the epilogue combinations, the
// capability query / std::logic_error contract on declining engines, in-place
// residual (out aliases post.sum), and staged-vs-fused LoWino execution with
// an epilogue attached. The randomized cross-engine sweep lives in fuzz_conv;
// these are the deterministic contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "lowino/convolution.h"
#include "nn/engines.h"
#include "tensor/conv_desc.h"

namespace lowino {
namespace {

struct PostOpsFixture {
  ConvDesc desc;
  std::vector<float> input, weights, bias, residual;

  explicit PostOpsFixture(const ConvDesc& d) : desc(d) {
    Rng rng(20260808);
    input.resize(desc.batch * desc.in_channels * desc.height * desc.width);
    weights.resize(desc.out_channels * (desc.in_channels / desc.groups) * desc.kernel *
                   desc.kernel);
    bias.resize(desc.out_channels);
    residual.resize(desc.batch * desc.out_channels * desc.out_height() * desc.out_width());
    for (float& v : input) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : weights) v = rng.normal() * 0.2f;
    for (float& v : bias) v = rng.uniform(-0.5f, 0.5f);
    for (float& v : residual) v = rng.uniform(-1.0f, 1.0f);
  }

  PostOpsFixture() : PostOpsFixture(default_desc()) {}

  static ConvDesc default_desc() {
    ConvDesc d;
    d.batch = 2;
    d.in_channels = 7;   // padding lanes in every 16-lane group
    d.out_channels = 19; // K not a multiple of 16 either
    d.height = d.width = 12;
    d.kernel = 3;
    d.pad = 1;
    return d;
  }

  std::unique_ptr<ConvEngine> ready_engine(EngineKind kind) const {
    auto e = make_conv_engine(kind, desc);
    if (engine_caps(kind, desc).quantized) {
      e->calibrate(input);
      e->finalize_calibration();
    }
    e->set_filters(weights, bias);
    return e;
  }

  std::size_t out_elems() const { return residual.size(); }

  /// The unfused reference: plain engine run, then the element-wise epilogue
  /// in the fixed order (sum, then ReLU) — the exact float op sequence the
  /// fused epilogue performs in registers.
  std::vector<float> reference(ConvEngine& e, const PostOps& post) const {
    std::vector<float> out(out_elems());
    e.run(input, out, nullptr);
    if (post.sum != nullptr) {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += post.sum[i];
    }
    if (post.relu) {
      for (float& v : out) v = std::max(0.0f, v);
    }
    return out;
  }
};

TEST(PostOps, CapabilityTableMatchesWrapper) {
  const PostOpsFixture f;
  for (const EngineKind kind : all_engine_kinds()) {
    const EngineCaps caps = engine_caps(kind, f.desc);
    if (!caps.supports) continue;  // int8_dw declines a 3x3 ungrouped shape
    auto e = f.ready_engine(kind);
    EXPECT_EQ(e->supports_post_ops(), caps.post_ops) << engine_token(kind);
  }
  // The capable set is exactly: the direct engines (including the dedicated
  // depthwise one) and the LoWino family.
  const auto post_ops_of = [&f](EngineKind kind) {
    return engine_caps(kind, f.desc).post_ops;
  };
  EXPECT_TRUE(post_ops_of(EngineKind::kFp32Direct));
  EXPECT_TRUE(post_ops_of(EngineKind::kInt8Direct));
  EXPECT_TRUE(post_ops_of(EngineKind::kInt8Depthwise));
  EXPECT_TRUE(post_ops_of(EngineKind::kLoWinoF2));
  EXPECT_TRUE(post_ops_of(EngineKind::kLoWinoF4));
  EXPECT_TRUE(post_ops_of(EngineKind::kLoWinoF6));
  EXPECT_FALSE(post_ops_of(EngineKind::kFp32WinoF2));
  EXPECT_FALSE(post_ops_of(EngineKind::kDownscaleF2));
  EXPECT_FALSE(post_ops_of(EngineKind::kUpcastF2));
  EXPECT_FALSE(post_ops_of(EngineKind::kVendorF2));
}

TEST(PostOps, FusedBitIdenticalToUnfusedAcrossCapableEngines) {
  const PostOpsFixture f;
  const PostOps combos[] = {
      {.relu = true, .sum = nullptr},
      {.relu = false, .sum = f.residual.data()},
      {.relu = true, .sum = f.residual.data()},
  };
  for (const EngineKind kind : all_engine_kinds()) {
    const EngineCaps caps = engine_caps(kind, f.desc);
    if (!caps.supports || !caps.post_ops) continue;
    auto e = f.ready_engine(kind);
    for (const PostOps& post : combos) {
      const std::vector<float> ref = f.reference(*e, post);
      std::vector<float> fused(f.out_elems());
      e->run(f.input, fused, nullptr, post);
      EXPECT_EQ(0, std::memcmp(fused.data(), ref.data(), ref.size() * sizeof(float)))
          << engine_token(kind) << " relu=" << post.relu << " sum=" << (post.sum != nullptr);
    }
  }
}

TEST(PostOps, EmptyPostEqualsPlainRun) {
  const PostOpsFixture f;
  for (const EngineKind kind : {EngineKind::kInt8Direct, EngineKind::kLoWinoF4,
                                EngineKind::kDownscaleF2}) {
    auto e = f.ready_engine(kind);
    std::vector<float> plain(f.out_elems()), via_post(f.out_elems());
    e->run(f.input, plain, nullptr);
    e->run(f.input, via_post, nullptr, PostOps{});  // legal on every engine
    EXPECT_EQ(0, std::memcmp(plain.data(), via_post.data(), plain.size() * sizeof(float)))
        << engine_token(kind);
  }
}

TEST(PostOps, NonEmptyPostOnDecliningEngineThrows) {
  const PostOpsFixture f;
  for (const EngineKind kind : {EngineKind::kFp32WinoF2, EngineKind::kDownscaleF4,
                                EngineKind::kUpcastF2, EngineKind::kVendorF2}) {
    auto e = f.ready_engine(kind);
    std::vector<float> out(f.out_elems());
    EXPECT_THROW(e->run(f.input, out, nullptr, PostOps{.relu = true}), std::logic_error)
        << engine_token(kind);
    EXPECT_THROW(
        e->run(f.input, out, nullptr, PostOps{.relu = false, .sum = f.residual.data()}),
        std::logic_error)
        << engine_token(kind);
  }
}

TEST(PostOps, InPlaceResidualSumMatchesOutOfPlace) {
  // The serving arena lets a fused conv's output share the residual's slot;
  // post.sum == output must therefore be value-identical to distinct buffers.
  const PostOpsFixture f;
  for (const EngineKind kind :
       {EngineKind::kFp32Direct, EngineKind::kInt8Direct, EngineKind::kLoWinoF2,
        EngineKind::kLoWinoF4, EngineKind::kLoWinoF6}) {
    auto e = f.ready_engine(kind);
    std::vector<float> separate(f.out_elems());
    e->run(f.input, separate,
           nullptr, PostOps{.relu = true, .sum = f.residual.data()});
    std::vector<float> in_place = f.residual;  // output starts as the residual
    e->run(f.input, in_place, nullptr, PostOps{.relu = true, .sum = in_place.data()});
    EXPECT_EQ(0, std::memcmp(in_place.data(), separate.data(),
                             separate.size() * sizeof(float)))
        << engine_token(kind);
  }
}

TEST(PostOps, DedicatedEnginesFusedBitIdenticalOnNativeShapes) {
  // The shared fixture is a 3x3 conv: int8_direct's pointwise shape and the
  // depthwise engine (which declines the fixture) get the same
  // fused-vs-unfused contract here.
  ConvDesc pw = PostOpsFixture::default_desc();
  pw.kernel = 1;
  pw.pad = 0;
  ConvDesc dw = PostOpsFixture::default_desc();
  dw.in_channels = dw.out_channels = dw.groups = 12;
  const struct {
    EngineKind kind;
    const ConvDesc& desc;
  } cases[] = {{EngineKind::kInt8Direct, pw}, {EngineKind::kInt8Depthwise, dw}};
  for (const auto& c : cases) {
    ASSERT_TRUE(engine_caps(c.kind, c.desc).supports) << engine_token(c.kind);
    const PostOpsFixture f(c.desc);
    auto e = f.ready_engine(c.kind);
    const PostOps combos[] = {
        {.relu = true, .sum = nullptr},
        {.relu = false, .sum = f.residual.data()},
        {.relu = true, .sum = f.residual.data()},
    };
    for (const PostOps& post : combos) {
      const std::vector<float> ref = f.reference(*e, post);
      std::vector<float> fused(f.out_elems());
      e->run(f.input, fused, nullptr, post);
      EXPECT_EQ(0, std::memcmp(fused.data(), ref.data(), ref.size() * sizeof(float)))
          << engine_token(c.kind) << " relu=" << post.relu
          << " sum=" << (post.sum != nullptr);
    }
  }
}

TEST(PostOps, LoWinoStagedAndFusedModesAgreeWithEpilogue) {
  const PostOpsFixture f;
  const PostOps post{.relu = true, .sum = f.residual.data()};
  std::vector<float> outs[2];
  const ExecutionMode modes[] = {ExecutionMode::kStaged, ExecutionMode::kFused};
  for (int m = 0; m < 2; ++m) {
    LoWinoConfig cfg;
    cfg.m = 4;
    cfg.execution_mode = modes[m];
    LoWinoConvolution conv(f.desc, cfg);
    conv.calibrate(f.input);
    conv.finalize_calibration();
    conv.set_filters(f.weights, f.bias);
    outs[m].resize(f.out_elems());
    conv.execute_nchw(f.input, outs[m], nullptr, post);
  }
  EXPECT_EQ(0, std::memcmp(outs[0].data(), outs[1].data(), outs[0].size() * sizeof(float)));
}

}  // namespace
}  // namespace lowino
