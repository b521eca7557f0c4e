// Tests for the NN runtime: dataset, loss, layer gradients (finite
// differences), training convergence, and quantized inference of trained
// models through forced-engine sessions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "nn/dataset.h"
#include "nn/engines.h"
#include "nn/model_zoo.h"
#include "nn/train.h"
#include "quant/quantize.h"
#include "serve/session.h"
#include "tensor/layout.h"

namespace lowino {
namespace {

// --- Dataset ----------------------------------------------------------------
TEST(ShapeDataset, DeterministicAndBalanced) {
  const Dataset a = make_shape_dataset(100, 42);
  const Dataset b = make_shape_dataset(100, 42);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.images, b.images);
  std::vector<int> counts(10, 0);
  for (int l : a.labels) ++counts[l];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(ShapeDataset, DifferentSeedsDiffer) {
  const Dataset a = make_shape_dataset(50, 1);
  const Dataset b = make_shape_dataset(50, 2);
  EXPECT_NE(a.images, b.images);
}

TEST(ShapeDataset, ClassesAreVisuallyDistinct) {
  // Mean images of different classes must differ substantially.
  const Dataset d = make_shape_dataset(500, 3);
  const std::size_t n = d.image_hw * d.image_hw;
  std::vector<std::vector<double>> mean(10, std::vector<double>(n, 0.0));
  std::vector<int> counts(10, 0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto img = d.image(i);
    for (std::size_t p = 0; p < n; ++p) mean[d.labels[i]][p] += img[p];
    ++counts[d.labels[i]];
  }
  for (int c = 0; c < 10; ++c) {
    for (auto& v : mean[c]) v /= counts[c];
  }
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      double dist = 0.0;
      for (std::size_t p = 0; p < n; ++p) {
        dist += (mean[a][p] - mean[b][p]) * (mean[a][p] - mean[b][p]);
      }
      EXPECT_GT(std::sqrt(dist), 0.5) << "classes " << a << " and " << b << " too similar";
    }
  }
}

TEST(ShapeDataset, FillBatchShapes) {
  const Dataset d = make_shape_dataset(64, 5);
  Tensor<float> x;
  std::vector<int> y;
  fill_batch(d, 10, 8, x, y);
  EXPECT_EQ(x.shape(), (std::vector<std::size_t>{8, 1, 16, 16}));
  EXPECT_EQ(y.size(), 8u);
  EXPECT_EQ(y[0], d.labels[10]);
}

// --- Loss -------------------------------------------------------------------
TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  Tensor<float> logits({4, 10});
  logits.zero();
  std::vector<int> labels = {0, 3, 7, 9};
  Tensor<float> grad;
  const float loss = softmax_xent(logits, labels, grad);
  EXPECT_NEAR(loss, std::log(10.0f), 1e-5f);
}

TEST(SoftmaxXent, GradientMatchesFiniteDifference) {
  Rng rng(9);
  Tensor<float> logits({3, 5});
  for (auto& v : logits.span()) v = rng.uniform(-2.0f, 2.0f);
  std::vector<int> labels = {1, 4, 0};
  Tensor<float> grad;
  const float base = softmax_xent(logits, labels, grad);
  (void)base;
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); i += 3) {
    Tensor<float> lp = logits, lm = logits;
    lp.data()[i] += eps;
    lm.data()[i] -= eps;
    Tensor<float> g2;
    const float fplus = softmax_xent(lp, labels, g2);
    const float fminus = softmax_xent(lm, labels, g2);
    const float numeric = (fplus - fminus) / (2 * eps);
    ASSERT_NEAR(grad.data()[i], numeric, 5e-3f) << "logit " << i;
  }
}

TEST(Predict, Argmax) {
  Tensor<float> logits({2, 3});
  logits(0, 0) = 1;
  logits(0, 1) = 5;
  logits(0, 2) = 2;
  logits(1, 0) = 7;
  logits(1, 1) = 0;
  logits(1, 2) = 3;
  std::vector<int> pred;
  predict(logits, pred);
  EXPECT_EQ(pred[0], 1);
  EXPECT_EQ(pred[1], 0);
}

// --- Layer gradient checks ---------------------------------------------------
/// Loss = sum(out .* proj); checks d(loss)/d(in) via central differences.
template <typename MakeLayer>
void check_input_gradient(MakeLayer&& make_layer, std::vector<std::size_t> in_shape,
                          unsigned seed, float tol = 2e-2f, float eps = 1e-2f) {
  Rng rng(seed);
  auto layer = make_layer();
  Tensor<float> in(in_shape);
  for (auto& v : in.span()) v = rng.uniform(-1.0f, 1.0f);
  Tensor<float> out;
  layer->forward(in, out, /*train=*/true);
  Tensor<float> proj(out.shape());
  for (auto& v : proj.span()) v = rng.uniform(-1.0f, 1.0f);
  Tensor<float> grad_in;
  layer->backward(proj, grad_in);

  for (std::size_t i = 0; i < in.size(); i += std::max<std::size_t>(1, in.size() / 17)) {
    auto loss_at = [&](float delta) {
      Tensor<float> x = in;
      x.data()[i] += delta;
      Tensor<float> o;
      auto fresh = make_layer();  // same seed -> identical weights
      fresh->forward(x, o, false);
      double l = 0.0;
      for (std::size_t j = 0; j < o.size(); ++j) l += o.data()[j] * proj.data()[j];
      return l;
    };
    const double numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps);
    ASSERT_NEAR(grad_in.data()[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "input index " << i;
  }
}

TEST(ConvLayerGrad, InputGradientMatchesFiniteDifference) {
  check_input_gradient(
      [] {
        Rng wrng(11);
        return std::make_unique<ConvLayer>(2, 3, 4, 3, 1, wrng);
      },
      {2, 2, 4, 4}, 21);
}

TEST(ReluGrad, InputGradientMatchesFiniteDifference) {
  check_input_gradient([] { return std::make_unique<ReluLayer>(); }, {2, 3, 4, 4}, 22);
}

TEST(MaxPoolGrad, InputGradientMatchesFiniteDifference) {
  // Tiny epsilon: a larger perturbation can flip a near-tied argmax, making
  // the finite difference sample the other branch of the max kink.
  // (seed chosen so no pooling window has a near-tied max within eps)
  check_input_gradient([] { return std::make_unique<MaxPoolLayer>(3, 4); }, {2, 3, 4, 4}, 37,
                       2e-2f, /*eps=*/5e-4f);
}

TEST(DenseGrad, InputGradientMatchesFiniteDifference) {
  check_input_gradient(
      [] {
        Rng wrng(12);
        return std::make_unique<DenseLayer>(12, 5, wrng);
      },
      {3, 12}, 24);
}

TEST(ResidualGrad, InputGradientMatchesFiniteDifference) {
  check_input_gradient(
      [] {
        Rng wrng(13);
        return std::make_unique<ResidualBlock>(2, 4, wrng);
      },
      {1, 2, 4, 4}, 25, /*tol=*/5e-2f);
}

TEST(ConvLayerGrad, WeightGradientMatchesFiniteDifference) {
  Rng rng(31);
  Rng wrng(32);
  ConvLayer layer(2, 2, 4, 3, 1, wrng);
  Tensor<float> in({1, 2, 4, 4});
  for (auto& v : in.span()) v = rng.uniform(-1.0f, 1.0f);
  Tensor<float> out;
  layer.forward(in, out, true);
  Tensor<float> proj(out.shape());
  for (auto& v : proj.span()) v = rng.uniform(-1.0f, 1.0f);
  Tensor<float> grad_in;
  layer.backward(proj, grad_in);

  // Recover grad_w through update(): w' = w - lr * grad (momentum 0).
  std::vector<float> w_before(layer.weights().begin(), layer.weights().end());
  ConvLayer probe(2, 2, 4, 3, 1, wrng);  // scratch for forward evals
  auto loss_with_weights = [&](const std::vector<float>& w) {
    std::copy(w.begin(), w.end(), probe.mutable_weights().begin());
    Tensor<float> o;
    probe.forward(in, o, false);
    double l = 0.0;
    for (std::size_t j = 0; j < o.size(); ++j) l += o.data()[j] * proj.data()[j];
    return l;
  };
  layer.update(/*lr=*/1.0f, /*momentum=*/0.0f);
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < w_before.size(); i += 7) {
    const float analytic = w_before[i] - layer.weights()[i];  // == grad_w[i]
    std::vector<float> wp = w_before, wm = w_before;
    wp[i] += eps;
    wm[i] -= eps;
    const double numeric = (loss_with_weights(wp) - loss_with_weights(wm)) / (2 * eps);
    ASSERT_NEAR(analytic, numeric, 2e-2 * std::max(1.0, std::abs(numeric))) << "w " << i;
  }
}

// --- Grouped / depthwise convolution layers ----------------------------------
TEST(ConvLayerGrad, DepthwiseInputGradientMatchesFiniteDifference) {
  check_input_gradient(
      [] {
        Rng wrng(14);
        return std::make_unique<ConvLayer>(4, 4, 4, 3, 1, wrng, /*groups=*/4);
      },
      {2, 4, 4, 4}, 26);
}

TEST(ConvLayerGrad, GroupedInputGradientMatchesFiniteDifference) {
  check_input_gradient(
      [] {
        Rng wrng(15);
        return std::make_unique<ConvLayer>(4, 6, 4, 3, 1, wrng, /*groups=*/2);
      },
      {2, 4, 4, 4}, 27);
}

TEST(ConvLayerGrouped, ForwardEqualsBlockDiagonalUngrouped) {
  // A grouped conv is an ungrouped conv whose weight tensor is block-diagonal
  // across channel groups; embed the grouped weights and compare outputs.
  Rng rng(41);
  const std::size_t c = 6, k = 9, hw = 5, r = 3, g = 3;
  ConvLayer grouped(c, k, hw, r, 1, rng, g);
  Rng rng2(42);
  ConvLayer dense(c, k, hw, r, 1, rng2);
  const std::size_t cg = c / g, kg = k / g;
  auto dw = dense.mutable_weights();
  std::fill(dw.begin(), dw.end(), 0.0f);
  const auto gw = grouped.weights();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const std::size_t c0 = (kk / kg) * cg;
    for (std::size_t ci = 0; ci < cg; ++ci) {
      for (std::size_t t = 0; t < r * r; ++t) {
        dw[(kk * c + c0 + ci) * r * r + t] = gw[(kk * cg + ci) * r * r + t];
      }
    }
  }
  Tensor<float> in({2, c, hw, hw});
  for (auto& v : in.span()) v = rng.uniform(-1.0f, 1.0f);
  Tensor<float> out_g, out_d;
  grouped.forward(in, out_g, false);
  dense.forward(in, out_d, false);
  ASSERT_EQ(out_g.shape(), out_d.shape());
  // Biases differ between the two layers; compare after removing them.
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t p = 0; p < hw * hw; ++p) {
        const float vg = out_g.data()[(b * k + kk) * hw * hw + p] - grouped.bias()[kk];
        const float vd = out_d.data()[(b * k + kk) * hw * hw + p] - dense.bias()[kk];
        ASSERT_NEAR(vg, vd, 1e-4f) << "b=" << b << " k=" << kk << " p=" << p;
      }
    }
  }
}

TEST(ConvLayerGrouped, NameTokensAndValidation) {
  Rng rng(1);
  ConvLayer plain(8, 16, 8, 3, 1, rng);
  ConvLayer dw(8, 8, 8, 3, 1, rng, /*groups=*/8);
  ConvLayer grouped(8, 16, 8, 3, 1, rng, /*groups=*/2);
  EXPECT_EQ(plain.name(), "conv3x3(8->16)");
  EXPECT_EQ(dw.name(), "dwconv3x3(8->8)");
  EXPECT_EQ(grouped.name(), "conv3x3(8->16,g=2)");
  EXPECT_EQ(plain.groups(), 1u);
  EXPECT_EQ(dw.groups(), 8u);
  EXPECT_THROW(ConvLayer(8, 9, 8, 3, 1, rng, /*groups=*/2), std::invalid_argument);
}

TEST(ConvDescGroups, TokenStabilityAndValidation) {
  ConvDesc d;
  d.batch = 2;
  d.in_channels = 6;
  d.out_channels = 6;
  d.height = d.width = 8;
  d.kernel = 3;
  d.pad = 1;
  // groups == 1 must serialize byte-identically to the pre-groups format:
  // existing wisdom keys and plan files keep resolving.
  EXPECT_EQ(d.to_string(), "B2 C6 K6 H8 W8 r3");
  d.groups = 3;
  EXPECT_EQ(d.to_string(), "B2 C6 K6 H8 W8 r3 g3");
  EXPECT_TRUE(d.is_valid());
  EXPECT_TRUE(ConvDesc{d}.is_depthwise() == false);
  d.groups = 6;
  EXPECT_TRUE(d.is_depthwise());
  EXPECT_EQ(d.group_in_channels(), 1u);
  d.groups = 0;
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.groups = 4;  // 6 % 4 != 0
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.groups = 3;
  d.out_channels = 7;  // out_channels not divisible
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

// --- Training ----------------------------------------------------------------
TEST(Training, SmallModelLearnsTheDataset) {
  const Dataset train_set = make_shape_dataset(600, 100);
  const Dataset test_set = make_shape_dataset(200, 200);
  SequentialModel model = make_minivgg(16, 10, /*seed=*/7);
  TrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch = 32;
  cfg.lr = 0.05f;
  const double train_acc = train_model(model, train_set, cfg);
  EXPECT_GT(train_acc, 0.7);
  const EvalResult eval = evaluate_fp32(model, test_set);
  EXPECT_GT(eval.accuracy, 0.6);
  EXPECT_LT(eval.avg_loss, 1.5);
}

TEST(Training, LossDecreases) {
  const Dataset data = make_shape_dataset(320, 101);
  SequentialModel model = make_miniresnet(16, 10, 8);
  const EvalResult before = evaluate_fp32(model, data);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch = 32;
  train_model(model, data, cfg);
  const EvalResult after = evaluate_fp32(model, data);
  EXPECT_LT(after.avg_loss, before.avg_loss);
  EXPECT_GT(after.accuracy, before.accuracy);
}

// --- Quantized inference ------------------------------------------------------
PlanOptions forced(EngineKind kind) {
  PlanOptions options;
  options.forced_engine = kind;
  return options;
}

/// Top-1 on `test_set` of a session compiled with `options` and calibrated
/// on the first 128 images of `calib_set`, as 4 batches of 32.
EvalResult session_eval(SequentialModel& model, const Dataset& calib_set,
                        const Dataset& test_set, const PlanOptions& options) {
  const std::vector<Tensor<float>> calib = image_batches(calib_set, 128, 32);
  InferenceSession session = InferenceSession::compile(model, calib, options);
  Tensor<float> logits;
  return evaluate(test_set, 32, [&](const Tensor<float>& x) -> const Tensor<float>& {
    session.run(x, logits);
    return logits;
  });
}

class EngineAgreement : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineAgreement, QuantizedModelAgreesWithFp32) {
  const EngineKind kind = GetParam();
  const Dataset train_set = make_shape_dataset(320, 110);
  const Dataset calib_set = make_shape_dataset(128, 111);
  const Dataset test_set = make_shape_dataset(96, 112);
  SequentialModel model = make_minivgg(16, 10, 9);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 32;
  train_model(model, train_set, cfg);

  const EvalResult fp32 = evaluate_fp32(model, test_set, 32);
  const EvalResult quant = session_eval(model, calib_set, test_set, forced(kind));
  EXPECT_EQ(quant.samples, 96u);
  // Quantized accuracy within a few points of FP32 for sound schemes.
  EXPECT_GT(quant.accuracy, fp32.accuracy - 0.08)
      << engine_name(kind) << ": " << quant.accuracy << " vs fp32 " << fp32.accuracy;
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineAgreement,
                         ::testing::Values(EngineKind::kFp32Direct, EngineKind::kFp32WinoF2,
                                           EngineKind::kFp32WinoF4, EngineKind::kInt8Direct,
                                           EngineKind::kLoWinoF2, EngineKind::kLoWinoF4,
                                           EngineKind::kUpcastF2, EngineKind::kVendorF2,
                                           EngineKind::kDownscaleF2));

TEST(EngineAgreement, DownscaleF4DegradesAccuracy) {
  // The Table 3 collapse: down-scaling F(4x4) ruins the trained model while
  // LoWino F(4x4) preserves it.
  const Dataset train_set = make_shape_dataset(320, 120);
  const Dataset calib_set = make_shape_dataset(128, 121);
  const Dataset test_set = make_shape_dataset(96, 122);
  SequentialModel model = make_minivgg(16, 10, 10);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 32;
  train_model(model, train_set, cfg);

  const EvalResult fp32 = evaluate_fp32(model, test_set, 32);
  const EvalResult ds4 =
      session_eval(model, calib_set, test_set, forced(EngineKind::kDownscaleF4));
  const EvalResult lw4 = session_eval(model, calib_set, test_set, forced(EngineKind::kLoWinoF4));
  EXPECT_LT(ds4.accuracy, fp32.accuracy - 0.15) << "down-scaling F(4,4) should degrade";
  EXPECT_GT(lw4.accuracy, ds4.accuracy) << "LoWino F(4,4) must beat down-scaling F(4,4)";
}

TEST(EngineNames, AllDistinct) {
  const auto kinds = all_engine_kinds();
  EXPECT_EQ(kinds.size(), 12u);  // 11 core + int8_dw
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    for (std::size_t j = i + 1; j < kinds.size(); ++j) {
      EXPECT_STRNE(engine_name(kinds[i]), engine_name(kinds[j]));
      EXPECT_STRNE(engine_token(kinds[i]), engine_token(kinds[j]));
    }
  }
  ConvDesc d;
  d.batch = 1;
  d.in_channels = d.out_channels = 4;
  d.height = d.width = 8;
  d.kernel = 3;
  d.pad = 1;
  EXPECT_FALSE(engine_caps(EngineKind::kFp32Direct, d).quantized);
  EXPECT_TRUE(engine_caps(EngineKind::kLoWinoF4, d).quantized);
}

TEST(EngineCapsQuery, BlockedIoIsLoWinoPlusTheDedicatedDirectEnginesAndGatesRunBlocked) {
  ConvDesc d;
  d.batch = 1;
  d.in_channels = d.out_channels = 8;
  d.height = d.width = 8;
  d.kernel = 3;
  d.pad = 1;
  for (const EngineKind kind : all_engine_kinds()) {
    const bool blocked = kind == EngineKind::kLoWinoF2 || kind == EngineKind::kLoWinoF4 ||
                         kind == EngineKind::kLoWinoF6 || kind == EngineKind::kInt8Direct ||
                         kind == EngineKind::kInt8Depthwise;
    EXPECT_EQ(engine_caps(kind, d).blocked_io, blocked) << engine_token(kind);
  }
  // run_blocked keeps the lifecycle and refuses engines without blocked I/O.
  std::vector<float> in(BlockedActLayout(1, 8, 8, 8).size(), 0.5f), out(in.size());
  std::vector<float> w(8 * 8 * 9, 0.1f), bias(8, 0.0f);
  std::unique_ptr<ConvEngine> lowino = make_conv_engine(EngineKind::kLoWinoF2, d);
  lowino->calibrate(std::vector<float>(8 * 64, 0.5f));
  lowino->finalize_calibration();
  EXPECT_THROW(lowino->run_blocked(in.data(), out.data(), nullptr), std::logic_error);
  lowino->set_filters(w, bias);
  EXPECT_NO_THROW(lowino->run_blocked(in.data(), out.data(), nullptr));
  std::unique_ptr<ConvEngine> fp32 = make_conv_engine(EngineKind::kFp32Direct, d);
  fp32->set_filters(w, bias);
  EXPECT_THROW(fp32->run_blocked(in.data(), out.data(), nullptr), std::logic_error);
}

// --- EngineCaps: per-shape support gating ------------------------------------
TEST(EngineCapsQuery, ShapeGatingMatchesEngineAcceptance) {
  const auto desc = [](std::size_t c, std::size_t k, std::size_t r, std::size_t pad,
                       std::size_t groups, std::size_t stride = 1) {
    ConvDesc d;
    d.batch = 1;
    d.in_channels = c;
    d.out_channels = k;
    d.height = d.width = 8;
    d.kernel = r;
    d.pad = pad;
    d.groups = groups;
    d.stride = stride;
    return d;
  };
  const ConvDesc plain3x3 = desc(8, 8, 3, 1, 1);
  const ConvDesc pw1x1 = desc(8, 16, 1, 0, 1);
  const ConvDesc pw1x1s2 = desc(8, 16, 1, 0, 1, 2);
  const ConvDesc dw3x3 = desc(8, 8, 3, 1, 8);
  const ConvDesc grouped = desc(8, 8, 3, 1, 2);  // grouped but not depthwise

  // supports() must predict exactly what make_conv_engine accepts: a kind
  // that reports supports == false throws std::invalid_argument, a kind that
  // reports true constructs (the fuzzer cross-checks this on random shapes).
  for (const ConvDesc& d : {plain3x3, pw1x1, pw1x1s2, dw3x3, grouped}) {
    for (const EngineKind kind : all_engine_kinds()) {
      const EngineCaps caps = engine_caps(kind, d);
      if (caps.supports) {
        EXPECT_NO_THROW(make_conv_engine(kind, d))
            << engine_token(kind) << " on " << d.to_string();
      } else {
        EXPECT_THROW(make_conv_engine(kind, d), std::invalid_argument)
            << engine_token(kind) << " on " << d.to_string();
      }
    }
  }

  // Spot-check the table: who owns which shape.
  EXPECT_TRUE(engine_caps(EngineKind::kInt8Direct, plain3x3).supports);
  EXPECT_TRUE(engine_caps(EngineKind::kLoWinoF4, plain3x3).supports);
  EXPECT_FALSE(engine_caps(EngineKind::kInt8Depthwise, plain3x3).supports);

  EXPECT_TRUE(engine_caps(EngineKind::kInt8Direct, pw1x1).supports);
  EXPECT_TRUE(engine_caps(EngineKind::kInt8Direct, pw1x1s2).supports);
  EXPECT_FALSE(engine_caps(EngineKind::kLoWinoF2, pw1x1).supports);  // r < 2
  EXPECT_FALSE(engine_caps(EngineKind::kVendorF2, pw1x1).supports);  // r != 3

  EXPECT_TRUE(engine_caps(EngineKind::kInt8Depthwise, dw3x3).supports);
  EXPECT_FALSE(engine_caps(EngineKind::kInt8Direct, dw3x3).supports);
  EXPECT_FALSE(engine_caps(EngineKind::kLoWinoF4, dw3x3).supports);
  EXPECT_FALSE(engine_caps(EngineKind::kFp32Direct, dw3x3).supports);

  // General grouped conv has no dedicated engine: nothing claims it.
  for (const EngineKind kind : all_engine_kinds()) {
    EXPECT_FALSE(engine_caps(kind, grouped).supports) << engine_token(kind);
  }

  // An invalid descriptor is supported by nothing, without throwing.
  ConvDesc bad = plain3x3;
  bad.kernel = 0;
  for (const EngineKind kind : all_engine_kinds()) {
    EXPECT_FALSE(engine_caps(kind, bad).supports) << engine_token(kind);
  }
}

TEST(ModelZoo, ShapesAndParameterCounts) {
  SequentialModel vgg = make_minivgg();
  SequentialModel res = make_miniresnet();
  SequentialModel mob = make_minimobilenet();
  EXPECT_GT(vgg.parameter_count(), 100000u);
  EXPECT_GT(res.parameter_count(), 100000u);
  EXPECT_GT(mob.parameter_count(), 10000u);
  // Depthwise separability: far fewer parameters than the dense-conv nets.
  EXPECT_LT(mob.parameter_count(), vgg.parameter_count());
  Tensor<float> x({2, 1, 16, 16});
  x.zero();
  EXPECT_EQ(vgg.forward(x).shape(), (std::vector<std::size_t>{2, 10}));
  EXPECT_EQ(res.forward(x).shape(), (std::vector<std::size_t>{2, 10}));
  EXPECT_EQ(mob.forward(x).shape(), (std::vector<std::size_t>{2, 10}));
}

TEST(EngineAgreement, MiniMobileNetDedicatedEnginesTrackFp32) {
  // End-to-end on the depthwise net: with {int8_dw, int8_direct} as the only
  // candidates, each quantizable layer has exactly one eligible engine, so
  // the depthwise layers run int8_dw and the pointwise layers int8_direct.
  const Dataset train_set = make_shape_dataset(320, 130);
  const Dataset calib_set = make_shape_dataset(128, 131);
  const Dataset test_set = make_shape_dataset(96, 132);
  SequentialModel model = make_minimobilenet(16, 10, 11);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch = 32;
  train_model(model, train_set, cfg);

  const EvalResult fp32 = evaluate_fp32(model, test_set, 32);
  PlanOptions dedicated;
  dedicated.candidates = {EngineKind::kInt8Depthwise, EngineKind::kInt8Direct};
  const EvalResult quant = session_eval(model, calib_set, test_set, dedicated);
  EXPECT_EQ(quant.samples, 96u);
  EXPECT_GT(quant.accuracy, fp32.accuracy - 0.08)
      << quant.accuracy << " vs fp32 " << fp32.accuracy;
}

TEST(PaperLayers, Table2Complete) {
  const auto layers = paper_layers_table2();
  ASSERT_EQ(layers.size(), 20u);
  EXPECT_EQ(layers[0].name, "AlexNet_a");
  EXPECT_EQ(layers[0].desc.batch, 64u);
  EXPECT_EQ(layers[2].desc.height, 58u);   // VGG16_a
  EXPECT_EQ(layers[11].desc.batch, 1u);    // YOLOv3_a
  EXPECT_EQ(layers[19].desc.out_channels, 512u);  // U-Net_c
  for (const auto& l : layers) EXPECT_EQ(l.desc.kernel, 3u);
  const auto scaled = paper_layers_table2(/*batch_override=*/8);
  EXPECT_EQ(scaled[0].desc.batch, 8u);
  EXPECT_EQ(scaled[11].desc.batch, 1u);  // batch-1 rows unaffected
}

// --- Engine factory: degenerate-shape rejection ------------------------------
TEST(MakeConvEngine, RejectsDegenerateDescriptors) {
  // One representative degenerate descriptor per validate() rule; each must be
  // rejected at the factory for every engine kind, not deep inside a ctor
  // after size_t wrap-around has already sized a workspace.
  const auto degenerate = [](auto mutate) {
    ConvDesc d;
    d.batch = 1;
    d.in_channels = d.out_channels = 4;
    d.height = d.width = 8;
    d.kernel = 3;
    d.pad = 1;
    mutate(d);
    return d;
  };
  const ConvDesc bad[] = {
      degenerate([](ConvDesc& d) { d.kernel = 0; }),
      degenerate([](ConvDesc& d) { d.stride = 0; }),
      degenerate([](ConvDesc& d) { d.batch = 0; }),
      degenerate([](ConvDesc& d) { d.in_channels = 0; }),
      degenerate([](ConvDesc& d) { d.out_channels = 0; }),
      degenerate([](ConvDesc& d) { d.pad = 3; }),                   // pad >= kernel
      degenerate([](ConvDesc& d) { d.pad = 0; d.height = 2; }),     // r > h + 2p
      degenerate([](ConvDesc& d) { d.pad = 0; d.width = 2; }),      // r > w + 2p
  };
  const EngineKind kinds[] = {
      EngineKind::kFp32Direct, EngineKind::kFp32WinoF2, EngineKind::kInt8Direct,
      EngineKind::kLoWinoF2,   EngineKind::kDownscaleF2, EngineKind::kUpcastF2,
      EngineKind::kVendorF2,
  };
  for (const ConvDesc& d : bad) {
    for (const EngineKind kind : kinds) {
      EXPECT_THROW(make_conv_engine(kind, d), std::invalid_argument)
          << engine_name(kind) << " accepted " << d.to_string();
    }
  }
}

// --- Calibration stride heuristic and its env override -----------------------
TEST(CalibrationStride, HeuristicIsDenseBelowTheTileLimit) {
  ::unsetenv("LOWINO_CALIB_STRIDE");
  // Tiny maps (a CIFAR tail with a handful of tiles) walk every tile; big
  // maps keep the historical subsampling stride 2.
  EXPECT_EQ(lowino_calibration_stride(1), 1u);
  EXPECT_EQ(lowino_calibration_stride(8), 1u);
  EXPECT_EQ(lowino_calibration_stride(kCalibDenseTileLimit - 1), 1u);
  EXPECT_EQ(lowino_calibration_stride(kCalibDenseTileLimit), 2u);
  EXPECT_EQ(lowino_calibration_stride(4096), 2u);
}

TEST(CalibrationStride, EnvOverrideParsing) {
  const auto with_env = [](const char* value, std::size_t tiles) {
    ::setenv("LOWINO_CALIB_STRIDE", value, 1);
    const std::size_t s = lowino_calibration_stride(tiles);
    ::unsetenv("LOWINO_CALIB_STRIDE");
    return s;
  };
  EXPECT_EQ(with_env("3", 4096), 3u);
  EXPECT_EQ(with_env("1", 4096), 1u);
  EXPECT_EQ(with_env("16", 4), 16u);
  // Non-positive or unparsable values fall back to the heuristic.
  EXPECT_EQ(with_env("0", 4096), 2u);
  EXPECT_EQ(with_env("-3", 4096), 2u);
  EXPECT_EQ(with_env("banana", 4096), 2u);
  EXPECT_EQ(with_env("", 8), 1u);
}

// --- ConvEngine lifecycle state machine -------------------------------------

struct LifecycleFixture {
  ConvDesc desc;
  std::vector<float> input, weights, bias;

  LifecycleFixture() {
    desc.batch = 1;
    desc.in_channels = 4;
    desc.out_channels = 4;
    desc.height = desc.width = 8;
    desc.kernel = 3;
    desc.pad = 1;
    Rng rng(99);
    input.resize(desc.batch * desc.in_channels * desc.height * desc.width);
    weights.resize(desc.out_channels * desc.in_channels * 9);
    bias.resize(desc.out_channels);
    for (float& v : input) v = rng.uniform(-1.0f, 1.0f);
    for (float& v : weights) v = rng.normal() * 0.1f;
  }

  std::unique_ptr<ConvEngine> make(EngineKind kind) const {
    return make_conv_engine(kind, desc);
  }
  std::vector<float> output() const {
    return std::vector<float>(desc.batch * desc.out_channels * desc.out_height() *
                              desc.out_width());
  }
};

TEST(ConvEngineLifecycle, HappyPathAdvancesStates) {
  const LifecycleFixture f;
  auto e = f.make(EngineKind::kLoWinoF2);
  EXPECT_EQ(e->lifecycle(), ConvEngine::Lifecycle::kCalibrating);
  e->calibrate(f.input);
  e->calibrate(f.input);  // repeated sampling is part of the contract
  EXPECT_EQ(e->lifecycle(), ConvEngine::Lifecycle::kCalibrating);
  e->finalize_calibration();
  EXPECT_EQ(e->lifecycle(), ConvEngine::Lifecycle::kFinalized);
  e->set_filters(f.weights, f.bias);
  EXPECT_EQ(e->lifecycle(), ConvEngine::Lifecycle::kReady);
  auto out = f.output();
  e->run(f.input, out, nullptr);
  e->run(f.input, out, nullptr);  // run is repeatable
}

TEST(ConvEngineLifecycle, CalibrateAfterFinalizeThrows) {
  const LifecycleFixture f;
  auto e = f.make(EngineKind::kLoWinoF2);
  e->calibrate(f.input);
  e->finalize_calibration();
  EXPECT_THROW(e->calibrate(f.input), std::logic_error);
  // ... including after the engine is fully ready.
  e->set_filters(f.weights, f.bias);
  EXPECT_THROW(e->calibrate(f.input), std::logic_error);
}

TEST(ConvEngineLifecycle, DoubleFinalizeThrows) {
  const LifecycleFixture f;
  auto e = f.make(EngineKind::kInt8Direct);
  e->calibrate(f.input);
  e->finalize_calibration();
  EXPECT_THROW(e->finalize_calibration(), std::logic_error);
}

TEST(ConvEngineLifecycle, FinalizeWithoutSamplesThrowsOnQuantizedEngines) {
  const LifecycleFixture f;
  for (const EngineKind kind :
       {EngineKind::kInt8Direct, EngineKind::kLoWinoF2, EngineKind::kDownscaleF2}) {
    auto e = f.make(kind);
    EXPECT_THROW(e->finalize_calibration(), std::logic_error) << engine_name(kind);
  }
}

TEST(ConvEngineLifecycle, SetFiltersDuringCalibrationThrowsOnQuantizedEngines) {
  const LifecycleFixture f;
  // Never calibrated: no input scales exist.
  auto fresh = f.make(EngineKind::kLoWinoF4);
  EXPECT_THROW(fresh->set_filters(f.weights, f.bias), std::logic_error);
  // Mid-calibration (samples taken, not finalized): scales not fixed yet.
  auto mid = f.make(EngineKind::kLoWinoF4);
  mid->calibrate(f.input);
  EXPECT_THROW(mid->set_filters(f.weights, f.bias), std::logic_error);
}

TEST(ConvEngineLifecycle, RunBeforeFiltersThrows) {
  const LifecycleFixture f;
  auto out = f.output();
  auto e = f.make(EngineKind::kLoWinoF2);
  EXPECT_THROW(e->run(f.input, out, nullptr), std::logic_error);
  e->calibrate(f.input);
  e->finalize_calibration();
  EXPECT_THROW(e->run(f.input, out, nullptr), std::logic_error);
}

TEST(ConvEngineLifecycle, Fp32EnginesSkipCalibrationImplicitly) {
  const LifecycleFixture f;
  for (const EngineKind kind :
       {EngineKind::kFp32Direct, EngineKind::kFp32WinoF2, EngineKind::kFp32WinoF4}) {
    auto e = f.make(kind);
    e->set_filters(f.weights, f.bias);  // first call; state advances implicitly
    EXPECT_EQ(e->lifecycle(), ConvEngine::Lifecycle::kReady) << engine_name(kind);
    auto out = f.output();
    e->run(f.input, out, nullptr);
  }
  // But ordering bugs still surface on FP32 engines: run before filters and
  // calibrate after finalization throw regardless of kind.
  auto e = f.make(EngineKind::kFp32Direct);
  auto out = f.output();
  EXPECT_THROW(e->run(f.input, out, nullptr), std::logic_error);
  e->set_filters(f.weights, f.bias);
  EXPECT_THROW(e->calibrate(f.input), std::logic_error);
  EXPECT_THROW(e->finalize_calibration(), std::logic_error);
}

TEST(ConvEngineLifecycle, WeightReloadAfterReadyIsAllowed) {
  const LifecycleFixture f;
  auto e = f.make(EngineKind::kLoWinoF2);
  e->calibrate(f.input);
  e->finalize_calibration();
  e->set_filters(f.weights, f.bias);
  auto out = f.output();
  e->run(f.input, out, nullptr);
  e->set_filters(f.weights, f.bias);  // reload
  EXPECT_EQ(e->lifecycle(), ConvEngine::Lifecycle::kReady);
  e->run(f.input, out, nullptr);
}

// --- Engine identifier parsing ----------------------------------------------

TEST(EngineStrings, TokenAndNameRoundTripForEveryKind) {
  for (const EngineKind kind : all_engine_kinds()) {
    const auto from_token = engine_kind_from_string(engine_token(kind));
    ASSERT_TRUE(from_token.has_value()) << engine_token(kind);
    EXPECT_EQ(*from_token, kind);
    const auto from_name = engine_kind_from_string(engine_name(kind));
    ASSERT_TRUE(from_name.has_value()) << engine_name(kind);
    EXPECT_EQ(*from_name, kind);
  }
}

TEST(EngineStrings, TokensAreCaseAndSeparatorInsensitive) {
  EXPECT_EQ(engine_kind_from_string("LoWino-F4"), EngineKind::kLoWinoF4);
  EXPECT_EQ(engine_kind_from_string("LOWINO_F4"), EngineKind::kLoWinoF4);
  EXPECT_EQ(engine_kind_from_string("int8-direct"), EngineKind::kInt8Direct);
  EXPECT_EQ(engine_kind_from_string("Fp32-Wino-F2"), EngineKind::kFp32WinoF2);
  // The retired pointwise engine's token loads as the engine that absorbed it.
  EXPECT_EQ(engine_kind_from_string("int8_1x1"), EngineKind::kInt8Direct);
  EXPECT_EQ(engine_kind_from_string("INT8-1x1"), EngineKind::kInt8Direct);
}

TEST(EngineStrings, RejectsUnknownIdentifiers) {
  EXPECT_FALSE(engine_kind_from_string("").has_value());
  EXPECT_FALSE(engine_kind_from_string("lowino").has_value());
  EXPECT_FALSE(engine_kind_from_string("lowino_f8").has_value());
  EXPECT_FALSE(engine_kind_from_string("lowino_f4 ").has_value());  // no trailing junk
  EXPECT_FALSE(engine_kind_from_string("banana").has_value());
}

TEST(EngineStrings, AllKindsListedExactlyOnce) {
  const auto kinds = all_engine_kinds();
  EXPECT_EQ(kinds.size(), 12u);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    for (std::size_t j = i + 1; j < kinds.size(); ++j) {
      EXPECT_NE(kinds[i], kinds[j]);
    }
  }
}

}  // namespace
}  // namespace lowino
