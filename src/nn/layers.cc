#include "nn/layers.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "direct/direct_f32.h"
#include "gemm/fp32_gemm.h"

namespace lowino {
namespace {

void sgd_update(std::vector<float>& param, std::vector<float>& grad, std::vector<float>& mom,
                float lr, float momentum) {
  for (std::size_t i = 0; i < param.size(); ++i) {
    mom[i] = momentum * mom[i] + grad[i];
    param[i] -= lr * mom[i];
    grad[i] = 0.0f;
  }
}

/// Scatter-adds an im2col gradient back onto the input image (inverse of
/// im2col_f32, accumulating where patches overlap).
void col2im_add(const ConvDesc& desc, const float* col, float* grad_in) {
  const std::size_t C = desc.in_channels, H = desc.height, W = desc.width;
  const std::size_t r = desc.kernel, pad = desc.pad;
  const std::size_t OH = desc.out_height(), OW = desc.out_width();
  const std::size_t patch = C * r * r;
  for (std::size_t oh = 0; oh < OH; ++oh) {
    for (std::size_t ow = 0; ow < OW; ++ow) {
      const float* row = col + (oh * OW + ow) * patch;
      std::size_t idx = 0;
      for (std::size_t c = 0; c < C; ++c) {
        for (std::size_t i = 0; i < r; ++i) {
          const std::ptrdiff_t ih =
              static_cast<std::ptrdiff_t>(oh + i) - static_cast<std::ptrdiff_t>(pad);
          for (std::size_t j = 0; j < r; ++j) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow + j) - static_cast<std::ptrdiff_t>(pad);
            const bool oob = ih < 0 || ih >= static_cast<std::ptrdiff_t>(H) || iw < 0 ||
                             iw >= static_cast<std::ptrdiff_t>(W);
            if (!oob) grad_in[(c * H + ih) * W + iw] += row[idx];
            ++idx;
          }
        }
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ConvLayer
ConvLayer::ConvLayer(std::size_t in_channels, std::size_t out_channels, std::size_t hw,
                     std::size_t kernel, std::size_t pad, Rng& rng, std::size_t groups)
    : c_(in_channels), k_(out_channels), hw_(hw), r_(kernel), pad_(pad), groups_(groups) {
  if (groups_ < 1 || c_ % groups_ != 0 || k_ % groups_ != 0) {
    throw std::invalid_argument("ConvLayer: channels must be divisible by groups");
  }
  const std::size_t cg = c_ / groups_;  // input channels per filter
  const std::size_t n = k_ * cg * r_ * r_;
  weights_.resize(n);
  bias_.assign(k_, 0.0f);
  grad_w_.assign(n, 0.0f);
  grad_b_.assign(k_, 0.0f);
  mom_w_.assign(n, 0.0f);
  mom_b_.assign(k_, 0.0f);
  const float stddev = std::sqrt(2.0f / static_cast<float>(cg * r_ * r_));  // He init
  for (auto& w : weights_) w = rng.normal() * stddev;
}

std::string ConvLayer::name() const {
  const std::string base = "conv" + std::to_string(r_) + "x" + std::to_string(r_) + "(" +
                           std::to_string(c_) + "->" + std::to_string(k_);
  if (groups_ == 1) return base + ")";
  if (groups_ == c_) return "dw" + base + ")";
  return base + ",g=" + std::to_string(groups_) + ")";
}

ConvDesc ConvLayer::desc_for_batch(std::size_t batch) const {
  ConvDesc d;
  d.batch = batch;
  d.in_channels = c_;
  d.out_channels = k_;
  d.height = d.width = hw_;
  d.kernel = r_;
  d.pad = pad_;
  d.groups = groups_;
  return d;
}

void ConvLayer::forward(const Tensor<float>& in, Tensor<float>& out, bool train) {
  const std::size_t batch = in.dim(0);
  const ConvDesc d = desc_for_batch(batch);
  out.reshape({batch, k_, d.out_height(), d.out_width()});
  if (train) cached_in_ = in;
  // A training forward keeps the whole batch's im2col: backward() reads it.
  conv_f32_forward(d, in.span(), weights_, bias_, out.span(), scratch_, {}, /*keep_col=*/train);
}

void ConvLayer::forward_fp32(std::span<const float> in, std::span<float> out,
                             std::size_t batch) {
  conv_f32_forward(desc_for_batch(batch), in, weights_, bias_, out, scratch_);
}

void ConvLayer::backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) {
  const std::size_t batch = grad_out.dim(0);
  const ConvDesc d = desc_for_batch(batch);
  const std::size_t rows = d.out_height() * d.out_width();
  grad_in.reshape(cached_in_.shape());
  grad_in.zero();
  if (groups_ != 1) {
    // Direct-loop gradients, mirroring the grouped forward (no im2col cache).
    const std::size_t cg = c_ / groups_, kg = k_ / groups_;
    const std::size_t patch_g = cg * r_ * r_;
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t k = 0; k < k_; ++k) {
        const std::size_t c0 = (k / kg) * cg;
        const float* g_plane = grad_out.data() + (b * k_ + k) * rows;
        for (std::size_t oh = 0; oh < d.out_height(); ++oh) {
          for (std::size_t ow = 0; ow < d.out_width(); ++ow) {
            const float g = g_plane[oh * d.out_width() + ow];
            grad_b_[k] += g;
            for (std::size_t ci = 0; ci < cg; ++ci) {
              const float* src = cached_in_.data() + ((b * c_ + c0 + ci) * hw_) * hw_;
              float* gin = grad_in.data() + ((b * c_ + c0 + ci) * hw_) * hw_;
              float* gw = grad_w_.data() + k * patch_g + ci * r_ * r_;
              const float* w = weights_.data() + k * patch_g + ci * r_ * r_;
              for (std::size_t i = 0; i < r_; ++i) {
                const std::ptrdiff_t ih =
                    static_cast<std::ptrdiff_t>(oh + i) - static_cast<std::ptrdiff_t>(pad_);
                if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(hw_)) continue;
                for (std::size_t j = 0; j < r_; ++j) {
                  const std::ptrdiff_t iw =
                      static_cast<std::ptrdiff_t>(ow + j) - static_cast<std::ptrdiff_t>(pad_);
                  if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(hw_)) continue;
                  const std::size_t at = ih * hw_ + iw;
                  gw[i * r_ + j] += g * src[at];
                  gin[at] += g * w[i * r_ + j];
                }
              }
            }
          }
        }
      }
    }
    return;
  }
  const std::size_t patch = c_ * r_ * r_;

  std::vector<float> tmp_w(k_ * patch);
  std::vector<float> g_rows(rows * k_);
  std::vector<float> col_grad(rows * patch);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* col_b = scratch_.col.data() + b * rows * patch;
    const float* g_b = grad_out.data() + b * k_ * rows;  // K x rows

    // grad_w += G_b (K x rows) x col_b (rows x patch)
    fp32_gemm(g_b, rows, col_b, patch, tmp_w.data(), patch, k_, rows, patch);
    for (std::size_t i = 0; i < tmp_w.size(); ++i) grad_w_[i] += tmp_w[i];
    // grad_b += row sums
    for (std::size_t k = 0; k < k_; ++k) {
      float s = 0.0f;
      for (std::size_t p = 0; p < rows; ++p) s += g_b[k * rows + p];
      grad_b_[k] += s;
    }
    // grad_in: col_grad (rows x patch) = G_b^T (rows x K) x W (K x patch)
    for (std::size_t k = 0; k < k_; ++k) {
      for (std::size_t p = 0; p < rows; ++p) g_rows[p * k_ + k] = g_b[k * rows + p];
    }
    fp32_gemm(g_rows.data(), k_, weights_.data(), patch, col_grad.data(), patch, rows, k_,
              patch);
    col2im_add(d, col_grad.data(), grad_in.data() + b * c_ * hw_ * hw_);
  }
}

void ConvLayer::update(float lr, float momentum) {
  sgd_update(weights_, grad_w_, mom_w_, lr, momentum);
  sgd_update(bias_, grad_b_, mom_b_, lr, momentum);
}

// ---------------------------------------------------------------------------
// ReluLayer
void ReluLayer::forward(const Tensor<float>& in, Tensor<float>& out, bool train) {
  out.reshape(in.shape());
  const std::size_t n = in.size();
  if (train) mask_.assign(n, 0);
  const float* src = in.data();
  float* dst = out.data();
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = src[i] > 0.0f;
    dst[i] = pos ? src[i] : 0.0f;
    if (train) mask_[i] = pos ? 1 : 0;
  }
}

void ReluLayer::backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) {
  grad_in.reshape(grad_out.shape());
  const float* g = grad_out.data();
  float* d = grad_in.data();
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    d[i] = mask_[i] != 0 ? g[i] : 0.0f;
  }
}

// ---------------------------------------------------------------------------
// MaxPoolLayer
MaxPoolLayer::MaxPoolLayer(std::size_t channels, std::size_t hw) : c_(channels), hw_(hw) {
  if (hw % 2 != 0) throw std::invalid_argument("maxpool needs even spatial size");
}

void MaxPoolLayer::forward(const Tensor<float>& in, Tensor<float>& out, bool train) {
  const std::size_t batch = in.dim(0);
  const std::size_t oh = hw_ / 2;
  out.reshape({batch, c_, oh, oh});
  if (train) argmax_.assign(out.size(), 0);
  for (std::size_t bc = 0; bc < batch * c_; ++bc) {
    const float* src = in.data() + bc * hw_ * hw_;
    float* dst = out.data() + bc * oh * oh;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < oh; ++x) {
        std::size_t best = (2 * y) * hw_ + 2 * x;
        for (std::size_t dy = 0; dy < 2; ++dy) {
          for (std::size_t dx = 0; dx < 2; ++dx) {
            const std::size_t idx = (2 * y + dy) * hw_ + 2 * x + dx;
            if (src[idx] > src[best]) best = idx;
          }
        }
        dst[y * oh + x] = src[best];
        if (train) argmax_[bc * oh * oh + y * oh + x] = static_cast<std::uint32_t>(best);
      }
    }
  }
}

void MaxPoolLayer::backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) {
  const std::size_t batch = grad_out.dim(0);
  const std::size_t oh = hw_ / 2;
  grad_in.reshape({batch, c_, hw_, hw_});
  grad_in.zero();
  for (std::size_t bc = 0; bc < batch * c_; ++bc) {
    const float* g = grad_out.data() + bc * oh * oh;
    float* d = grad_in.data() + bc * hw_ * hw_;
    for (std::size_t i = 0; i < oh * oh; ++i) {
      d[argmax_[bc * oh * oh + i]] += g[i];
    }
  }
}

// ---------------------------------------------------------------------------
// DenseLayer
DenseLayer::DenseLayer(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_f_(in_features), out_f_(out_features) {
  w_.resize(in_f_ * out_f_);  // row-major in x out
  b_.assign(out_f_, 0.0f);
  grad_w_.assign(w_.size(), 0.0f);
  grad_b_.assign(out_f_, 0.0f);
  mom_w_.assign(w_.size(), 0.0f);
  mom_b_.assign(out_f_, 0.0f);
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_f_));
  for (auto& w : w_) w = rng.normal() * stddev;
}

std::string DenseLayer::name() const {
  return "dense(" + std::to_string(in_f_) + "->" + std::to_string(out_f_) + ")";
}

void DenseLayer::forward(const Tensor<float>& in, Tensor<float>& out, bool train) {
  const std::size_t batch = in.dim(0);
  assert(in.size() == batch * in_f_);
  out.reshape({batch, out_f_});
  if (train) cached_in_ = in;
  fp32_gemm(in.data(), in_f_, w_.data(), out_f_, out.data(), out_f_, batch, in_f_, out_f_);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_f_; ++o) out(b, o) += b_[o];
  }
}

void DenseLayer::backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) {
  const std::size_t batch = grad_out.dim(0);
  grad_in.reshape(cached_in_.shape());
  // grad_w += in^T x grad_out; grad_b += column sums; grad_in = grad_out x w^T.
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = cached_in_.data() + b * in_f_;
    const float* g = grad_out.data() + b * out_f_;
    for (std::size_t o = 0; o < out_f_; ++o) grad_b_[o] += g[o];
    for (std::size_t i = 0; i < in_f_; ++i) {
      const float xi = x[i];
      float acc = 0.0f;
      float* gw = grad_w_.data() + i * out_f_;
      const float* wrow = w_.data() + i * out_f_;
      for (std::size_t o = 0; o < out_f_; ++o) {
        gw[o] += xi * g[o];
        acc += wrow[o] * g[o];
      }
      grad_in.data()[b * in_f_ + i] = acc;
    }
  }
}

void DenseLayer::update(float lr, float momentum) {
  sgd_update(w_, grad_w_, mom_w_, lr, momentum);
  sgd_update(b_, grad_b_, mom_b_, lr, momentum);
}

// ---------------------------------------------------------------------------
// ResidualBlock
ResidualBlock::ResidualBlock(std::size_t channels, std::size_t hw, Rng& rng)
    : conv1_(channels, channels, hw, 3, 1, rng), conv2_(channels, channels, hw, 3, 1, rng) {}

void ResidualBlock::forward(const Tensor<float>& in, Tensor<float>& out, bool train) {
  conv1_.forward(in, mid_, train);
  relu_mid_.forward(mid_, mid_act_, train);
  conv2_.forward(mid_act_, f_out_, train);
  out.reshape(in.shape());
  const std::size_t n = in.size();
  if (train) out_mask_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const float v = in.data()[i] + f_out_.data()[i];
    const bool pos = v > 0.0f;
    out.data()[i] = pos ? v : 0.0f;
    if (train) out_mask_[i] = pos ? 1 : 0;
  }
}

void ResidualBlock::backward(const Tensor<float>& grad_out, Tensor<float>& grad_in) {
  const std::size_t n = grad_out.size();
  g_f_.reshape(grad_out.shape());
  for (std::size_t i = 0; i < n; ++i) {
    g_f_.data()[i] = out_mask_[i] != 0 ? grad_out.data()[i] : 0.0f;
  }
  conv2_.backward(g_f_, g_mid_act_);
  relu_mid_.backward(g_mid_act_, g_mid_);
  conv1_.backward(g_mid_, grad_in);
  // skip connection
  for (std::size_t i = 0; i < n; ++i) grad_in.data()[i] += g_f_.data()[i];
}

void ResidualBlock::update(float lr, float momentum) {
  conv1_.update(lr, momentum);
  conv2_.update(lr, momentum);
}

}  // namespace lowino
