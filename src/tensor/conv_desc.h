// Convolution problem descriptor and Winograd tiling geometry.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/aligned_buffer.h"

namespace lowino {

/// Vector geometry of the low-precision instruction set (Section 4.1):
/// sigma = FP32 lanes per 512-bit vector, phi = 8-bit values per 32-bit word.
inline constexpr std::size_t kSigma = 16;
inline constexpr std::size_t kPhi = 4;
/// Channel block of every blocked activation layout (phi * sigma = 64).
inline constexpr std::size_t kChanBlock = kPhi * kSigma;

/// Prefix-batch argument of the engines' execute entry points: "every image
/// of the batch". Any other value runs only images [0, images) — see
/// ConvDesc::resolve_images.
inline constexpr std::size_t kAllImages = static_cast<std::size_t>(-1);

/// Describes one 2D convolution layer: B x C x H x W input, K filters of
/// r x r, zero padding (optionally different along width), arbitrary stride,
/// optionally grouped (groups = C = depthwise). The Winograd engines only
/// accept unit stride, symmetric padding and groups = 1; the direct engines
/// accept the full ungrouped space; the depthwise engine owns groups = C.
struct ConvDesc {
  /// Sentinel for pad_w: width padding follows the height padding.
  static constexpr std::size_t kPadLikeHeight = static_cast<std::size_t>(-1);

  std::size_t batch = 1;        ///< B
  std::size_t in_channels = 1;  ///< C
  std::size_t out_channels = 1; ///< K
  std::size_t height = 1;       ///< H
  std::size_t width = 1;        ///< W
  std::size_t kernel = 3;       ///< r
  std::size_t pad = 1;          ///< zero padding along height (both sides)
  std::size_t pad_w = kPadLikeHeight;  ///< zero padding along width; sentinel = pad
  std::size_t stride = 1;       ///< only 1 is Winograd-compatible
  std::size_t groups = 1;       ///< grouped conv; groups == C == K is depthwise

  std::size_t height_pad() const { return pad; }
  std::size_t width_pad() const { return pad_w == kPadLikeHeight ? pad : pad_w; }
  /// True when both axes use the same padding (the Winograd engines' domain).
  bool symmetric_padding() const { return width_pad() == pad; }

  /// out_height()/out_width() are only meaningful for descriptors that pass
  /// validate(): `height + 2*pad - kernel` is size_t arithmetic and silently
  /// wraps to a huge value when kernel > height + 2*pad (and stride = 0
  /// divides by zero). Every engine constructor validates first.
  std::size_t out_height() const { return (height + 2 * pad - kernel) / stride + 1; }
  std::size_t out_width() const { return (width + 2 * width_pad() - kernel) / stride + 1; }

  /// True for the depthwise family: every group owns exactly one input
  /// channel (groups == C), K a multiple of C (channel multiplier K/C).
  bool is_depthwise() const { return groups == in_channels && groups > 1; }

  /// Input channels seen by one filter: C / groups.
  std::size_t group_in_channels() const { return in_channels / groups; }

  /// Nothrow structural check; the conditions validate() enforces.
  bool is_valid() const {
    return kernel >= 1 && stride >= 1 && batch >= 1 && in_channels >= 1 &&
           out_channels >= 1 && pad < kernel && width_pad() < kernel &&
           kernel <= height + 2 * pad && kernel <= width + 2 * width_pad() &&
           groups >= 1 && in_channels % groups == 0 && out_channels % groups == 0;
  }

  /// Rejects degenerate shapes before any size arithmetic can wrap. Called
  /// from every engine constructor and make_conv_engine; throws
  /// std::invalid_argument naming the violated constraint.
  void validate() const {
    const auto fail = [this](const char* what) {
      throw std::invalid_argument("ConvDesc [" + to_string() + "]: " + what);
    };
    if (kernel < 1) fail("kernel must be >= 1");
    if (stride < 1) fail("stride must be >= 1");
    if (batch < 1) fail("batch must be >= 1");
    if (in_channels < 1 || out_channels < 1) fail("channels must be >= 1");
    if (pad >= kernel) fail("height pad must be < kernel");
    if (width_pad() >= kernel) fail("width pad must be < kernel");
    if (kernel > height + 2 * pad) fail("kernel exceeds padded height");
    if (kernel > width + 2 * width_pad()) fail("kernel exceeds padded width");
    if (groups < 1) fail("groups must be >= 1");
    if (in_channels % groups != 0) fail("in_channels must be divisible by groups");
    if (out_channels % groups != 0) fail("out_channels must be divisible by groups");
  }

  /// The image count of a prefix-batch run: `batch` for kAllImages,
  /// otherwise `images` itself, which must lie in [1, batch] (throws
  /// std::invalid_argument). A prefix run computes images [0, images) exactly
  /// as a whole-batch run would — every op is per-image independent — and
  /// leaves the outputs of the later images unspecified.
  std::size_t resolve_images(std::size_t images) const {
    if (images == kAllImages) return batch;
    if (images < 1 || images > batch) {
      throw std::invalid_argument("ConvDesc [" + to_string() + "]: a prefix run needs 1 <= " +
                                  "images <= batch, got " + std::to_string(images));
    }
    return images;
  }

  /// Engines without grouped-convolution support call this right after
  /// validate(); throws std::invalid_argument naming the engine so the
  /// capability-gating contract (reject before any allocation) holds.
  void require_ungrouped(const char* engine) const {
    if (groups != 1) {
      throw std::invalid_argument(std::string(engine) +
                                  " does not support grouped convolution [" +
                                  to_string() + "]");
    }
  }

  /// Channels rounded up to the 64-channel block of the blocked layouts.
  std::size_t padded_in_channels() const { return round_up(in_channels, kChanBlock); }
  std::size_t padded_out_channels() const { return round_up(out_channels, kChanBlock); }

  /// MAC count of the direct algorithm (for GOPS reporting). Each output
  /// channel only sees its group's C/groups input channels.
  double direct_macs() const {
    return static_cast<double>(batch) * static_cast<double>(out_channels) *
           static_cast<double>(in_channels / groups) * static_cast<double>(out_height()) *
           static_cast<double>(out_width()) * static_cast<double>(kernel * kernel);
  }

  /// Stride, width-pad and groups tokens are appended only when they differ
  /// from the historical defaults (unit stride, symmetric pad, ungrouped):
  /// this string doubles as a tuner/wisdom cache key and a plan-file field,
  /// and the classic shapes must keep their exact pre-existing spelling.
  std::string to_string() const {
    std::string s = "B" + std::to_string(batch) + " C" + std::to_string(in_channels) +
                    " K" + std::to_string(out_channels) + " H" + std::to_string(height) +
                    " W" + std::to_string(width) + " r" + std::to_string(kernel);
    if (!symmetric_padding()) s += " pw" + std::to_string(width_pad());
    if (stride != 1) s += " s" + std::to_string(stride);
    if (groups != 1) s += " g" + std::to_string(groups);
    return s;
  }
};

/// Winograd tiling of a ConvDesc for F(m x m, r x r).
struct WinogradGeometry {
  std::size_t m = 0;       ///< output tile size
  std::size_t r = 0;       ///< filter size
  std::size_t alpha = 0;   ///< input tile size m + r - 1
  std::size_t tiles_h = 0; ///< tiles along output height
  std::size_t tiles_w = 0; ///< tiles along output width
  std::size_t tiles_per_image = 0;
  std::size_t total_tiles = 0; ///< N in the paper: batch * tiles_per_image
  std::size_t t_elems = 0;     ///< T = alpha^2, matrices in the batched GEMM

  WinogradGeometry() = default;
  WinogradGeometry(const ConvDesc& desc, std::size_t m_) {
    m = m_;
    r = desc.kernel;
    alpha = m + r - 1;
    tiles_h = ceil_div(desc.out_height(), m);
    tiles_w = ceil_div(desc.out_width(), m);
    tiles_per_image = tiles_h * tiles_w;
    total_tiles = desc.batch * tiles_per_image;
    t_elems = alpha * alpha;
  }

  /// MAC count of the Winograd algorithm's batched GEMM.
  double winograd_macs(const ConvDesc& desc) const {
    return static_cast<double>(t_elems) * static_cast<double>(total_tiles) *
           static_cast<double>(desc.padded_in_channels()) *
           static_cast<double>(desc.padded_out_channels());
  }
};

}  // namespace lowino
