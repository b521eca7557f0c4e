// Tests for tensors, the Table-1 blocked layouts, and NCHW packing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "parallel/thread_pool.h"
#include "tensor/conv_desc.h"
#include "tensor/layout.h"
#include "tensor/pack.h"
#include "tensor/tensor.h"

namespace lowino {
namespace {

TEST(Tensor, ShapeAndIndexing) {
  Tensor<float> t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.rank(), 3u);
  t.zero();
  t(1, 2, 3) = 5.0f;
  EXPECT_EQ(t.data()[1 * 12 + 2 * 4 + 3], 5.0f);
  EXPECT_EQ(t(0, 0, 0), 0.0f);
}

TEST(Tensor, CopyIsDeep) {
  Tensor<int> a({4});
  a.fill(7);
  Tensor<int> b = a;
  b(0) = 1;
  EXPECT_EQ(a(0), 7);
  EXPECT_EQ(b(1), 7);
}

TEST(ConvDesc, OutputSizesWithPadding) {
  ConvDesc d;
  d.height = d.width = 14;
  d.kernel = 3;
  d.pad = 1;
  EXPECT_EQ(d.out_height(), 14u);
  EXPECT_EQ(d.out_width(), 14u);
  d.pad = 0;
  EXPECT_EQ(d.out_height(), 12u);
}

// --- Degenerate-shape validation ---------------------------------------------
// out_height()/out_width() compute (extent + 2*pad - kernel) / stride + 1 in
// size_t: a kernel larger than the padded extent wraps to ~2^64 and stride 0
// divides by zero. validate() must reject every such shape before any caller
// reaches that arithmetic. One test per rejected shape class.

ConvDesc small_valid_desc() {
  ConvDesc d;
  d.batch = 1;
  d.in_channels = d.out_channels = 4;
  d.height = d.width = 8;
  d.kernel = 3;
  d.pad = 1;
  return d;
}

TEST(ConvDescValidate, RejectsZeroKernel) {
  ConvDesc d = small_valid_desc();
  d.kernel = 0;
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsZeroStride) {
  ConvDesc d = small_valid_desc();
  d.stride = 0;  // out_height() would divide by zero
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsZeroBatchAndChannels) {
  for (const auto mutate : {+[](ConvDesc& d) { d.batch = 0; },
                            +[](ConvDesc& d) { d.in_channels = 0; },
                            +[](ConvDesc& d) { d.out_channels = 0; }}) {
    ConvDesc d = small_valid_desc();
    mutate(d);
    EXPECT_FALSE(d.is_valid());
    EXPECT_THROW(d.validate(), std::invalid_argument);
  }
}

TEST(ConvDescValidate, RejectsPadNotBelowKernel) {
  ConvDesc d = small_valid_desc();
  d.pad = d.kernel;
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.pad = d.kernel + 3;
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsKernelExceedingPaddedHeight) {
  ConvDesc d = small_valid_desc();
  d.pad = 0;
  d.height = d.kernel - 1;  // out_height() would wrap to ~2^64
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, RejectsKernelExceedingPaddedWidth) {
  ConvDesc d = small_valid_desc();
  d.pad = 0;
  d.width = d.kernel - 1;
  EXPECT_FALSE(d.is_valid());
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(ConvDescValidate, AcceptsBoundaryShapes) {
  // kernel == padded extent: the smallest legal input, a single 1x1 output.
  ConvDesc d = small_valid_desc();
  d.height = d.width = 1;
  d.kernel = 3;
  d.pad = 1;
  EXPECT_TRUE(d.is_valid());
  EXPECT_NO_THROW(d.validate());
  EXPECT_EQ(d.out_height(), 1u);
  EXPECT_EQ(d.out_width(), 1u);
  // 1x1 kernel with zero pad is legal too (pad < kernel holds).
  ConvDesc e = small_valid_desc();
  e.kernel = 1;
  e.pad = 0;
  EXPECT_TRUE(e.is_valid());
  EXPECT_NO_THROW(e.validate());
  EXPECT_EQ(e.out_height(), 8u);
}

TEST(ConvDescValidate, ErrorMessageNamesTheShape) {
  ConvDesc d = small_valid_desc();
  d.stride = 0;
  try {
    d.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stride"), std::string::npos) << e.what();
  }
}

TEST(ConvDesc, ChannelPaddingTo64) {
  ConvDesc d;
  d.in_channels = 1;
  d.out_channels = 100;
  EXPECT_EQ(d.padded_in_channels(), 64u);
  EXPECT_EQ(d.padded_out_channels(), 128u);
  d.in_channels = 256;
  EXPECT_EQ(d.padded_in_channels(), 256u);
}

TEST(WinogradGeometry, TileCounts) {
  ConvDesc d;
  d.batch = 2;
  d.height = d.width = 14;
  d.kernel = 3;
  d.pad = 1;
  const WinogradGeometry g2(d, 2);
  EXPECT_EQ(g2.alpha, 4u);
  EXPECT_EQ(g2.tiles_h, 7u);
  EXPECT_EQ(g2.total_tiles, 2u * 49u);
  EXPECT_EQ(g2.t_elems, 16u);
  const WinogradGeometry g4(d, 4);
  EXPECT_EQ(g4.alpha, 6u);
  EXPECT_EQ(g4.tiles_h, 4u);  // ceil(14/4)
  EXPECT_EQ(g4.t_elems, 36u);
}

TEST(WinogradGeometry, ComplexityReduction) {
  // F(4x4,3x3) reduces MACs by (m*r)^2 / alpha^2 = 144/36 = 4x per output.
  ConvDesc d;
  d.batch = 1;
  d.in_channels = d.out_channels = 64;
  d.height = d.width = 16;
  const WinogradGeometry g(d, 4);
  const double direct = d.direct_macs();
  const double wino = g.winograd_macs(d);
  EXPECT_NEAR(direct / wino, 4.0, 0.01);
}

class LayoutRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(LayoutRoundTrip, PackUnpackNCHW) {
  const auto [b, c, h, w] = GetParam();
  Rng rng(b * 1000 + c * 100 + h * 10 + w);
  Tensor<float> src({static_cast<std::size_t>(b), static_cast<std::size_t>(c),
                     static_cast<std::size_t>(h), static_cast<std::size_t>(w)});
  for (auto& v : src.span()) v = rng.uniform(-1.0f, 1.0f);

  const BlockedActLayout layout(b, c, h, w);
  AlignedBuffer<float> blocked(layout.size());
  pack_nchw_to_blocked(src.span(), b, c, h, w, blocked.span());

  Tensor<float> dst({static_cast<std::size_t>(b), static_cast<std::size_t>(c),
                     static_cast<std::size_t>(h), static_cast<std::size_t>(w)});
  unpack_blocked_to_nchw(blocked.span(), b, c, h, w, dst.span());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(src.data()[i], dst.data()[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LayoutRoundTrip,
                         ::testing::Values(std::make_tuple(1, 64, 4, 4),
                                           std::make_tuple(2, 128, 7, 5),
                                           std::make_tuple(1, 1, 8, 8),
                                           std::make_tuple(3, 100, 3, 3),
                                           std::make_tuple(1, 65, 2, 2),
                                           std::make_tuple(2, 192, 6, 6)));

TEST(BlockedActLayout, PaddingChannelsAreZero) {
  const int b = 1, c = 70, h = 2, w = 2;
  Tensor<float> src({1, 70, 2, 2});
  src.fill(1.0f);
  const BlockedActLayout layout(b, c, h, w);
  AlignedBuffer<float> blocked(layout.size());
  pack_nchw_to_blocked(src.span(), b, c, h, w, blocked.span());
  // channels 70..127 must be zero-filled
  for (std::size_t p = 0; p < 4; ++p) {
    const float* blk = blocked.data() + layout.offset(0, 1, p / 2, p % 2);
    for (std::size_t ci = 0; ci < kChanBlock; ++ci) {
      const std::size_t chan = kChanBlock + ci;
      EXPECT_EQ(blk[ci], chan < 70 ? 1.0f : 0.0f);
    }
  }
}

TEST(PackWithThreadPool, MatchesSerial) {
  ThreadPool pool(4);
  const int b = 2, c = 130, h = 5, w = 7;
  Rng rng(99);
  Tensor<float> src({2, 130, 5, 7});
  for (auto& v : src.span()) v = rng.uniform(-1.0f, 1.0f);
  const BlockedActLayout layout(b, c, h, w);
  AlignedBuffer<float> serial(layout.size()), parallel(layout.size());
  pack_nchw_to_blocked(src.span(), b, c, h, w, serial.span());
  pack_nchw_to_blocked(src.span(), b, c, h, w, parallel.span(), &pool);
  for (std::size_t i = 0; i < layout.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]);
  }
}

// --- Cache-blocked relayout kernels -------------------------------------------

/// Element-at-a-time oracle of the blocked layout (the definition in
/// tensor/layout.h, with padding lanes set to `pad`).
template <typename T>
std::vector<T> reference_blocked(const std::vector<T>& nchw, std::size_t b, std::size_t c,
                                 std::size_t h, std::size_t w, T pad) {
  const BlockedActLayout layout(b, c, h, w);
  std::vector<T> out(layout.size());
  for (std::size_t bi = 0; bi < b; ++bi) {
    for (std::size_t cb = 0; cb < layout.chan_blocks; ++cb) {
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          for (std::size_t ci = 0; ci < kChanBlock; ++ci) {
            const std::size_t ch = cb * kChanBlock + ci;
            out[layout.offset(bi, cb, y, x) + ci] =
                ch < c ? nchw[((bi * c + ch) * h + y) * w + x] : pad;
          }
        }
      }
    }
  }
  return out;
}

/// (batch, channels, height, width): C % 64 != 0 and pixel counts that are
/// not a multiple of the 64-pixel tile or of the 16-pixel transpose.
class Relayout : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

template <typename T>
void check_relayout(std::size_t b, std::size_t c, std::size_t h, std::size_t w, T pad,
                    ThreadPool* pool) {
  Rng rng(b * 7919 + c * 131 + h * 17 + w);
  std::vector<T> src(b * c * h * w);
  for (T& v : src) {
    if constexpr (std::is_same_v<T, float>) {
      v = rng.uniform(-4.0f, 4.0f);
    } else {
      v = static_cast<T>(rng.uniform(0.0f, 255.99f));
    }
  }
  const std::vector<T> want = reference_blocked(src, b, c, h, w, pad);
  std::vector<T> blocked(want.size(), T{7}), back(src.size(), T{9});
  if constexpr (std::is_same_v<T, float>) {
    pack_nchw_to_blocked(src, b, c, h, w, blocked, pool);
    unpack_blocked_to_nchw(blocked, b, c, h, w, back, pool);
  } else {
    pack_nchw_u8_to_blocked(src, b, c, h, w, blocked, pool);
    unpack_blocked_u8_to_nchw(blocked, b, c, h, w, back, pool);
  }
  ASSERT_EQ(0, std::memcmp(blocked.data(), want.data(), want.size() * sizeof(T)))
      << "pack differs from the element-wise layout";
  ASSERT_EQ(0, std::memcmp(back.data(), src.data(), src.size() * sizeof(T)))
      << "unpack(pack(x)) != x";
}

TEST_P(Relayout, F32BitExactWithZeroPadding) {
  const auto [b, c, h, w] = GetParam();
  check_relayout<float>(b, c, h, w, 0.0f, nullptr);
}

TEST_P(Relayout, U8BitExactWith128Padding) {
  const auto [b, c, h, w] = GetParam();
  check_relayout<std::uint8_t>(b, c, h, w, std::uint8_t{128}, nullptr);
}

TEST_P(Relayout, ThreadPoolMatchesSerial) {
  ThreadPool pool(3);
  const auto [b, c, h, w] = GetParam();
  check_relayout<float>(b, c, h, w, 0.0f, &pool);
  check_relayout<std::uint8_t>(b, c, h, w, std::uint8_t{128}, &pool);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Relayout,
                         ::testing::Values(std::make_tuple(1, 48, 9, 9),
                                           std::make_tuple(2, 100, 5, 13),
                                           std::make_tuple(1, 64, 8, 8),
                                           std::make_tuple(2, 130, 17, 3),
                                           std::make_tuple(1, 16, 12, 12),
                                           std::make_tuple(3, 200, 11, 11),
                                           std::make_tuple(2, 96, 16, 16),
                                           std::make_tuple(1, 1, 1, 1)));

TEST(TransformedInputLayout, OffsetsAreUniqueAndInBounds) {
  const TransformedInputLayout l(/*total_tiles=*/10, /*padded_c=*/128, /*t=*/16,
                                 /*nblk=*/4, /*cblk=*/64);
  EXPECT_EQ(l.n_blocks, 3u);
  EXPECT_EQ(l.c_blocks, 2u);
  std::vector<char> seen(l.size(), 0);
  for (std::size_t n = 0; n < 10; ++n) {
    for (std::size_t t = 0; t < 16; ++t) {
      for (std::size_t c = 0; c < 128; ++c) {
        const std::size_t off = l.offset(n, t, c);
        ASSERT_LT(off, l.size());
        ASSERT_EQ(seen[off], 0);
        seen[off] = 1;
      }
    }
  }
}

TEST(TransformedInputLayout, CblkInnermostContiguous) {
  const TransformedInputLayout l(8, 128, 16, 4, 128);
  // consecutive channels of one (n, t) must be adjacent — required for the
  // 64-byte NT stores in the input transform.
  for (std::size_t c = 0; c + 1 < 128; ++c) {
    EXPECT_EQ(l.offset(3, 5, c) + 1, l.offset(3, 5, c + 1));
  }
}

TEST(PackedFilterLayout, VpdpbusdGrouping) {
  const PackedFilterLayout l(/*padded_c=*/64, /*padded_k=*/64, /*t=*/4, /*cblk=*/64,
                             /*kblk=*/64);
  // Within one c4 group, the 4 channel values of output channel k are
  // consecutive bytes — the vpdpbusd operand convention (Figure 1).
  for (std::size_t cr = 0; cr + 1 < 4; ++cr) {
    EXPECT_EQ(l.offset(0, cr, 7) + 1, l.offset(0, cr + 1, 7));
  }
  // Next output channel starts 4 bytes later.
  EXPECT_EQ(l.offset(0, 0, 7) + 4, l.offset(0, 0, 8));
}

TEST(PackedFilterLayout, OffsetsAreUniqueAndInBounds) {
  const PackedFilterLayout l(128, 128, 4, 64, 64);
  std::vector<char> seen(l.size(), 0);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t c = 0; c < 128; ++c) {
      for (std::size_t k = 0; k < 128; ++k) {
        const std::size_t off = l.offset(t, c, k);
        ASSERT_LT(off, l.size());
        ASSERT_EQ(seen[off], 0);
        seen[off] = 1;
      }
    }
  }
}

TEST(TransformedOutputLayout, TileBlockIsConsecutive) {
  const TransformedOutputLayout l(/*padded_k=*/128, /*tiles=*/20, /*t=*/16);
  // For a fixed tile n and k-block, all T x 64 values are consecutive —
  // the property that makes the output transform's reads sequential.
  const std::size_t base = l.offset(5, 0, 64);
  for (std::size_t t = 0; t < 16; ++t) {
    for (std::size_t ki = 0; ki < 64; ++ki) {
      EXPECT_EQ(l.offset(5, t, 64 + ki), base + t * 64 + ki);
    }
  }
}

TEST(TransformedOutputLayout, SixteenLaneGroupsAre64ByteAligned) {
  const TransformedOutputLayout l(256, 33, 36);
  for (std::size_t k = 0; k < 256; k += 16) {
    EXPECT_EQ((l.offset(7, 11, k) * sizeof(std::int32_t)) % 64, 0u);
  }
}

}  // namespace
}  // namespace lowino
