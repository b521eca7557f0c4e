// Tests for the VNNI microkernels and blocked GEMMs against scalar references.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "gemm/fp32_gemm.h"
#include "gemm/int16_gemm.h"
#include "gemm/int8_gemm.h"
#include "gemm/reference.h"
#include "gemm/vnni_kernels.h"
#include "parallel/thread_pool.h"
#include "tensor/layout.h"

namespace lowino {
namespace {

void fill_random_u8(Rng& rng, std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(rng.next_below(256));
}
void fill_random_s8(Rng& rng, std::int8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::int8_t>(static_cast<int>(rng.next_below(256)) - 128);
  }
}

// ---------------------------------------------------------------------------
// Microkernels: every (row_blk, col_blk) combination vs the scalar oracle.
class MicrokernelCombo : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MicrokernelCombo, MatchesScalarOracle) {
  const auto [row_blk, col_blk] = GetParam();
  ASSERT_TRUE(microkernel_combo_supported(row_blk, col_blk));
  MicroKernelFn fn = get_vnni_microkernel(row_blk, col_blk);
  if (fn == nullptr) GTEST_SKIP() << "no VNNI on this host";

  const std::size_t c4_count = 24;  // 96 channels
  const std::size_t kcols = static_cast<std::size_t>(col_blk) * 16;
  Rng rng(row_blk * 100 + col_blk);

  AlignedBuffer<std::uint8_t> v(static_cast<std::size_t>(row_blk) * c4_count * 4);
  AlignedBuffer<std::int8_t> u(c4_count * kcols * 4);
  AlignedBuffer<std::int32_t> acc_vec(static_cast<std::size_t>(row_blk) * kcols);
  AlignedBuffer<std::int32_t> acc_ref(static_cast<std::size_t>(row_blk) * kcols);
  fill_random_u8(rng, v.data(), v.size());
  fill_random_s8(rng, u.data(), u.size());
  for (std::size_t i = 0; i < acc_vec.size(); ++i) {
    acc_vec[i] = acc_ref[i] = static_cast<std::int32_t>(rng.next_below(1000)) - 500;
  }

  MicroKernelArgs args;
  args.v = v.data();
  args.v_stride = c4_count * 4;
  args.u = u.data();
  args.u_stride = kcols * 4;
  args.acc = acc_vec.data();
  args.acc_stride = kcols;
  args.c4_count = c4_count;
  fn(args);

  args.acc = acc_ref.data();
  scalar_microkernel(args, row_blk, col_blk);

  for (std::size_t i = 0; i < acc_vec.size(); ++i) {
    ASSERT_EQ(acc_vec[i], acc_ref[i]) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, MicrokernelCombo,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(4, 1), std::make_tuple(16, 1),
                      std::make_tuple(2, 2), std::make_tuple(14, 2), std::make_tuple(8, 3),
                      std::make_tuple(1, 4), std::make_tuple(4, 4), std::make_tuple(6, 4),
                      std::make_tuple(4, 6), std::make_tuple(2, 8)));

TEST(Microkernel, RegisterBudgetEnforced) {
  // Combinations that would blow the 32-register budget are not in the table.
  EXPECT_FALSE(microkernel_combo_supported(8, 4));
  EXPECT_FALSE(microkernel_combo_supported(4, 8));
  EXPECT_FALSE(microkernel_combo_supported(30, 1));
}

TEST(Microkernel, PrefetchPointerDoesNotChangeResult) {
  MicroKernelFn fn = get_vnni_microkernel(4, 2);
  if (fn == nullptr) GTEST_SKIP();
  Rng rng(5);
  const std::size_t c4 = 8, kcols = 32;
  AlignedBuffer<std::uint8_t> v(4 * c4 * 4);
  AlignedBuffer<std::int8_t> u(c4 * kcols * 4);
  AlignedBuffer<std::int32_t> a1(4 * kcols), a2(4 * kcols);
  fill_random_u8(rng, v.data(), v.size());
  fill_random_s8(rng, u.data(), u.size());
  a1.fill_zero();
  a2.fill_zero();
  MicroKernelArgs args{v.data(), c4 * 4, u.data(), kcols * 4, a1.data(), kcols, c4, nullptr};
  fn(args);
  args.acc = a2.data();
  args.v_prefetch = v.data();
  fn(args);
  for (std::size_t i = 0; i < a1.size(); ++i) ASSERT_EQ(a1[i], a2[i]);
}

// ---------------------------------------------------------------------------
// Packed single GEMM.
class PackedGemmShape : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PackedGemmShape, MatchesReference) {
  const auto [n, cdim, k] = GetParam();
  Rng rng(n * 7 + cdim * 3 + k);
  AlignedBuffer<std::uint8_t> a(static_cast<std::size_t>(n) * cdim);
  AlignedBuffer<std::int8_t> b(static_cast<std::size_t>(cdim) * k);
  fill_random_u8(rng, a.data(), a.size());
  fill_random_s8(rng, b.data(), b.size());

  AlignedBuffer<std::int8_t> b_packed((round_up(cdim, 4) / 4) * round_up(k, 16) * 4);
  pack_b_vpdpbusd(b.data(), cdim, k, b_packed.data());

  AlignedBuffer<std::int32_t> got(static_cast<std::size_t>(n) * round_up(k, 16));
  Int8GemmBlocking blk;
  int8_gemm_packed(a.data(), cdim, b_packed.data(), nullptr, got.data(), round_up(k, 16), n,
                   cdim, round_up(k, 16), blk);

  std::vector<std::int32_t> want(static_cast<std::size_t>(n) * k);
  ref_gemm_u8s8(a.span(), b.span(), want, n, cdim, k);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      ASSERT_EQ(got[i * round_up(k, 16) + j], want[i * k + j]) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PackedGemmShape,
                         ::testing::Values(std::make_tuple(1, 4, 16),
                                           std::make_tuple(6, 64, 64),
                                           std::make_tuple(7, 64, 64),    // row tail
                                           std::make_tuple(13, 32, 128),  // row tail
                                           std::make_tuple(96, 128, 64),
                                           std::make_tuple(33, 36, 48),
                                           std::make_tuple(64, 256, 192)));

TEST(PackedGemm, CompensationRecoversSignedResult) {
  // The full Eq. 9 property: computing with shifted V' = V + 128 and
  // comp = -128 * colsum(U) equals the signed product V x U.
  const std::size_t n = 8, cdim = 64, k = 32;
  Rng rng(77);
  std::vector<std::int8_t> v_signed(n * cdim);
  AlignedBuffer<std::int8_t> b(cdim * k);
  fill_random_s8(rng, v_signed.data(), v_signed.size());
  fill_random_s8(rng, b.data(), b.size());

  AlignedBuffer<std::uint8_t> v_shifted(n * cdim);
  for (std::size_t i = 0; i < v_signed.size(); ++i) {
    v_shifted[i] = static_cast<std::uint8_t>(static_cast<int>(v_signed[i]) + 128);
  }

  AlignedBuffer<std::int8_t> b_packed((cdim / 4) * k * 4);
  pack_b_vpdpbusd(b.data(), cdim, k, b_packed.data());
  AlignedBuffer<std::int32_t> comp(k);
  compute_compensation(b.data(), cdim, k, comp.data());

  AlignedBuffer<std::int32_t> got(n * k);
  Int8GemmBlocking blk;
  int8_gemm_packed(v_shifted.data(), cdim, b_packed.data(), comp.data(), got.data(), k, n,
                   cdim, k, blk);

  // Signed reference: sum_c v_signed * b.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      std::int32_t want = 0;
      for (std::size_t l = 0; l < cdim; ++l) {
        want += static_cast<std::int32_t>(v_signed[i * cdim + l]) *
                static_cast<std::int32_t>(b[l * k + j]);
      }
      ASSERT_EQ(got[i * k + j], want);
    }
  }
}

TEST(PackedGemm, ParallelMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 50, cdim = 64, k = 64;
  Rng rng(8);
  AlignedBuffer<std::uint8_t> a(n * cdim);
  AlignedBuffer<std::int8_t> b(cdim * k);
  fill_random_u8(rng, a.data(), a.size());
  fill_random_s8(rng, b.data(), b.size());
  AlignedBuffer<std::int8_t> bp((cdim / 4) * k * 4);
  pack_b_vpdpbusd(b.data(), cdim, k, bp.data());
  AlignedBuffer<std::int32_t> serial(n * k), parallel(n * k);
  Int8GemmBlocking blk;
  int8_gemm_packed(a.data(), cdim, bp.data(), nullptr, serial.data(), k, n, cdim, k, blk);
  int8_gemm_packed(a.data(), cdim, bp.data(), nullptr, parallel.data(), k, n, cdim, k, blk,
                   &pool);
  for (std::size_t i = 0; i < serial.size(); ++i) ASSERT_EQ(serial[i], parallel[i]);
}

// ---------------------------------------------------------------------------
// Batched GEMM through the blocked layouts.
struct BatchedCase {
  std::size_t tiles, channels, filters, t_elems;
  Int8GemmBlocking blocking;
};

class BatchedGemm : public ::testing::TestWithParam<BatchedCase> {};

TEST_P(BatchedGemm, MatchesReferencePerT) {
  const BatchedCase& tc = GetParam();
  ASSERT_TRUE(tc.blocking.valid()) << tc.blocking.to_string();

  const std::size_t n_pad = round_up(tc.tiles, tc.blocking.n_blk);
  const TransformedInputLayout vl(tc.tiles, tc.channels, tc.t_elems, tc.blocking.n_blk,
                                  tc.blocking.c_blk);
  const PackedFilterLayout ul(tc.channels, tc.filters, tc.t_elems, tc.blocking.c_blk,
                              tc.blocking.k_blk);
  const TransformedOutputLayout zl(tc.filters, n_pad, tc.t_elems);

  Rng rng(tc.tiles + tc.channels + tc.filters);
  AlignedBuffer<std::uint8_t> v(vl.size());
  AlignedBuffer<std::int8_t> u(ul.size());
  v.fill_zero();
  u.fill_zero();
  // Dense row-major shadows for the reference.
  std::vector<std::uint8_t> v_ref(tc.tiles * tc.channels);
  std::vector<std::int8_t> u_ref(tc.t_elems * tc.channels * tc.filters);
  for (std::size_t t = 0; t < tc.t_elems; ++t) {
    for (std::size_t c = 0; c < tc.channels; ++c) {
      for (std::size_t k = 0; k < tc.filters; ++k) {
        const std::int8_t val =
            static_cast<std::int8_t>(static_cast<int>(rng.next_below(256)) - 128);
        u_ref[(t * tc.channels + c) * tc.filters + k] = val;
        u[ul.offset(t, c, k)] = val;
      }
    }
  }
  for (std::size_t n = 0; n < tc.tiles; ++n) {
    for (std::size_t c = 0; c < tc.channels; ++c) {
      const std::uint8_t val = static_cast<std::uint8_t>(rng.next_below(256));
      v_ref[n * tc.channels + c] = val;
      for (std::size_t t = 0; t < tc.t_elems; ++t) {
        // same value for every t keeps the reference cheap
        v[vl.offset(n, t, c)] = val;
      }
    }
  }

  const std::size_t k_padded = ul.k_blocks * ul.k_blk;
  AlignedBuffer<std::int32_t> comp(tc.t_elems * k_padded);
  for (std::size_t i = 0; i < comp.size(); ++i) {
    comp[i] = static_cast<std::int32_t>(rng.next_below(100)) - 50;
  }

  AlignedBuffer<std::int32_t> z(zl.size());
  z.fill_zero();
  batched_int8_gemm(vl, v.data(), ul, u.data(), comp.data(), zl, z.data(), tc.blocking);

  std::vector<std::int32_t> want(tc.tiles * tc.filters);
  for (std::size_t t = 0; t < tc.t_elems; ++t) {
    ref_gemm_u8s8(v_ref, std::span<const std::int8_t>(u_ref).subspan(
                             t * tc.channels * tc.filters, tc.channels * tc.filters),
                  want, tc.tiles, tc.channels, tc.filters);
    for (std::size_t n = 0; n < tc.tiles; ++n) {
      for (std::size_t k = 0; k < tc.filters; ++k) {
        const std::int32_t expected =
            want[n * tc.filters + k] + comp[t * k_padded + k];
        ASSERT_EQ(z[zl.offset(n, t, k)], expected)
            << "t=" << t << " n=" << n << " k=" << k;
      }
    }
  }
}

Int8GemmBlocking mk_blk(std::size_t nb, std::size_t cb, std::size_t kb, int r, int c,
                        bool nt = true, bool pf = true) {
  Int8GemmBlocking b;
  b.n_blk = nb;
  b.c_blk = cb;
  b.k_blk = kb;
  b.row_blk = r;
  b.col_blk = c;
  b.nt_store = nt;
  b.prefetch = pf;
  return b;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BatchedGemm,
    ::testing::Values(
        BatchedCase{16, 64, 64, 16, mk_blk(8, 64, 64, 4, 4)},
        BatchedCase{100, 128, 64, 16, mk_blk(24, 64, 64, 6, 4)},   // tile padding
        BatchedCase{33, 64, 128, 36, mk_blk(12, 64, 64, 6, 2)},    // multi k-block
        BatchedCase{64, 192, 64, 4, mk_blk(16, 64, 64, 4, 4)},     // 3 channel blocks
        BatchedCase{48, 128, 128, 4, mk_blk(48, 128, 128, 6, 4)},  // single big block
        BatchedCase{20, 64, 64, 16, mk_blk(8, 64, 64, 4, 4, false, false)},  // no NT/pf
        BatchedCase{17, 64, 64, 9, mk_blk(16, 64, 32, 8, 2)}));

TEST(BatchedGemmParallel, MatchesSerial) {
  ThreadPool pool(4);
  const BatchedCase tc{40, 128, 128, 16, mk_blk(16, 64, 64, 4, 4)};
  const std::size_t n_pad = round_up(tc.tiles, tc.blocking.n_blk);
  const TransformedInputLayout vl(tc.tiles, tc.channels, tc.t_elems, tc.blocking.n_blk,
                                  tc.blocking.c_blk);
  const PackedFilterLayout ul(tc.channels, tc.filters, tc.t_elems, tc.blocking.c_blk,
                              tc.blocking.k_blk);
  const TransformedOutputLayout zl(tc.filters, n_pad, tc.t_elems);
  Rng rng(1234);
  AlignedBuffer<std::uint8_t> v(vl.size());
  AlignedBuffer<std::int8_t> u(ul.size());
  fill_random_u8(rng, v.data(), v.size());
  fill_random_s8(rng, u.data(), u.size());
  const std::size_t k_padded = ul.k_blocks * ul.k_blk;
  AlignedBuffer<std::int32_t> comp(tc.t_elems * k_padded);
  comp.fill_zero();
  AlignedBuffer<std::int32_t> z1(zl.size()), z2(zl.size());
  z1.fill_zero();
  z2.fill_zero();
  batched_int8_gemm(vl, v.data(), ul, u.data(), comp.data(), zl, z1.data(), tc.blocking);
  batched_int8_gemm(vl, v.data(), ul, u.data(), comp.data(), zl, z2.data(), tc.blocking,
                    &pool);
  for (std::size_t n = 0; n < tc.tiles; ++n) {
    for (std::size_t t = 0; t < tc.t_elems; ++t) {
      for (std::size_t k = 0; k < tc.filters; ++k) {
        ASSERT_EQ(z1[zl.offset(n, t, k)], z2[zl.offset(n, t, k)]);
      }
    }
  }
}

TEST(Int8GemmBlocking, ValidationRules) {
  EXPECT_TRUE(mk_blk(96, 512, 64, 6, 4).valid());
  EXPECT_FALSE(mk_blk(95, 512, 64, 6, 4).valid());   // n_blk % row_blk
  EXPECT_FALSE(mk_blk(96, 100, 64, 6, 4).valid());   // c_blk % 64
  EXPECT_FALSE(mk_blk(96, 512, 60, 6, 4).valid());   // k_blk % (col*16)
  EXPECT_FALSE(mk_blk(96, 512, 1024, 6, 4).valid()); // cache bound 512*1024 > 512^2
  EXPECT_FALSE(mk_blk(96, 512, 64, 8, 4).valid());   // register budget
}

// ---------------------------------------------------------------------------
// FP32 GEMM.
class Fp32GemmShape : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Fp32GemmShape, MatchesReference) {
  const auto [n, cdim, k] = GetParam();
  Rng rng(n + cdim + k);
  std::vector<float> a(static_cast<std::size_t>(n) * cdim), b(static_cast<std::size_t>(cdim) * k);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> got(static_cast<std::size_t>(n) * k), want(static_cast<std::size_t>(n) * k);
  fp32_gemm(a.data(), cdim, b.data(), k, got.data(), k, n, cdim, k);
  ref_gemm_f32(a, b, want, n, cdim, k);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], 1e-3f) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fp32GemmShape,
                         ::testing::Values(std::make_tuple(1, 8, 16), std::make_tuple(6, 64, 64),
                                           std::make_tuple(13, 27, 48),
                                           std::make_tuple(25, 32, 80),
                                           std::make_tuple(10, 16, 10),  // k not multiple of 16
                                           std::make_tuple(64, 128, 96),
                                           // Masked k tails, with row counts
                                           // that are not multiples of 6.
                                           std::make_tuple(7, 33, 1), std::make_tuple(5, 19, 10),
                                           std::make_tuple(13, 8, 15),
                                           std::make_tuple(11, 40, 17),
                                           std::make_tuple(17, 64, 31),
                                           std::make_tuple(16, 8192, 10)));  // a dense head

TEST(Fp32Gemm, TailColumnsMatchAPaddedFullGroupBitForBit) {
  // A k tail runs the FMA sequence of a full 16-lane group: the same product
  // with B padded by zero columns to k = 16 or 32 gives the same bits.
  for (const auto& [n, cdim, k] : {std::tuple{16, 8192, 10}, std::tuple{7, 33, 17},
                                   std::tuple{13, 5, 31}, std::tuple{1, 3, 1}}) {
    const int kp = (k + 15) / 16 * 16;
    Rng rng(n * 7 + k);
    std::vector<float> a(static_cast<std::size_t>(n) * cdim), b(static_cast<std::size_t>(cdim) * k);
    std::vector<float> bp(static_cast<std::size_t>(cdim) * kp, 0.0f);
    for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
    for (int l = 0; l < cdim; ++l) {
      for (int j = 0; j < k; ++j) bp[l * kp + j] = b[l * k + j] = rng.uniform(-1.0f, 1.0f);
    }
    // Canary columns past k: the tail must not store into them.
    std::vector<float> got(static_cast<std::size_t>(n) * (k + 1), -7.0f);
    std::vector<float> want(static_cast<std::size_t>(n) * kp);
    fp32_gemm(a.data(), cdim, b.data(), k, got.data(), k + 1, n, cdim, k);
    fp32_gemm(a.data(), cdim, bp.data(), kp, want.data(), kp, n, cdim, kp);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(0, std::memcmp(&got[i * (k + 1)], &want[i * kp], k * sizeof(float)))
          << n << "x" << cdim << "x" << k << " row " << i;
      ASSERT_EQ(got[i * (k + 1) + k], -7.0f) << "row " << i;
    }
  }
}

TEST(Fp32Gemm, ParallelMatchesSerial) {
  ThreadPool pool(3);
  const int n = 40, cdim = 32, k = 64;
  Rng rng(2);
  std::vector<float> a(n * cdim), b(cdim * k), s(n * k), p(n * k);
  for (auto& v : a) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : b) v = rng.uniform(-1.0f, 1.0f);
  fp32_gemm(a.data(), cdim, b.data(), k, s.data(), k, n, cdim, k);
  fp32_gemm(a.data(), cdim, b.data(), k, p.data(), k, n, cdim, k, &pool);
  for (int i = 0; i < n * k; ++i) ASSERT_EQ(s[i], p[i]);
}

// ---------------------------------------------------------------------------
// INT16 GEMM (up-casting baseline arithmetic).
class Int16GemmShape : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Int16GemmShape, MatchesReference) {
  const auto [n, cdim, k] = GetParam();
  Rng rng(n * 31 + cdim + k);
  std::vector<std::int16_t> a(static_cast<std::size_t>(n) * cdim),
      b(static_cast<std::size_t>(cdim) * k);
  for (auto& v : a) v = static_cast<std::int16_t>(static_cast<int>(rng.next_below(2001)) - 1000);
  for (auto& v : b) v = static_cast<std::int16_t>(static_cast<int>(rng.next_below(255)) - 127);
  AlignedBuffer<std::int16_t> bp((round_up(cdim, 2) / 2) * round_up(k, 16) * 2);
  pack_b_vpmaddwd(b.data(), cdim, k, bp.data());
  AlignedBuffer<std::int32_t> got(static_cast<std::size_t>(n) * round_up(k, 16));
  int16_gemm_packed(a.data(), cdim, bp.data(), got.data(), round_up(k, 16), n, cdim,
                    round_up(k, 16));
  std::vector<std::int32_t> want(static_cast<std::size_t>(n) * k);
  ref_gemm_s16s16(a, b, want, n, cdim, k);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      ASSERT_EQ(got[i * round_up(k, 16) + j], want[i * k + j]) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Int16GemmShape,
                         ::testing::Values(std::make_tuple(4, 16, 16), std::make_tuple(9, 64, 64),
                                           std::make_tuple(16, 36, 80),
                                           std::make_tuple(3, 128, 32)));

}  // namespace
}  // namespace lowino
