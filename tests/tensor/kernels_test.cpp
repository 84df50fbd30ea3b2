#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "tensor/simd.h"

namespace orinsim::kernels {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng, float scale = 1.0f) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  Rng rng(1);
  auto x = random_vec(4 * 7, rng, 3.0f);
  softmax_rows(x, 4, 7);
  for (std::size_t r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_GT(x[r * 7 + c], 0.0f);
      sum += x[r * 7 + c];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(KernelsTest, SoftmaxStableUnderLargeInputs) {
  std::vector<float> x = {1000.0f, 1001.0f, 999.0f};
  softmax_rows(x, 1, 3);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_GT(x[1], x[0]);
  EXPECT_GT(x[0], x[2]);
}

TEST(KernelsTest, SoftmaxInvariantToShift) {
  std::vector<float> a = {0.5f, -1.0f, 2.0f};
  std::vector<float> b = {10.5f, 9.0f, 12.0f};
  softmax_rows(a, 1, 3);
  softmax_rows(b, 1, 3);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a[i], b[i], 1e-6f);
}

TEST(KernelsTest, RmsNormUnitOutputScale) {
  Rng rng(2);
  const std::size_t cols = 64;
  auto x = random_vec(cols, rng, 4.0f);
  std::vector<float> gain(cols, 1.0f);
  std::vector<float> y(cols);
  rmsnorm_rows(x, gain, y, 1, cols);
  double ss = 0.0;
  for (float v : y) ss += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(ss / cols), 1.0, 1e-3);
}

TEST(KernelsTest, RmsNormAppliesGain) {
  std::vector<float> x = {3.0f, 4.0f};
  std::vector<float> gain = {2.0f, 0.5f};
  std::vector<float> y(2);
  rmsnorm_rows(x, gain, y, 1, 2);
  // rms = sqrt((9+16)/2) = 3.5355
  EXPECT_NEAR(y[0], 3.0f / 3.5355f * 2.0f, 1e-3f);
  EXPECT_NEAR(y[1], 4.0f / 3.5355f * 0.5f, 1e-3f);
}

TEST(KernelsTest, LayerNormZeroMeanUnitVar) {
  Rng rng(3);
  const std::size_t cols = 128;
  auto x = random_vec(cols, rng, 2.0f);
  std::vector<float> gain(cols, 1.0f), bias(cols, 0.0f), y(cols);
  layernorm_rows(x, gain, bias, y, 1, cols);
  double sum = 0.0, sq = 0.0;
  for (float v : y) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum / cols, 0.0, 1e-4);
  EXPECT_NEAR(sq / cols, 1.0, 1e-2);
}

TEST(KernelsTest, SiluAndGeluFixedPoints) {
  std::vector<float> x = {0.0f};
  silu_inplace(x);
  EXPECT_EQ(x[0], 0.0f);
  x = {0.0f};
  gelu_inplace(x);
  EXPECT_EQ(x[0], 0.0f);
  // silu(1) = 1/(1+e^-1) ~ 0.7311
  x = {1.0f};
  silu_inplace(x);
  EXPECT_NEAR(x[0], 0.7311f, 1e-3f);
  // gelu(1) ~ 0.8412
  x = {1.0f};
  gelu_inplace(x);
  EXPECT_NEAR(x[0], 0.8412f, 2e-3f);
}

TEST(KernelsTest, SwigluMatchesDefinition) {
  std::vector<float> gate = {1.0f, -2.0f};
  std::vector<float> up = {3.0f, 5.0f};
  std::vector<float> out(2);
  swiglu(gate, up, out);
  EXPECT_NEAR(out[0], 3.0f * 0.7311f, 1e-3f);
  EXPECT_NEAR(out[1], 5.0f * (-2.0f / (1.0f + std::exp(2.0f))), 1e-3f);
}

// At the native level softmax, SiLU/SwiGLU and GELU run the vector exp.
// A softmax row must give the same bits at every buffer offset and inside
// a multi-row call; an activation element must give the same bits whether
// it sits in a full vector, in a tail, or alone in a one-element call.
TEST(KernelsTest, NativeSoftmaxAndActivationsIndependentOfPosition) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  const simd::Level prev = simd::active_level();
  simd::set_level(simd::Level::kNative);
  auto same_bits = [](std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  };
  Rng rng(9);
  std::vector<std::size_t> lengths(17);
  std::iota(lengths.begin(), lengths.end(), std::size_t{1});
  lengths.push_back(448);
  for (const std::size_t len : lengths) {
    const auto row = random_vec(len, rng, 6.0f);
    auto ref = row;
    softmax_rows(ref, 1, len);
    for (std::size_t offset = 1; offset < 12; ++offset) {
      std::vector<float> buf(offset + len, 1.0f);
      std::copy(row.begin(), row.end(), buf.begin() + static_cast<std::ptrdiff_t>(offset));
      softmax_rows(std::span<float>(buf).subspan(offset), 1, len);
      EXPECT_TRUE(same_bits(std::span<const float>(buf).subspan(offset), ref))
          << "softmax len=" << len << " offset=" << offset;
    }
    std::vector<float> two(2 * len);
    std::copy(row.begin(), row.end(), two.begin());
    std::copy(row.begin(), row.end(), two.begin() + static_cast<std::ptrdiff_t>(len));
    softmax_rows(two, 2, len);
    EXPECT_TRUE(same_bits(std::span<const float>(two).last(len), ref)) << "rows len=" << len;

    const auto gate = random_vec(len, rng, 8.0f);
    const auto up = random_vec(len, rng, 2.0f);
    std::vector<float> ff(len), silu = gate, gelu = gate;
    swiglu(gate, up, ff);
    silu_inplace(silu);
    gelu_inplace(gelu);
    const std::vector<float> ones(len, 1.0f);
    std::vector<float> gated_by_one(len);
    swiglu(gate, ones, gated_by_one);
    EXPECT_TRUE(same_bits(gated_by_one, silu)) << "silu vs swiglu len=" << len;
    for (std::size_t i = 0; i < len; ++i) {
      float one_ff = 0.0f, one_silu = gate[i], one_gelu = gate[i];
      swiglu({&gate[i], 1}, {&up[i], 1}, {&one_ff, 1});
      silu_inplace({&one_silu, 1});
      gelu_inplace({&one_gelu, 1});
      EXPECT_TRUE(same_bits({&one_ff, 1}, {&ff[i], 1})) << "swiglu len=" << len << " i=" << i;
      EXPECT_TRUE(same_bits({&one_silu, 1}, {&silu[i], 1})) << "silu len=" << len << " i=" << i;
      EXPECT_TRUE(same_bits({&one_gelu, 1}, {&gelu[i], 1})) << "gelu len=" << len << " i=" << i;
    }
  }
  simd::set_level(prev);
}

// A one-row matvec_rows call runs simd::dot_f32_rows' four-row tile at the
// native level: every row must be simd::dot_f32 of that row, bit for bit,
// whichever tile slot it lands in and whatever the row count's remainder.
// Rows carry signed zeros, infinities and NaNs. A NaN result only has to be
// a NaN: which payload wins a NaN + NaN add depends on the operand order,
// and the compiler may commute an add.
TEST(KernelsTest, NativeMatvecRowTileMatchesDotPerRowBitwise) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  const simd::Level prev = simd::active_level();
  simd::set_level(simd::Level::kNative);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  constexpr std::size_t kRows = 16;
  Rng rng(23);
  for (const std::size_t n : {7u, 8u, 16u, 24u, 100u, 128u, 448u, 449u}) {
    auto a = random_vec(kRows * n, rng);
    auto x = random_vec(n, rng);
    x[n / 2] = 0.0f;
    for (std::size_t r = 0; r < kRows; ++r) {
      float* ar = a.data() + r * n;
      switch (r % 6) {
        case 0:  // all products are signed zeros
          std::fill(ar, ar + n, r % 4 == 0 ? -0.0f : 0.0f);
          break;
        case 1:  // inf - inf: the default NaN
          ar[0] = inf;
          ar[n - 1] = -inf;
          break;
        case 2:
          ar[std::min<std::size_t>(4, n - 1)] = nan;
          break;
        case 3:  // inf * 0
          ar[n / 2] = inf;
          break;
        case 4:  // a lone inf
          ar[n - 1] = -inf;
          break;
        default:
          break;
      }
    }
    for (const std::size_t r0 : {1u, 3u, 7u}) {
      for (std::size_t len = 1; len <= 9; ++len) {
        std::vector<float> out(kRows, 42.0f);
        matvec_rows(a, x, out, kRows, n, 1, r0, r0 + len);
        for (std::size_t r = 0; r < kRows; ++r) {
          const bool in_range = r >= r0 && r < r0 + len;
          const float want = in_range ? simd::dot_f32(a.data() + r * n, x.data(), n) : 42.0f;
          if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(out[r])) << "n=" << n << " r0=" << r0 << " r=" << r;
            continue;
          }
          EXPECT_EQ(std::bit_cast<std::uint32_t>(out[r]), std::bit_cast<std::uint32_t>(want))
              << "n=" << n << " r0=" << r0 << " len=" << len << " r=" << r;
        }
      }
    }
  }
  simd::set_level(prev);
}

TEST(KernelsTest, RopePreservesNorm) {
  Rng rng(4);
  const std::size_t heads = 4, dim = 16;
  auto qk = random_vec(heads * dim, rng);
  double before = 0.0;
  for (float v : qk) before += static_cast<double>(v) * v;
  rope_inplace(qk, heads, dim, 17);
  double after = 0.0;
  for (float v : qk) after += static_cast<double>(v) * v;
  EXPECT_NEAR(before, after, 1e-3);
}

TEST(KernelsTest, RopePositionZeroIsIdentity) {
  Rng rng(5);
  auto qk = random_vec(2 * 8, rng);
  auto copy = qk;
  rope_inplace(qk, 2, 8, 0);
  for (std::size_t i = 0; i < qk.size(); ++i) EXPECT_NEAR(qk[i], copy[i], 1e-6f);
}

TEST(KernelsTest, RopeRelativePropertyOfDotProducts) {
  // <rope(q,p1), rope(k,p2)> depends only on p1 - p2.
  Rng rng(6);
  const std::size_t dim = 32;
  auto q = random_vec(dim, rng);
  auto k = random_vec(dim, rng);
  auto q1 = q, k1 = k, q2 = q, k2 = k;
  rope_inplace(q1, 1, dim, 5);
  rope_inplace(k1, 1, dim, 3);
  rope_inplace(q2, 1, dim, 25);
  rope_inplace(k2, 1, dim, 23);
  EXPECT_NEAR(dot(q1, k1), dot(q2, k2), 1e-2f);
}

TEST(KernelsTest, GemmMatchesNaive) {
  Rng rng(7);
  const std::size_t m = 9, k = 17, n = 13;
  auto a = random_vec(m * k, rng);
  auto b = random_vec(k * n, rng);
  std::vector<float> c(m * n), ref(m * n, 0.0f);
  gemm(a, b, c, m, k, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) ref[i * n + j] += a[i * k + p] * b[p * n + j];
    }
  }
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3f);
}

TEST(KernelsTest, GemmLargerBlockedPath) {
  Rng rng(8);
  const std::size_t m = 130, k = 70, n = 65;  // crosses the 64-block boundary
  auto a = random_vec(m * k, rng);
  auto b = random_vec(k * n, rng);
  std::vector<float> c(m * n);
  gemm(a, b, c, m, k, n);
  // Spot-check a few entries against direct dot products.
  for (std::size_t i : {std::size_t{0}, std::size_t{63}, std::size_t{64}, std::size_t{129}}) {
    for (std::size_t j : {std::size_t{0}, std::size_t{64}}) {
      float ref = 0.0f;
      for (std::size_t p = 0; p < k; ++p) ref += a[i * k + p] * b[p * n + j];
      EXPECT_NEAR(c[i * n + j], ref, 1e-3f);
    }
  }
}

TEST(KernelsTest, MatvecMatchesDot) {
  Rng rng(9);
  const std::size_t rows = 300, cols = 40;
  auto a = random_vec(rows * cols, rng);
  auto x = random_vec(cols, rng);
  std::vector<float> out(rows);
  matvec_multi(a, x, out, rows, cols, 1);
  for (std::size_t r : {std::size_t{0}, std::size_t{150}, std::size_t{299}}) {
    EXPECT_EQ(out[r], dot(std::span<const float>(a.data() + r * cols, cols), x));
  }
}

TEST(KernelsTest, ArgmaxAndTies) {
  const std::vector<float> v = {1.0f, 5.0f, 5.0f, 2.0f};
  EXPECT_EQ(argmax(v), 1u);  // lowest index wins ties
  EXPECT_THROW(argmax({}), ContractViolation);
}

TEST(KernelsTest, LogsumexpStableAndCorrect) {
  const std::vector<float> v = {std::log(1.0f), std::log(2.0f), std::log(3.0f)};
  EXPECT_NEAR(logsumexp(v), std::log(6.0), 1e-6);
  const std::vector<float> big = {1000.0f, 1000.0f};
  EXPECT_NEAR(logsumexp(big), 1000.0 + std::log(2.0), 1e-4);
}

TEST(KernelsTest, AddBiasAndAddInplace) {
  std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> bias = {10.0f, 20.0f};
  add_bias(x, bias, 2, 2);
  EXPECT_EQ(x[0], 11.0f);
  EXPECT_EQ(x[3], 24.0f);
  std::vector<float> y = {1.0f, 1.0f};
  add_inplace(y, std::vector<float>{2.0f, 3.0f});
  EXPECT_EQ(y[0], 3.0f);
  EXPECT_EQ(y[1], 4.0f);
}

}  // namespace
}  // namespace orinsim::kernels
