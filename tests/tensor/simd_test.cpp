// Scalar-vs-native parity for every runtime-dispatched SIMD kernel.
//
// The determinism contract (DESIGN.md "Kernel dispatch & chunked prefill"):
// the scalar level is the bit-exact reference; the native level must agree
// within FMA-reassociation tolerance on fp32 kernels and bit-exactly on
// integer kernels.
#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "tensor/kernels.h"

namespace orinsim {
namespace {

// Restores the dispatch level on scope exit so test order never leaks state.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : prev_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedLevel() { simd::set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level prev_;
};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

std::vector<std::int8_t> random_codes(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.0) - 127);
  }
  return v;
}

TEST(SimdTest, LevelNamesAndAvailability) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kNative), "native");
  // Whatever the environment resolved to must be runnable.
  if (simd::active_level() == simd::Level::kNative) {
    EXPECT_TRUE(simd::native_available());
  }
}

TEST(SimdTest, SetLevelRoundTrips) {
  const simd::Level original = simd::active_level();
  {
    ScopedLevel scalar(simd::Level::kScalar);
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::active_level(), original);
}

TEST(SimdTest, DotF32ScalarIsIndexOrderReference) {
  ScopedLevel scalar(simd::Level::kScalar);
  // Exact reference: acc += a[i] * b[i] in index order.
  const std::vector<float> a = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> b = {0.5f, -1.0f, 2.0f, 0.25f};
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  EXPECT_EQ(simd::dot_f32(a.data(), b.data(), a.size()), acc);
}

TEST(SimdTest, DotF32NativeMatchesScalarWithinTolerance) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  Rng rng(7);
  // Cover vector-body, dual-accumulator, and tail lengths.
  for (std::size_t n : {1u, 7u, 8u, 15u, 16u, 33u, 100u, 512u, 1000u}) {
    const auto a = random_vec(n, rng);
    const auto b = random_vec(n, rng);
    float ref = 0.0f, native = 0.0f;
    {
      ScopedLevel scalar(simd::Level::kScalar);
      ref = simd::dot_f32(a.data(), b.data(), n);
    }
    {
      ScopedLevel nat(simd::Level::kNative);
      native = simd::dot_f32(a.data(), b.data(), n);
    }
    // FMA reorders the accumulation; allow relative error vs the magnitude.
    const float tol = 1e-4f * (std::fabs(ref) + static_cast<float>(n));
    EXPECT_NEAR(native, ref, tol) << "n=" << n;
  }
}

TEST(SimdTest, DotI8NativeIsBitExact) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  Rng rng(11);
  // Integer math must agree exactly at every length. Codes stay in the
  // kernel's documented [-127, 127] domain (every quantizer in the repo
  // clamps to ±127): the AVX2 sign trick wraps on -128.
  for (std::size_t n : {1u, 31u, 32u, 33u, 64u, 127u, 1024u, 4096u}) {
    auto a = random_codes(n, rng);
    auto b = random_codes(n, rng);
    a[0] = -127;
    b[n - 1] = -127;
    std::int64_t ref = 0, native = 0;
    {
      ScopedLevel scalar(simd::Level::kScalar);
      ref = simd::dot_i8(a.data(), b.data(), n);
    }
    {
      ScopedLevel nat(simd::Level::kNative);
      native = simd::dot_i8(a.data(), b.data(), n);
    }
    EXPECT_EQ(native, ref) << "n=" << n;
  }
}

TEST(SimdTest, KernelsDotRoutesThroughDispatch) {
  // kernels::dot must agree with simd::dot_f32 at the active level.
  Rng rng(19);
  const auto a = random_vec(73, rng);
  const auto b = random_vec(73, rng);
  EXPECT_EQ(kernels::dot(a, b), simd::dot_f32(a.data(), b.data(), a.size()));
}

TEST(SimdTest, ResolveLevelValidatesEnvValues) {
  EXPECT_EQ(simd::resolve_level("scalar"), simd::Level::kScalar);
  if (simd::native_available()) {
    EXPECT_EQ(simd::resolve_level("native"), simd::Level::kNative);
  }
  const simd::Level auto_level =
      simd::native_available() ? simd::Level::kNative : simd::Level::kScalar;
  // Unset / empty resolve to auto, silently.
  testing::internal::CaptureStderr();
  EXPECT_EQ(simd::resolve_level(nullptr), auto_level);
  EXPECT_EQ(simd::resolve_level(""), auto_level);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  // Unknown values warn once, naming the accepted values, then fall back to
  // auto instead of aborting.
  testing::internal::CaptureStderr();
  EXPECT_EQ(simd::resolve_level("avx512"), auto_level);
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("avx512"), std::string::npos);
  EXPECT_NE(warning.find("scalar"), std::string::npos);
  EXPECT_NE(warning.find("native"), std::string::npos);
}

// Composition independence (the contract Model::generate's lane batching
// rests on): column t of every *_multi kernel is bit-identical to the
// single-column kernel, for every batch width and position, at BOTH levels.
TEST(SimdTest, DotF32MultiMatchesSingleColumnBitwise) {
  Rng rng(29);
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  for (simd::Level level : levels) {
    ScopedLevel scoped(level);
    // n straddles the AVX2 unroll and tail; n_cols straddles any column tile.
    for (std::size_t n : {1u, 8u, 33u, 100u, 257u}) {
      for (std::size_t n_cols : {1u, 2u, 7u, 8u, 9u, 17u}) {
        const auto w = random_vec(n, rng);
        const std::size_t stride = n + 3;  // strided columns, not contiguous
        const auto x = random_vec(stride * n_cols, rng);
        std::vector<float> out(n_cols);
        simd::dot_f32_multi(w.data(), x.data(), stride, n_cols, n, out.data());
        for (std::size_t t = 0; t < n_cols; ++t) {
          EXPECT_EQ(out[t], simd::dot_f32(w.data(), x.data() + t * stride, n))
              << simd::level_name(level) << " n=" << n << " n_cols=" << n_cols
              << " t=" << t;
        }
      }
    }
  }
}

TEST(SimdTest, DotI8MultiMatchesSingleColumnBitwise) {
  Rng rng(31);
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  for (simd::Level level : levels) {
    ScopedLevel scoped(level);
    for (std::size_t n : {1u, 32u, 33u, 129u}) {
      for (std::size_t n_cols : {1u, 3u, 8u, 11u}) {
        const auto w = random_codes(n, rng);
        const std::size_t stride = n + 1;
        const auto x = random_codes(stride * n_cols, rng);
        std::vector<std::int64_t> out(n_cols);
        simd::dot_i8_multi(w.data(), x.data(), stride, n_cols, n, out.data());
        for (std::size_t t = 0; t < n_cols; ++t) {
          EXPECT_EQ(out[t], simd::dot_i8(w.data(), x.data() + t * stride, n))
              << simd::level_name(level) << " n=" << n << " n_cols=" << n_cols
              << " t=" << t;
        }
      }
    }
  }
}

// The packed-int4 range kernel: every (row, token) of rows [r0, r1) must be
// the portable mirror's bits (dot_i4_i8_multi_ref replicates the AVX2 fma
// chains and hsum order) times the token's activation scale, whatever tile
// the token lands in (token counts cover every partial width, full tiles
// and tails after them), equal to a one-token range call, and rows outside
// the range must stay untouched.
TEST(SimdTest, MatmulI4I8RangeMatchesOneTokenBitwise) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  constexpr std::size_t kRows = 17;
  constexpr float kUntouched = 42.0f;
  Rng rng(43);
  for (std::size_t blocks : {1u, 2u, 4u, 5u, 14u, 16u}) {
    const std::size_t cols = blocks * simd::kInt4KernelBlock;
    const std::size_t row_bytes = blocks * simd::kInt4KernelBlockBytes;
    std::vector<std::uint8_t> packed(kRows * row_bytes);
    for (auto& b : packed) b = static_cast<std::uint8_t>(rng.uniform() * 256.0);
    std::vector<float> scales(kRows * blocks);
    for (auto& s : scales) s = static_cast<float>(rng.uniform() + 0.5);
    for (std::size_t tokens : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
      const auto x = random_codes(tokens * cols, rng);
      std::vector<float> x_scales(tokens);
      for (auto& s : x_scales) s = static_cast<float>(rng.uniform() * 0.1 + 0.01);
      for (std::size_t r0 : {1u, 3u, 7u}) {
        for (std::size_t len = 1; len <= 9; ++len) {
          const std::size_t r1 = r0 + len;
          std::vector<float> y(tokens * kRows, kUntouched);
          simd::matmul_i4_i8(packed.data(), scales.data(), blocks, r0, r1, x.data(),
                             x_scales.data(), tokens, y.data(), kRows);
          for (std::size_t t = 0; t < tokens; ++t) {
            std::vector<float> alone(kRows, kUntouched);
            simd::matmul_i4_i8(packed.data(), scales.data(), blocks, r0, r1,
                               x.data() + t * cols, x_scales.data() + t, 1, alone.data(),
                               kRows);
            for (std::size_t r = 0; r < kRows; ++r) {
              const float got = y[t * kRows + r];
              if (r < r0 || r >= r1) {
                ASSERT_EQ(got, kUntouched) << "row " << r << " outside [" << r0 << ", " << r1
                                           << ") written, tokens=" << tokens;
                continue;
              }
              float dot = 0.0f;
              simd::dot_i4_i8_multi_ref(packed.data() + r * row_bytes,
                                        scales.data() + r * blocks, blocks,
                                        x.data() + t * cols, cols, 1, &dot);
              const float want = dot * x_scales[t];
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got), std::bit_cast<std::uint32_t>(want))
                  << "blocks=" << blocks << " tokens=" << tokens << " r0=" << r0
                  << " len=" << len << " r=" << r << " t=" << t;
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
                        std::bit_cast<std::uint32_t>(alone[r]))
                  << "blocks=" << blocks << " tokens=" << tokens << " r=" << r << " t=" << t;
            }
          }
        }
      }
    }
  }
}

// Only head_dim 16 at the native level takes the head_dim-16 attention
// kernels; every other head_dim, and the scalar level, keep the
// per-position dot and the plain value loop.
TEST(SimdTest, AttentionHd16OnlyForNativeHeadDim16) {
  {
    ScopedLevel scalar(simd::Level::kScalar);
    EXPECT_FALSE(simd::attention_hd16(simd::kScoreHeadDim));
  }
  if (!simd::native_available()) return;
  ScopedLevel native(simd::Level::kNative);
  EXPECT_TRUE(simd::attention_hd16(16));
  for (std::size_t head_dim : {4u, 8u, 32u, 40u, 64u}) {
    EXPECT_FALSE(simd::attention_hd16(head_dim)) << head_dim;
  }
}

// Distance in representable floats (+0 and -0 coincide); inf is one step
// past FLT_MAX.
std::int64_t ulp_distance(float a, float b) {
  auto key = [](float f) {
    std::int32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    return bits < 0 ? -std::int64_t{bits & 0x7fffffff} : std::int64_t{bits};
  };
  return std::llabs(key(a) - key(b));
}

float from_bits(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

// The native vector exp against libm: a strided sweep of every float in
// [ln FLT_MIN, ln FLT_MAX] (subnormal inputs included), then the edge rules
// of simd.h "Vector exp".
TEST(SimdTest, ExpF32WithinUlpOfLibm) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  ScopedLevel native(simd::Level::kNative);
  // kExpFlushBelow is the least float at or above ln FLT_MIN.
  const double ln_min = std::log(static_cast<double>(FLT_MIN));
  ASSERT_GE(static_cast<double>(simd::kExpFlushBelow), ln_min);
  ASSERT_LT(static_cast<double>(std::nextafter(simd::kExpFlushBelow, -INFINITY)), ln_min);
  const float hi = std::log(FLT_MAX);

  std::vector<float> xs;
  constexpr std::uint32_t kStride = 613;
  for (std::uint32_t m = 0; from_bits(m) <= hi; m += kStride) xs.push_back(from_bits(m));
  for (std::uint32_t m = 0; from_bits(m) <= -simd::kExpFlushBelow; m += kStride) {
    xs.push_back(-from_bits(m));
  }
  xs.push_back(hi);
  xs.push_back(simd::kExpFlushBelow);
  std::vector<float> got(xs.size());
  simd::exp_f32(xs.data(), xs.size(), got.data());
  std::int64_t worst = 0;
  float worst_x = 0.0f;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::int64_t d = ulp_distance(got[i], std::exp(xs[i]));
    if (d > worst) worst = d, worst_x = xs[i];
  }
  EXPECT_LE(worst, 2) << "x=" << worst_x << " over " << xs.size() << " inputs";

  // Edge rules, each at a full-vector lane and in a tail.
  const float below = std::nextafter(simd::kExpFlushBelow, -INFINITY);
  const std::vector<std::pair<float, float>> edges = {
      {-INFINITY, 0.0f},  {below, 0.0f},       {-87.5f, 0.0f},     {-104.0f, 0.0f},
      {-1e30f, 0.0f},     {88.7229f, INFINITY}, {89.0f, INFINITY}, {100.0f, INFINITY},
      {1e30f, INFINITY},  {INFINITY, INFINITY}, {0.0f, 1.0f},      {-0.0f, 1.0f},
      {1e-40f, 1.0f},     {-1e-40f, 1.0f},
  };
  for (std::size_t n : {8u, 3u}) {
    for (const auto& [x, want] : edges) {
      std::vector<float> in(n, x), out(n);
      simd::exp_f32(in.data(), n, out.data());
      for (float y : out) {
        EXPECT_EQ(y, want) << "x=" << x << " n=" << n;
        EXPECT_FALSE(std::signbit(y)) << "x=" << x;
      }
    }
    std::vector<float> in(n, NAN), out(n);
    simd::exp_f32(in.data(), n, out.data());
    for (float y : out) EXPECT_TRUE(std::isnan(y)) << "n=" << n;
  }
}

TEST(RopeTableTest, BitExactAgainstRopeInplace) {
  // Table entries are computed with the exact expressions of rope_inplace,
  // so applying the table must be bit-identical at every position.
  const std::size_t heads = 3, head_dim = 8, max_seq = 40;
  for (float theta : {10000.0f, 500000.0f}) {
    kernels::RopeTable table(max_seq, head_dim, theta);
    Rng rng(23);
    for (std::size_t pos : {0u, 1u, 7u, 39u}) {
      std::vector<float> a(heads * head_dim), b(heads * head_dim);
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<float>(rng.normal(0.0, 1.0));
        b[i] = a[i];
      }
      kernels::rope_inplace(a, heads, head_dim, pos, theta);
      table.apply(b, heads, head_dim, pos);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "theta=" << theta << " pos=" << pos << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace orinsim
