#include "quant/weight_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace orinsim::quant {
namespace {

std::vector<float> random_weights(std::size_t n, Rng& rng, double scale = 0.1) {
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, scale));
  return w;
}

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

std::vector<simd::Level> levels_to_test() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  return levels;
}

class WeightMatrixParamTest : public ::testing::TestWithParam<DType> {};

// One row through the one projection entry.
void matvec(const WeightMatrix& wm, std::span<const float> x, std::span<float> out) {
  ActivationBatchInt8 act;
  wm.matmul(x, out, 1, act);
}

// Every row of a multi-row matmul must equal the one-row call on that row,
// bit for bit, at both kernel levels.
void expect_rows_match_one_row_calls(const WeightMatrix& wm, std::size_t rows, Rng& rng) {
  const std::size_t in_f = wm.in_features(), out_f = wm.out_features();
  const auto x = random_weights(rows * in_f, rng, 1.0);
  std::vector<float> y(rows * out_f), ref(rows * out_f);
  ActivationBatchInt8 act;
  wm.matmul(x, y, rows, act);
  for (std::size_t t = 0; t < rows; ++t) {
    matvec(wm, std::span<const float>(x.data() + t * in_f, in_f),
           std::span<float>(ref.data() + t * out_f, out_f));
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y[i], ref[i]) << simd::level_name(simd::active_level()) << " rows=" << rows
                            << " i=" << i;
  }
}

TEST_P(WeightMatrixParamTest, MatvecCloseToFp32Reference) {
  Rng rng(11);
  const std::size_t out_f = 40, in_f = 64;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  auto x = random_weights(in_f, rng, 1.0);
  std::vector<float> out(out_f), ref(out_f);
  matvec(wm, x, out);
  kernels::matvec_multi(w, x, ref, out_f, in_f, 1);
  // Tolerance scales with precision.
  double tol = 1e-4;
  if (GetParam() == DType::kF16) tol = 5e-3;
  if (GetParam() == DType::kI8) tol = 5e-2;
  if (GetParam() == DType::kI4) tol = 0.4;
  for (std::size_t r = 0; r < out_f; ++r) EXPECT_NEAR(out[r], ref[r], tol);
}

// Prefill-chunk shapes: a ragged chunk, the default 32-row chunk and one
// row past it (the token tiles' remainders).
TEST_P(WeightMatrixParamTest, MatmulMatchesPerTokenMatvec) {
  Rng rng(12);
  const std::size_t out_f = 24, in_f = 32;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t tokens : {5u, 32u, 33u}) expect_rows_match_one_row_calls(wm, tokens, rng);
  }
}

TEST_P(WeightMatrixParamTest, DequantizeRowCloseToSource) {
  Rng rng(13);
  const std::size_t out_f = 8, in_f = 32;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  std::vector<float> rec(in_f);
  double tol = 1e-7;
  if (GetParam() == DType::kF16) tol = 1e-3;
  if (GetParam() == DType::kI8) tol = 5e-3;
  if (GetParam() == DType::kI4) tol = 5e-2;
  for (std::size_t r = 0; r < out_f; ++r) {
    wm.dequantize_row(r, rec);
    for (std::size_t c = 0; c < in_f; ++c) EXPECT_NEAR(rec[c], w[r * in_f + c], tol);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, WeightMatrixParamTest,
                         ::testing::Values(DType::kF32, DType::kF16, DType::kI8,
                                           DType::kI4),
                         [](const auto& info) { return dtype_name(info.param); });

// Decode-lane shapes: row t is bit-identical to a one-row call on X[t] at
// both levels, for every dtype.
TEST_P(WeightMatrixParamTest, MatvecMultiMatchesPerLaneMatvec) {
  Rng rng(21);
  const std::size_t out_f = 40, in_f = 64;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t lanes : {1u, 3u, 8u, 9u}) expect_rows_match_one_row_calls(wm, lanes, rng);
  }
}

// Row partition pin: the kernels fan their rows out on kernel_pool() at top
// level and run them inline inside a pool shard. Both must give the same
// bits at 1152 x 128 (above the split work at every row count) and both
// kernel levels.
TEST_P(WeightMatrixParamTest, RowPartitionIsBitIdenticalToInlineRun) {
  Rng rng(23);
  const std::size_t out_f = 1152, in_f = 128;
  ASSERT_GE(out_f * in_f, kernels::kProjectionSplitWork);
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t rows : {1u, 8u, 32u}) {
      const auto x = random_weights(rows * in_f, rng, 1.0);
      auto run = [&] {
        std::vector<float> y(rows * out_f);
        ActivationBatchInt8 act;
        wm.matmul(x, y, rows, act);
        return y;
      };
      const std::vector<float> fanned = run();
      std::vector<float> inline_run;
      kernel_pool().parallel_for(0, 1, [&](std::size_t) { inline_run = run(); });
      ASSERT_EQ(fanned.size(), inline_run.size());
      for (std::size_t i = 0; i < fanned.size(); ++i) {
        ASSERT_EQ(fanned[i], inline_run[i])
            << simd::level_name(level) << " rows=" << rows << " i=" << i;
      }
    }
  }
}

// Batch-composition independence holds for EVERY dtype: a row's value never
// depends on which other rows share the call or where it sits among them.
TEST_P(WeightMatrixParamTest, MatvecMultiIsCompositionIndependent) {
  Rng rng(22);
  const std::size_t out_f = 24, in_f = 64, lanes = 6;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    auto x = random_weights(lanes * in_f, rng, 1.0);
    std::vector<float> full(lanes * out_f);
    ActivationBatchInt8 act;
    wm.matmul(x, full, lanes, act);
    // Re-run rows [1, 4) as their own batch: each lands at a new position.
    const std::size_t first = 1, count = 3;
    std::vector<float> sub(count * out_f);
    wm.matmul(std::span<const float>(x.data() + first * in_f, count * in_f), sub, count, act);
    for (std::size_t i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(full[first * out_f + i], sub[i]) << simd::level_name(level) << " i=" << i;
    }
  }
}

// A shared-input group quantizes its input once; quantization is
// deterministic, so Q/K/V are bit-identical to three separate calls for
// every row count.
TEST_P(WeightMatrixParamTest, MatvecQkvMultiMatchesSeparateMatvecMulti) {
  Rng rng(23);
  const std::size_t d = 64, kv = 32;
  auto wq_w = random_weights(d * d, rng);
  auto wk_w = random_weights(kv * d, rng);
  auto wv_w = random_weights(kv * d, rng);
  const auto wq = WeightMatrix::create(wq_w, d, d, GetParam());
  const auto wk = WeightMatrix::create(wk_w, kv, d, GetParam());
  const auto wv = WeightMatrix::create(wv_w, kv, d, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t rows : {1u, 5u, 32u}) {
      auto x = random_weights(rows * d, rng, 1.0);
      std::vector<float> q(rows * d), k(rows * kv), v(rows * kv);
      ActivationBatchInt8 act;
      matmul_group(x, {{wq, q}, {wk, k}, {wv, v}}, rows, act);
      std::vector<float> q_ref(rows * d), k_ref(rows * kv), v_ref(rows * kv);
      ActivationBatchInt8 act_ref;
      wq.matmul(x, q_ref, rows, act_ref);
      wk.matmul(x, k_ref, rows, act_ref);
      wv.matmul(x, v_ref, rows, act_ref);
      for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i], q_ref[i]) << i;
      for (std::size_t i = 0; i < k.size(); ++i) EXPECT_EQ(k[i], k_ref[i]) << i;
      for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], v_ref[i]) << i;
    }
  }
}

TEST(WeightMatrixTest, StorageShrinksWithPrecision) {
  Rng rng(14);
  const std::size_t out_f = 64, in_f = 128;
  auto w = random_weights(out_f * in_f, rng);
  const auto f32 = WeightMatrix::create(w, out_f, in_f, DType::kF32);
  const auto f16 = WeightMatrix::create(w, out_f, in_f, DType::kF16);
  const auto i8 = WeightMatrix::create(w, out_f, in_f, DType::kI8);
  const auto i4 = WeightMatrix::create(w, out_f, in_f, DType::kI4);
  EXPECT_EQ(f32.storage_bytes(), out_f * in_f * 4);
  EXPECT_EQ(f16.storage_bytes(), out_f * in_f * 2);
  EXPECT_LT(i8.storage_bytes(), f16.storage_bytes());
  EXPECT_LT(i4.storage_bytes(), i8.storage_bytes());
}

TEST(WeightMatrixTest, OutlierColumnsReportedForInt8) {
  Rng rng(15);
  const std::size_t out_f = 16, in_f = 64;
  auto w = random_weights(out_f * in_f, rng, 0.05);
  w[10] = 3.0f;  // column 10 becomes an outlier under the 6-sigma rule
  const auto i8 = WeightMatrix::create(w, out_f, in_f, DType::kI8, 6.0f);
  EXPECT_GE(i8.outlier_column_count(), 1u);
  const auto f16 = WeightMatrix::create(w, out_f, in_f, DType::kF16);
  EXPECT_EQ(f16.outlier_column_count(), 0u);
}

TEST(WeightMatrixTest, ShapeMismatchRejected) {
  std::vector<float> w(10, 0.0f);
  EXPECT_THROW(WeightMatrix::create(w, 3, 4, DType::kF32), ContractViolation);
}

}  // namespace
}  // namespace orinsim::quant
