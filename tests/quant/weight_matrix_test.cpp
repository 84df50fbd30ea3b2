#include "quant/weight_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// A shared-input group quantizes its input once and splits its
// concatenated output rows once over kernel_pool(). Both are invisible in
// the bits: every output equals one-row calls per matrix, run inline, for
// every row count, whether a range ends inside wk (Q/K/V, 16 + 64 + 64
// rows) or runs from gate into up (40 + 56 rows).
TEST_P(WeightMatrixParamTest, MatvecQkvMultiMatchesSeparateMatvecMulti) {
  Rng rng(23);
  const std::size_t in_f = 384;
  std::vector<WeightMatrix> m;
  for (std::size_t out_f : {16u, 64u, 64u, 40u, 56u}) {
    m.push_back(WeightMatrix::create(random_weights(out_f * in_f, rng), out_f, in_f, GetParam()));
  }
  const WeightMatrix &wq = m[0], &wk = m[1], &wv = m[2], &gate = m[3], &up = m[4];
  // Where parallel_rows cuts a group's concatenated rows: with pool
  // workers, one range must end inside wk and one run across the gate/up
  // boundary, or the split is not under test.
  ASSERT_GE(96 * in_f, kernels::kProjectionSplitWork) << "both groups must split at 1 row";
  const std::size_t shards = kernel_pool().shard_count();
  auto cuts = [&](std::size_t out_rows) {
    std::vector<std::size_t> at;
    const std::size_t ranges = std::min(shards, out_rows);
    for (std::size_t k = 1; k < ranges; ++k) at.push_back(k * out_rows / ranges);
    return at;
  };
  if (shards > 1) {
    const auto qkv_cuts = cuts(144), gate_up_cuts = cuts(96);
    EXPECT_TRUE(std::any_of(qkv_cuts.begin(), qkv_cuts.end(),
                            [](std::size_t c) { return c > 16 && c < 80; }));
    EXPECT_EQ(std::count(gate_up_cuts.begin(), gate_up_cuts.end(), 40u), 0);
  }
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t rows : {1u, 2u, 32u}) {
      const auto x = random_weights(rows * in_f, rng, 1.0);
      std::vector<std::vector<float>> y(m.size()), ref(m.size());
      for (std::size_t i = 0; i < m.size(); ++i) {
        y[i].assign(rows * m[i].out_features(), 0.0f);
        ref[i].assign(rows * m[i].out_features(), 0.0f);
      }
      ActivationBatchInt8 act;
      matmul_group(x, {{wq, y[0]}, {wk, y[1]}, {wv, y[2]}}, rows, act);
      matmul_group(x, {{gate, y[3]}, {up, y[4]}}, rows, act);
      kernel_pool().parallel_for(0, 1, [&](std::size_t) {
        for (std::size_t i = 0; i < m.size(); ++i) {
          const std::size_t out_f = m[i].out_features();
          for (std::size_t t = 0; t < rows; ++t) {
            matvec(m[i], std::span<const float>(x.data() + t * in_f, in_f),
                   std::span<float>(ref[i].data() + t * out_f, out_f));
          }
        }
      });
      for (std::size_t i = 0; i < m.size(); ++i) {
        for (std::size_t j = 0; j < y[i].size(); ++j) {
          ASSERT_EQ(y[i][j], ref[i][j]) << simd::level_name(level) << " rows=" << rows
                                        << " matrix=" << i << " j=" << j;
        }
      }
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
