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

TEST_P(WeightMatrixParamTest, MatvecCloseToFp32Reference) {
  Rng rng(11);
  const std::size_t out_f = 40, in_f = 64;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  auto x = random_weights(in_f, rng, 1.0);
  std::vector<float> out(out_f), ref(out_f);
  wm.matvec(x, out);
  kernels::matvec(w, x, ref, out_f, in_f);
  // Tolerance scales with precision.
  double tol = 1e-4;
  if (GetParam() == DType::kF16) tol = 5e-3;
  if (GetParam() == DType::kI8) tol = 5e-2;
  if (GetParam() == DType::kI4) tol = 0.4;
  for (std::size_t r = 0; r < out_f; ++r) EXPECT_NEAR(out[r], ref[r], tol);
}

TEST_P(WeightMatrixParamTest, MatmulMatchesPerTokenMatvec) {
  Rng rng(12);
  const std::size_t out_f = 24, in_f = 32, tokens = 5;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  auto x = random_weights(tokens * in_f, rng, 1.0);
  std::vector<float> y(tokens * out_f), y_ref(tokens * out_f);
  wm.matmul(x, y, tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    wm.matvec(std::span<const float>(x.data() + t * in_f, in_f),
              std::span<float>(y_ref.data() + t * out_f, out_f));
  }
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-5f);
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

// The matvec_multi contract: lane t is bit-identical to matvec(X[t]) at the
// active level, and batch-composition independent, for every dtype.
TEST_P(WeightMatrixParamTest, MatvecMultiMatchesPerLaneMatvec) {
  Rng rng(21);
  const std::size_t out_f = 40, in_f = 64;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t lanes : {1u, 3u, 8u, 9u}) {
      auto x = random_weights(lanes * in_f, rng, 1.0);
      std::vector<float> y(lanes * out_f), ref(lanes * out_f);
      ActivationBatchInt8 act;
      wm.matvec_multi(x, y, lanes, act);
      for (std::size_t t = 0; t < lanes; ++t) {
        wm.matvec(std::span<const float>(x.data() + t * in_f, in_f),
                  std::span<float>(ref.data() + t * out_f, out_f));
      }
      for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_EQ(y[i], ref[i]) << simd::level_name(level) << " lanes=" << lanes
                                << " i=" << i;
      }
    }
  }
}

// Row partition pin: the kernels fan their rows out on kernel_pool() at top
// level and run them inline inside a pool shard. Both must give the same
// bits for the chunk (matmul) and lane (matvec_multi) paths, at 448 rows
// (above every kernel's parallel threshold) and both kernel levels.
TEST_P(WeightMatrixParamTest, RowPartitionIsBitIdenticalToInlineRun) {
  Rng rng(23);
  const std::size_t out_f = 448, in_f = 128;
  auto w = random_weights(out_f * in_f, rng);
  const WeightMatrix wm = WeightMatrix::create(w, out_f, in_f, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (std::size_t lanes : {1u, 8u}) {
      const auto x = random_weights(lanes * in_f, rng, 1.0);
      auto run = [&](bool chunk) {
        std::vector<float> y(lanes * out_f);
        ActivationBatchInt8 act;
        if (chunk) {
          wm.matmul(x, y, lanes);
        } else {
          wm.matvec_multi(x, y, lanes, act);
        }
        return y;
      };
      for (bool chunk : {true, false}) {
        const std::vector<float> fanned = run(chunk);
        std::vector<float> inline_run;
        kernel_pool().parallel_for(0, 1, [&](std::size_t) { inline_run = run(chunk); });
        ASSERT_EQ(fanned.size(), inline_run.size());
        for (std::size_t i = 0; i < fanned.size(); ++i) {
          ASSERT_EQ(fanned[i], inline_run[i])
              << simd::level_name(level) << " lanes=" << lanes << (chunk ? " chunk" : " lane")
              << " i=" << i;
        }
      }
    }
  }
}

// Batch-composition independence holds for EVERY dtype (including kF16):
// a lane's value never depends on which other lanes share the batch.
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
    wm.matvec_multi(x, full, lanes, act);
    // Re-run each lane as a singleton batch.
    for (std::size_t t = 0; t < lanes; ++t) {
      std::vector<float> alone(out_f);
      ActivationBatchInt8 act1;
      wm.matvec_multi(std::span<const float>(x.data() + t * in_f, in_f), alone, 1,
                      act1);
      for (std::size_t r = 0; r < out_f; ++r) {
        EXPECT_EQ(full[t * out_f + r], alone[r])
            << simd::level_name(level) << " t=" << t << " r=" << r;
      }
    }
  }
}

TEST_P(WeightMatrixParamTest, MatvecQkvMultiMatchesSeparateMatvecMulti) {
  Rng rng(23);
  const std::size_t d = 64, kv = 32, lanes = 5;
  auto wq_w = random_weights(d * d, rng);
  auto wk_w = random_weights(kv * d, rng);
  auto wv_w = random_weights(kv * d, rng);
  const auto wq = WeightMatrix::create(wq_w, d, d, GetParam());
  const auto wk = WeightMatrix::create(wk_w, kv, d, GetParam());
  const auto wv = WeightMatrix::create(wv_w, kv, d, GetParam());
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    auto x = random_weights(lanes * d, rng, 1.0);
    std::vector<float> q(lanes * d), k(lanes * kv), v(lanes * kv);
    ActivationBatchInt8 act;
    matvec_qkv_multi(wq, wk, wv, x, q, k, v, lanes, act);
    std::vector<float> q_ref(lanes * d), k_ref(lanes * kv), v_ref(lanes * kv);
    ActivationBatchInt8 act_ref;
    wq.matvec_multi(x, q_ref, lanes, act_ref);
    wk.matvec_multi(x, k_ref, lanes, act_ref);
    wv.matvec_multi(x, v_ref, lanes, act_ref);
    // The fused path shares one activation quantization across Q/K/V;
    // quantization is deterministic, so results are bit-identical.
    for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i], q_ref[i]) << i;
    for (std::size_t i = 0; i < k.size(); ++i) EXPECT_EQ(k[i], k_ref[i]) << i;
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], v_ref[i]) << i;
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
