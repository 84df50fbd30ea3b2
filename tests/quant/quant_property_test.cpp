// Parameterized property tests over the quantization codecs: error bounds
// and matvec fidelity must hold across matrix shapes, weight scales, and
// distribution shapes (Gaussian and heavy-tailed).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "quant/quantize.h"
#include "quant/weight_matrix.h"
#include "tensor/kernels.h"

namespace orinsim::quant {
namespace {

using ShapeScale = std::tuple<std::size_t /*rows*/, std::size_t /*cols*/,
                              double /*scale*/, bool /*heavy_tailed*/>;

std::vector<float> make_weights(const ShapeScale& p, Rng& rng) {
  const auto& [rows, cols, scale, heavy] = p;
  std::vector<float> w(rows * cols);
  for (auto& v : w) {
    const double s = (heavy && rng.bernoulli(0.04)) ? 6.0 * scale : scale;
    v = static_cast<float>(rng.normal(0.0, s));
  }
  return w;
}

class QuantPropertyTest : public ::testing::TestWithParam<ShapeScale> {};

TEST_P(QuantPropertyTest, Int8RelativeErrorSmall) {
  Rng rng(0xC0FFEE);
  const auto& [rows, cols, scale, heavy] = GetParam();
  const auto w = make_weights(GetParam(), rng);
  const RowwiseInt8 q = quantize_rowwise_int8(w, rows, cols,
                                              heavy ? static_cast<float>(3.0 * scale) : 0.0f);
  std::vector<float> rec(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, std::span<float>(rec.data() + r * cols, cols));
  }
  const QuantError e = measure_error(w, rec);
  // Row-wise absmax INT8: relative Frobenius error well under 1%, even with
  // outliers (they live in fp16).
  EXPECT_LT(e.relative_fro, 0.01);
}

TEST_P(QuantPropertyTest, Int4RelativeErrorModerate) {
  Rng rng(0xBEEF);
  const auto& [rows, cols, scale, heavy] = GetParam();
  if (cols % kInt4Block != 0) GTEST_SKIP();
  const auto w = make_weights(GetParam(), rng);
  const BlockInt4 q = quantize_block_int4(w, rows, cols);
  std::vector<float> rec(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, std::span<float>(rec.data() + r * cols, cols));
  }
  const QuantError e = measure_error(w, rec);
  EXPECT_LT(e.relative_fro, 0.20);
  EXPECT_GT(e.relative_fro, 0.001);  // INT4 is genuinely lossy
}

TEST_P(QuantPropertyTest, ErrorOrderingAcrossPrecisions) {
  Rng rng(0xDEAD);
  const auto& [rows, cols, scale, heavy] = GetParam();
  const auto w = make_weights(GetParam(), rng);
  auto fro = [&](DType dt) {
    const auto wm = WeightMatrix::create(w, rows, cols, dt);
    std::vector<float> rec(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
      wm.dequantize_row(r, std::span<float>(rec.data() + r * cols, cols));
    }
    return measure_error(w, rec).relative_fro;
  };
  const double e16 = fro(DType::kF16);
  const double e8 = fro(DType::kI8);
  const double e4 = fro(DType::kI4);
  EXPECT_LE(e16, e8);
  EXPECT_LT(e8, e4);
}

TEST_P(QuantPropertyTest, MatvecErrorScalesWithPrecision) {
  Rng rng(0xFACE);
  const auto& [rows, cols, scale, heavy] = GetParam();
  const auto w = make_weights(GetParam(), rng);
  std::vector<float> x(cols);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<float> ref(rows);
  kernels::matvec_multi(w, x, ref, rows, cols, 1);

  auto rms_err = [&](DType dt) {
    const auto wm = WeightMatrix::create(w, rows, cols, dt);
    std::vector<float> out(rows);
    ActivationBatchInt8 act;
    wm.matmul(x, out, 1, act);
    double acc = 0.0, norm = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      acc += (out[r] - ref[r]) * static_cast<double>(out[r] - ref[r]);
      norm += static_cast<double>(ref[r]) * ref[r];
    }
    return std::sqrt(acc / std::max(norm, 1e-30));
  };
  EXPECT_LT(rms_err(DType::kF16), 0.01);
  EXPECT_LT(rms_err(DType::kI8), 0.08);
  EXPECT_LT(rms_err(DType::kI4), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QuantPropertyTest,
    ::testing::Values(ShapeScale{8, 32, 0.1, false}, ShapeScale{64, 64, 0.02, false},
                      ShapeScale{16, 256, 1.0, false}, ShapeScale{128, 128, 0.1, true},
                      ShapeScale{32, 96, 0.5, true}, ShapeScale{256, 64, 0.005, true}),
    [](const auto& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "c" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 1000)) +
             (std::get<3>(info.param) ? "_heavy" : "_gauss");
    });

}  // namespace
}  // namespace orinsim::quant
