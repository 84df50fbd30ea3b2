#include "quant/quantize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "tensor/simd.h"

namespace orinsim::quant {
namespace {

// Forces a kernel level for one scope (same pattern as simd_test).
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

std::vector<float> random_weights(std::size_t n, Rng& rng, double scale = 0.1) {
  std::vector<float> w(n);
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, scale));
  return w;
}

// Decodes canonical packed nibble c of row r: byte (r*cols+c)/2, low nibble
// for even c, high for odd, sign-extended from 4 bits.
int canonical_int4_code(const BlockInt4& q, std::size_t r, std::size_t c) {
  const std::uint8_t byte = q.packed[(r * q.cols + c) / 2];
  const std::uint8_t nib = (c % 2 == 0) ? (byte & 0x0F) : (byte >> 4);
  return nib >= 8 ? static_cast<int>(nib) - 16 : static_cast<int>(nib);
}

// One-row projections through the codecs' row-range bodies, over every row.
void matvec_int8(const RowwiseInt8& q, std::span<const float> x, std::span<float> out) {
  ActivationBatchInt8 acts;
  quantize_activations_int8(x, 1, q.cols, acts);
  matmul_int8(q, x, acts, out, 1, 0, q.rows);
}

void matvec_int4(const BlockInt4& q, std::span<const float> x, std::span<float> out) {
  ActivationBatchInt8 acts;
  quantize_activations_int8(x, 1, q.cols, acts);
  matmul_int4(q, x, acts, out, 1, 0, q.rows);
}

TEST(Int8Test, RoundTripErrorBounded) {
  Rng rng(1);
  const std::size_t rows = 16, cols = 64;
  auto w = random_weights(rows * cols, rng);
  const RowwiseInt8 q = quantize_rowwise_int8(w, rows, cols, 0.0f);
  std::vector<float> rec(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, rec);
    float absmax = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      absmax = std::max(absmax, std::fabs(w[r * cols + c]));
    }
    // Rounding error <= scale/2 = absmax / 254.
    for (std::size_t c = 0; c < cols; ++c) {
      EXPECT_LE(std::fabs(rec[c] - w[r * cols + c]), absmax / 254.0f + 1e-7f);
    }
  }
}

TEST(Int8Test, OutlierColumnsExactInFp16) {
  Rng rng(2);
  const std::size_t rows = 8, cols = 32;
  auto w = random_weights(rows * cols, rng, 0.05);
  // Plant outliers in column 5.
  for (std::size_t r = 0; r < rows; ++r) w[r * cols + 5] = 4.0f + static_cast<float>(r);
  const RowwiseInt8 q = quantize_rowwise_int8(w, rows, cols, 1.0f);
  ASSERT_EQ(q.outlier_cols.size(), 1u);
  EXPECT_EQ(q.outlier_cols[0], 5u);
  std::vector<float> rec(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, rec);
    // fp16 stores these values with ~0.1% error.
    EXPECT_NEAR(rec[5], w[r * cols + 5], 0.01f);
  }
}

TEST(Int8Test, OutliersDoNotPolluteRowScale) {
  Rng rng(3);
  const std::size_t rows = 4, cols = 32;
  auto w = random_weights(rows * cols, rng, 0.05);
  w[7] = 100.0f;  // enormous outlier in row 0
  const RowwiseInt8 with_outliers = quantize_rowwise_int8(w, rows, cols, 1.0f);
  const RowwiseInt8 without = quantize_rowwise_int8(w, rows, cols, 0.0f);
  // With the outlier absorbed into fp16, the int8 scale stays small and the
  // other columns keep precision; without, the scale explodes.
  EXPECT_LT(with_outliers.row_scale[0], without.row_scale[0] / 10.0f);
}

TEST(Int8Test, MatvecMatchesDequantizedReference) {
  Rng rng(4);
  const std::size_t rows = 48, cols = 64;
  auto w = random_weights(rows * cols, rng);
  w[3] = 2.5f;  // trigger the outlier path too
  const RowwiseInt8 q = quantize_rowwise_int8(w, rows, cols, 0.5f);
  auto x = random_weights(cols, rng, 1.0);
  std::vector<float> out(rows), ref(rows, 0.0f), rec(cols);
  matvec_int8(q, x, out);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, rec);
    for (std::size_t c = 0; c < cols; ++c) ref[r] += rec[c] * x[c];
  }
  // Activation quantization adds error ~ |x|max/127 per term.
  for (std::size_t r = 0; r < rows; ++r) EXPECT_NEAR(out[r], ref[r], 0.05f);
}

TEST(Int8Test, StorageBytesAccounting) {
  Rng rng(5);
  const std::size_t rows = 10, cols = 32;
  auto w = random_weights(rows * cols, rng);
  const RowwiseInt8 q = quantize_rowwise_int8(w, rows, cols, 0.0f);
  EXPECT_EQ(q.storage_bytes(), rows * cols * 1 + rows * sizeof(float));
}

TEST(Int8Test, ZeroMatrixHandled) {
  std::vector<float> w(8 * 32, 0.0f);
  const RowwiseInt8 q = quantize_rowwise_int8(w, 8, 32, 0.0f);
  std::vector<float> rec(32);
  dequantize_row(q, 0, rec);
  for (float v : rec) EXPECT_EQ(v, 0.0f);
  std::vector<float> x(32, 1.0f), out(8);
  matvec_int8(q, x, out);
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(Int4Test, RoundTripErrorBounded) {
  Rng rng(6);
  const std::size_t rows = 8, cols = 64;
  auto w = random_weights(rows * cols, rng);
  const BlockInt4 q = quantize_block_int4(w, rows, cols);
  std::vector<float> rec(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, rec);
    for (std::size_t b = 0; b < cols / kInt4Block; ++b) {
      float absmax = 0.0f;
      for (std::size_t i = 0; i < kInt4Block; ++i) {
        absmax = std::max(absmax, std::fabs(w[r * cols + b * kInt4Block + i]));
      }
      for (std::size_t i = 0; i < kInt4Block; ++i) {
        // Rounding error is scale/2 = absmax/16, except at +absmax where the
        // symmetric code range [-8, 7] clamps and the error reaches absmax/8.
        const std::size_t c = b * kInt4Block + i;
        EXPECT_LE(std::fabs(rec[c] - w[r * cols + c]), absmax / 8.0f + 5e-3f);
      }
    }
  }
}

TEST(Int4Test, CodesStayInSignedRange) {
  // Values at +absmax must clamp to 7 (not wrap); -absmax encodes as -8.
  std::vector<float> w(kInt4Block, 0.0f);
  w[0] = 1.0f;
  w[1] = -1.0f;
  const BlockInt4 q = quantize_block_int4(w, 1, kInt4Block);
  std::vector<float> rec(kInt4Block);
  dequantize_row(q, 0, rec);
  EXPECT_GT(rec[0], 0.8f);
  EXPECT_LT(rec[1], -0.8f);
}

TEST(Int4Test, MatvecMatchesDequantizedReference) {
  Rng rng(7);
  const std::size_t rows = 20, cols = 96;
  auto w = random_weights(rows * cols, rng);
  const BlockInt4 q = quantize_block_int4(w, rows, cols);
  auto x = random_weights(cols, rng, 1.0);
  std::vector<float> out(rows), rec(cols);
  std::vector<float> refs(rows, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, rec);
    for (std::size_t c = 0; c < cols; ++c) refs[r] += rec[c] * x[c];
  }
  {
    // kScalar runs the float reference path: only fp32 rounding vs the
    // dequantized-weight reference.
    ScopedLevel scalar(simd::Level::kScalar);
    matvec_int4(q, x, out);
    for (std::size_t r = 0; r < rows; ++r) EXPECT_NEAR(out[r], refs[r], 1e-3f);
  }
  {
    // kNative runs the packed kernel against int8-QUANTIZED activations
    // (documented numerics contract in quantize.h), so it carries the same
    // activation-quantization tolerance as the int8 matvec test.
    ScopedLevel native(simd::Level::kNative);
    matvec_int4(q, x, out);
    for (std::size_t r = 0; r < rows; ++r) EXPECT_NEAR(out[r], refs[r], 0.05f);
  }
}

TEST(Int4Test, AllZeroBlockQuantizesExactly) {
  // An all-zero block stores the sentinel scale 1.0 (avoiding 0/0 in encode)
  // and all-zero codes: dequantization and both matvec paths return exact
  // zeros. Mix a zero block with a nonzero one so block independence shows.
  std::vector<float> w(2 * kInt4Block, 0.0f);
  for (std::size_t i = kInt4Block; i < 2 * kInt4Block; ++i) {
    w[i] = 0.25f * static_cast<float>(i % 5);
  }
  const BlockInt4 q = quantize_block_int4(w, 1, 2 * kInt4Block);
  EXPECT_EQ(fp16_to_float(q.block_scale[0]), 1.0f);
  std::vector<float> rec(2 * kInt4Block);
  dequantize_row(q, 0, rec);
  for (std::size_t i = 0; i < kInt4Block; ++i) EXPECT_EQ(rec[i], 0.0f);
  std::vector<float> x(2 * kInt4Block, 0.0f), out(1);
  for (std::size_t i = 0; i < kInt4Block; ++i) x[i] = 1.0f;  // zero block only
  {
    ScopedLevel scalar(simd::Level::kScalar);
    matvec_int4(q, x, out);
    EXPECT_EQ(out[0], 0.0f);
  }
  {
    ScopedLevel native(simd::Level::kNative);
    matvec_int4(q, x, out);
    EXPECT_EQ(out[0], 0.0f);
  }
}

TEST(Int4Test, ClampSaturatesInPackedCodes) {
  // +absmax wants code round(8) -> clamps to +7; -absmax encodes exactly as
  // -8. Verified on the packed nibbles themselves, not via dequantization.
  std::vector<float> w(kInt4Block, 0.0f);
  w[0] = 2.0f;   // +absmax -> clamp to 7
  w[1] = -2.0f;  // -absmax -> -8
  w[2] = 1.0f;   // absmax/2 -> round(4) = 4
  const BlockInt4 q = quantize_block_int4(w, 1, kInt4Block);
  EXPECT_EQ(canonical_int4_code(q, 0, 0), 7);
  EXPECT_EQ(canonical_int4_code(q, 0, 1), -8);
  EXPECT_EQ(canonical_int4_code(q, 0, 2), 4);
  for (std::size_t c = 3; c < kInt4Block; ++c) EXPECT_EQ(canonical_int4_code(q, 0, c), 0);
}

TEST(Int4Test, PackedLayoutRoundTripsThroughDequantRow) {
  // dequant_row must agree with a by-hand decode of the packed bytes
  // (low nibble = even column, high nibble = odd column, 4-bit two's
  // complement, times the block's fp16 scale) — pins the storage layout.
  Rng rng(17);
  const std::size_t rows = 3, cols = 64;
  auto w = random_weights(rows * cols, rng);
  const BlockInt4 q = quantize_block_int4(w, rows, cols);
  std::vector<float> rec(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    dequantize_row(q, r, rec);
    for (std::size_t c = 0; c < cols; ++c) {
      const float scale = fp16_to_float(q.block_scale[r * q.blocks_per_row + c / kInt4Block]);
      EXPECT_EQ(rec[c], static_cast<float>(canonical_int4_code(q, r, c)) * scale)
          << "r=" << r << " c=" << c;
    }
  }
}

TEST(Int4Test, KernelMirrorMatchesCanonicalCodes) {
  // The nibble-plane packed_kernel mirror must hold exactly the canonical
  // codes (+8 bias, code j and j+16 sharing byte j) and scale_f32 the fp16
  // scale widened — the AVX2 kernel reads only these.
  Rng rng(18);
  const std::size_t rows = 2, cols = 96;
  auto w = random_weights(rows * cols, rng);
  const BlockInt4 q = quantize_block_int4(w, rows, cols);
  ASSERT_EQ(q.packed_kernel.size(), rows * q.blocks_per_row * simd::kInt4KernelBlockBytes);
  ASSERT_EQ(q.scale_f32.size(), q.block_scale.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t b = 0; b < q.blocks_per_row; ++b) {
      const std::size_t idx = r * q.blocks_per_row + b;
      EXPECT_EQ(q.scale_f32[idx], fp16_to_float(q.block_scale[idx]));
      const std::uint8_t* blk = q.packed_kernel.data() + idx * simd::kInt4KernelBlockBytes;
      for (std::size_t j = 0; j < simd::kInt4KernelBlockBytes; ++j) {
        const int lo = canonical_int4_code(q, r, b * kInt4Block + j) + 8;
        const int hi = canonical_int4_code(q, r, b * kInt4Block + 16 + j) + 8;
        EXPECT_EQ(blk[j] & 0x0F, lo);
        EXPECT_EQ(blk[j] >> 4, hi);
      }
    }
  }
}

TEST(Int4Test, MatvecWithActSharedAcrossCallsMatchesSelfQuantized) {
  // A batch of activations quantized once and shared across calls (as the
  // fused QKV path does) must give every row exactly the bits of that row
  // quantized and projected alone, at both levels: quantization and the
  // projection are both per-row.
  Rng rng(19);
  const std::size_t rows = 12, cols = 64, tokens = 11;
  auto w = random_weights(rows * cols, rng);
  const BlockInt4 q = quantize_block_int4(w, rows, cols);
  auto x = random_weights(tokens * cols, rng, 1.0);
  std::vector<float> shared(tokens * rows), alone(rows);
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kNative}) {
    ScopedLevel scoped(level);
    ActivationBatchInt8 acts;
    quantize_activations_int8(x, tokens, cols, acts);
    matmul_int4(q, x, acts, shared, tokens, 0, q.rows);
    for (std::size_t t = 0; t < tokens; ++t) {
      matvec_int4(q, std::span<const float>(x.data() + t * cols, cols), alone);
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(shared[t * rows + r], alone[r]) << "t=" << t << " r=" << r;
      }
    }
  }
}

TEST(Int4Test, RequiresBlockAlignedCols) {
  std::vector<float> w(2 * 33, 0.0f);
  EXPECT_THROW(quantize_block_int4(w, 2, 33), ContractViolation);
}

TEST(Int4Test, StorageIsHalfByteIsh) {
  Rng rng(8);
  const std::size_t rows = 4, cols = 128;
  auto w = random_weights(rows * cols, rng);
  const BlockInt4 q = quantize_block_int4(w, rows, cols);
  EXPECT_EQ(q.packed.size(), rows * cols / 2);
  EXPECT_EQ(q.block_scale.size(), rows * cols / kInt4Block);
}

TEST(QuantErrorTest, OrderingAcrossPrecisions) {
  // INT4 must lose more than INT8 on the same matrix; FP16 less than both.
  Rng rng(9);
  const std::size_t rows = 32, cols = 128;
  auto w = random_weights(rows * cols, rng);
  auto reconstruct_int8 = [&] {
    const RowwiseInt8 q = quantize_rowwise_int8(w, rows, cols, 0.0f);
    std::vector<float> rec(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
      dequantize_row(q, r, std::span<float>(rec.data() + r * cols, cols));
    }
    return rec;
  };
  auto reconstruct_int4 = [&] {
    const BlockInt4 q = quantize_block_int4(w, rows, cols);
    std::vector<float> rec(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
      dequantize_row(q, r, std::span<float>(rec.data() + r * cols, cols));
    }
    return rec;
  };
  auto f16 = quantize_fp16(w);
  std::vector<float> rec16(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) rec16[i] = fp16_to_float(f16[i]);

  const QuantError e16 = measure_error(w, rec16);
  const QuantError e8 = measure_error(w, reconstruct_int8());
  const QuantError e4 = measure_error(w, reconstruct_int4());
  EXPECT_LT(e16.rmse, e8.rmse);
  EXPECT_LT(e8.rmse, e4.rmse);
  EXPECT_LT(e16.relative_fro, 0.001);
  EXPECT_LT(e8.relative_fro, 0.01);
  EXPECT_LT(e4.relative_fro, 0.1);
}

// Quantizes `rows` ([tokens, cols]) at `level`.
ActivationBatchInt8 quantize_at(simd::Level level, const std::vector<float>& rows,
                                std::size_t tokens, std::size_t cols) {
  ScopedLevel scoped(level);
  ActivationBatchInt8 acts;
  quantize_activations_int8(rows, tokens, cols, acts);
  return acts;
}

// The native twin of the activation quantizer (simd::quantize_row_i8) must
// produce the scalar loop's codes and scales bit for bit: exact .5 ties
// after the division, +-absmax, -0.0, denormals, all-zero rows, every tail
// width, in 1- and 32-token batches.
TEST(ActivationQuantTest, NativeTwinMatchesScalarBitwise) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  Rng rng(61);
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (std::size_t cols : {5u, 13u, 127u, 128u, 449u}) {
    std::vector<std::vector<float>> kinds;
    // Absmax 127 makes the scale exactly 1 and absmax 254 exactly 2, so
    // every k + 0.5 (times the scale) is a tie after the division.
    for (float unit : {1.0f, 2.0f}) {
      std::vector<float> ties(cols);
      for (std::size_t c = 0; c < cols; ++c) {
        const float mag = static_cast<float>(c % 127) + 0.5f;
        ties[c] = unit * (c % 2 == 0 ? mag : -mag);
      }
      ties[0] = unit * 127.0f;
      ties[1] = unit * 2.5f;
      ties[2] = unit * -126.5f;
      ties[3] = unit * 0.5f;
      ties[4] = unit * -0.5f;
      kinds.push_back(ties);
    }
    // Edge values: +-absmax, -0.0 and denormals among random entries.
    std::vector<float> edges(cols);
    for (auto& v : edges) v = static_cast<float>(std::clamp(rng.normal(0.0, 0.5), -1.9, 1.9));
    edges[0] = -2.0f;
    edges[cols - 1] = 2.0f;
    edges[1] = -0.0f;
    edges[2] = denorm;
    edges[3] = -1e-40f;
    kinds.push_back(edges);
    kinds.emplace_back(cols, 0.0f);   // scale 1, all codes 0
    kinds.emplace_back(cols, -0.0f);  // likewise
    // Denormals only: absmax / 127 is still a (denormal) nonzero scale.
    std::vector<float> tiny(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      tiny[c] = static_cast<float>(c % 7) * (c % 2 == 0 ? 1e-41f : -1e-41f);
    }
    tiny[0] = 1e-39f;
    kinds.push_back(tiny);

    for (std::size_t tokens : {1u, 32u}) {
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::vector<float> batch;
        for (std::size_t t = 0; t < tokens; ++t) {
          if (t % 2 == 0) {
            const auto& row = kinds[(k + t / 2) % kinds.size()];
            batch.insert(batch.end(), row.begin(), row.end());
          } else {
            for (std::size_t c = 0; c < cols; ++c) {
              batch.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
            }
          }
        }
        const auto ref = quantize_at(simd::Level::kScalar, batch, tokens, cols);
        const auto got = quantize_at(simd::Level::kNative, batch, tokens, cols);
        const std::string where =
            "cols " + std::to_string(cols) + " tokens " + std::to_string(tokens) + " kind " +
            std::to_string(k);
        ASSERT_EQ(got.codes, ref.codes) << where;
        ASSERT_EQ(got.scales.size(), ref.scales.size()) << where;
        for (std::size_t t = 0; t < tokens; ++t) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got.scales[t]),
                    std::bit_cast<std::uint32_t>(ref.scales[t]))
              << where << " token " << t;
        }
      }
    }
  }
  // The reference itself rounds ties away from zero and maps a zero row to
  // scale 1.
  std::vector<float> row = {127.0f, 2.5f, -126.5f, 0.5f, -0.5f};
  const auto acts = quantize_at(simd::Level::kScalar, row, 1, row.size());
  EXPECT_EQ(acts.codes, (std::vector<std::int8_t>{127, 3, -127, 1, -1}));
  EXPECT_EQ(acts.scales[0], 1.0f);
  EXPECT_EQ(quantize_at(simd::Level::kScalar, std::vector<float>(13, 0.0f), 1, 13).scales[0],
            1.0f);
}

}  // namespace
}  // namespace orinsim::quant
