#include "quant/quantize.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "tensor/simd.h"

namespace orinsim::quant {

std::size_t RowwiseInt8::storage_bytes() const noexcept {
  return codes.size() * sizeof(std::int8_t) + row_scale.size() * sizeof(float) +
         outlier_cols.size() * sizeof(std::uint32_t) + outlier_values.size() * sizeof(fp16_t);
}

RowwiseInt8 quantize_rowwise_int8(std::span<const float> weights, std::size_t rows,
                                  std::size_t cols, float outlier_threshold) {
  ORINSIM_CHECK(weights.size() == rows * cols, "int8 quantize: shape mismatch");
  RowwiseInt8 q;
  q.rows = rows;
  q.cols = cols;

  // Pass 1: find outlier columns (any element with |w| >= threshold).
  std::vector<char> is_outlier(cols, 0);
  if (outlier_threshold > 0.0f) {
    for (std::size_t r = 0; r < rows; ++r) {
      const float* w = weights.data() + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        if (std::fabs(w[c]) >= outlier_threshold) is_outlier[c] = 1;
      }
    }
  }
  for (std::size_t c = 0; c < cols; ++c) {
    if (is_outlier[c]) q.outlier_cols.push_back(static_cast<std::uint32_t>(c));
  }
  const std::size_t n_out = q.outlier_cols.size();

  // Pass 2: per-row absmax over non-outlier columns, then encode.
  q.codes.assign(rows * cols, 0);
  q.row_scale.assign(rows, 0.0f);
  q.outlier_values.assign(rows * n_out, fp16_t{0});
  for (std::size_t r = 0; r < rows; ++r) {
    const float* w = weights.data() + r * cols;
    float absmax = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      if (!is_outlier[c]) absmax = std::max(absmax, std::fabs(w[c]));
    }
    const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    q.row_scale[r] = scale;
    std::int8_t* codes = q.codes.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (is_outlier[c]) continue;  // stays 0 in the int8 part
      const float v = w[c] / scale;
      const int rounded = static_cast<int>(std::lround(v));
      codes[c] = static_cast<std::int8_t>(std::clamp(rounded, -127, 127));
    }
    for (std::size_t o = 0; o < n_out; ++o) {
      q.outlier_values[r * n_out + o] = float_to_fp16(w[q.outlier_cols[o]]);
    }
  }
  // fp32 mirror of the outlier weights, converted once at quantize time so
  // no matmul call pays a per-row fp16 conversion.
  q.outlier_f32.resize(q.outlier_values.size());
  q.outlier_f32_by_col.resize(q.outlier_values.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t o = 0; o < n_out; ++o) {
      const float v = fp16_to_float(q.outlier_values[r * n_out + o]);
      q.outlier_f32[r * n_out + o] = v;
      q.outlier_f32_by_col[o * rows + r] = v;
    }
  }
  return q;
}

void dequantize_row(const RowwiseInt8& q, std::size_t row, std::span<float> out) {
  ORINSIM_CHECK(row < q.rows && out.size() == q.cols, "int8 dequant: shape mismatch");
  const std::int8_t* codes = q.codes.data() + row * q.cols;
  const float scale = q.row_scale[row];
  for (std::size_t c = 0; c < q.cols; ++c) out[c] = static_cast<float>(codes[c]) * scale;
  const std::size_t n_out = q.outlier_cols.size();
  for (std::size_t o = 0; o < n_out; ++o) {
    out[q.outlier_cols[o]] = fp16_to_float(q.outlier_values[row * n_out + o]);
  }
}

void quantize_activations_int8(std::span<const float> x, std::size_t tokens,
                               std::size_t cols, ActivationBatchInt8& acts) {
  ORINSIM_CHECK(x.size() == tokens * cols, "activation batch quantize: shape mismatch");
  acts.tokens = tokens;
  acts.cols = cols;
  acts.codes.resize(tokens * cols);
  acts.scales.resize(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    acts.scales[t] = simd::quantize_row_i8(x.data() + t * cols, cols, acts.codes.data() + t * cols);
  }
}

namespace {

constexpr std::size_t kTokenTile = 8;  // tokens per stack tile of the projections
constexpr std::size_t kRowChunk = 64;  // rows per outlier sweep of the scalar int8 path

// kScalar: rows [r0, r1) of W x for `tokens` (<= kTokenTile) activation rows
// x/codes/scales, into y[i * y_stride + r]. The int8 dots are exact; the
// outlier part adds w[r, o] * x[col_o] in full precision over the original
// activations, o ascending, so every (token, row) sum has one fixed order.
// Running o outermost over the column-major outlier_f32_by_col turns it into
// one contiguous axpy per outlier column — the rows' independent sums
// advance side by side instead of one latency-bound chain at a time.
void int8_rows(const RowwiseInt8& q, std::size_t r0, std::size_t r1, const float* x,
               const std::int8_t* codes, const float* scales, std::size_t tokens, float* y,
               std::size_t y_stride) {
  std::int64_t dots[kTokenTile];
  for (std::size_t r = r0; r < r1; ++r) {
    simd::dot_i8_multi(q.codes.data() + r * q.cols, codes, q.cols, tokens, q.cols, dots);
    for (std::size_t i = 0; i < tokens; ++i) {
      y[i * y_stride + r] = static_cast<float>(dots[i]) * q.row_scale[r] * scales[i];
    }
  }
  for (std::size_t o = 0; o < q.outlier_cols.size(); ++o) {
    const float* w = q.outlier_f32_by_col.data() + o * q.rows;
    for (std::size_t i = 0; i < tokens; ++i) {
      const float xo = x[i * q.cols + q.outlier_cols[o]];
      float* yi = y + i * y_stride;
      for (std::size_t r = r0; r < r1; ++r) yi[r] += w[r] * xo;
    }
  }
}

}  // namespace

void matmul_int8(const RowwiseInt8& q, std::span<const float> x,
                 const ActivationBatchInt8& acts, std::span<float> y, std::size_t tokens,
                 std::size_t r0, std::size_t r1) {
  ORINSIM_CHECK(x.size() == tokens * q.cols && y.size() == tokens * q.rows && r0 <= r1 &&
                    r1 <= q.rows,
                "int8 matmul: shape mismatch");
  ORINSIM_CHECK(acts.tokens == tokens && acts.cols == q.cols,
                "int8 matmul: activation batch shape mismatch");
  if (simd::active_level() != simd::Level::kNative) {
    for (std::size_t r = r0; r < r1; r += kRowChunk) {
      for (std::size_t t0 = 0; t0 < tokens; t0 += kTokenTile) {
        int8_rows(q, r, std::min(r + kRowChunk, r1), x.data() + t0 * q.cols,
                  acts.codes.data() + t0 * q.cols, acts.scales.data() + t0,
                  std::min(kTokenTile, tokens - t0), y.data() + t0 * q.rows, q.rows);
      }
    }
    return;
  }

  // kNative: pack each token's outlier-column activations once per call
  // (per range of rows, into a per-thread buffer), so the per-(row, token)
  // correction is one SIMD dot over two contiguous arrays. (With the heavy-tailed init most columns of a large matrix carry
  // at least one outlier element, so this rivals the int8 dots in work.)
  const std::size_t n_out = q.outlier_cols.size();
  thread_local std::vector<float> x_out;
  x_out.resize(tokens * n_out);
  for (std::size_t t = 0; t < tokens && n_out > 0; ++t) {
    const float* xt = x.data() + t * q.cols;
    float* dst = x_out.data() + t * n_out;
    for (std::size_t o = 0; o < n_out; ++o) dst[o] = xt[q.outlier_cols[o]];
  }
  std::int64_t dots[kTokenTile];
  float outliers[kTokenTile];
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int8_t* codes = q.codes.data() + r * q.cols;
    const float* w_out = q.outlier_f32.data() + r * n_out;
    for (std::size_t t0 = 0; t0 < tokens; t0 += kTokenTile) {
      const std::size_t tile = std::min(kTokenTile, tokens - t0);
      // Both multi-column dots equal their single-column kernel per
      // token, so a token's sum does not depend on the tile it lands in.
      simd::dot_i8_multi(codes, acts.codes.data() + t0 * q.cols, q.cols, tile, q.cols, dots);
      simd::dot_f32_multi(w_out, x_out.data() + t0 * n_out, n_out, tile, n_out, outliers);
      for (std::size_t t = 0; t < tile; ++t) {
        y[(t0 + t) * q.rows + r] =
            static_cast<float>(dots[t]) * q.row_scale[r] * acts.scales[t0 + t] + outliers[t];
      }
    }
  }
}

std::size_t BlockInt4::storage_bytes() const noexcept {
  return packed.size() + block_scale.size() * sizeof(fp16_t);
}

namespace {
constexpr std::int8_t kInt4Min = -8;
constexpr std::int8_t kInt4Max = 7;

std::int8_t unpack_lo(std::uint8_t byte) {
  return static_cast<std::int8_t>(static_cast<std::int8_t>(byte << 4) >> 4);
}
std::int8_t unpack_hi(std::uint8_t byte) { return static_cast<std::int8_t>(byte) >> 4; }

static_assert(kInt4Block == simd::kInt4KernelBlock,
              "packed-int4 kernel layout assumes the quantizer's block size");

// Signed code at column c of row r, decoded from the canonical packed layout.
std::int8_t int4_code(const BlockInt4& q, std::size_t r, std::size_t c) {
  const std::uint8_t byte = q.packed[(r * q.cols + c) / 2];
  return (c % 2 == 0) ? unpack_lo(byte) : unpack_hi(byte);
}
}  // namespace

BlockInt4 quantize_block_int4(std::span<const float> weights, std::size_t rows,
                              std::size_t cols) {
  ORINSIM_CHECK(weights.size() == rows * cols, "int4 quantize: shape mismatch");
  ORINSIM_CHECK(cols % kInt4Block == 0, "int4 quantize: cols must be a multiple of 32");
  BlockInt4 q;
  q.rows = rows;
  q.cols = cols;
  q.blocks_per_row = cols / kInt4Block;
  q.packed.assign(rows * cols / 2, 0);
  q.block_scale.assign(rows * q.blocks_per_row, fp16_t{0});

  for (std::size_t r = 0; r < rows; ++r) {
    const float* w = weights.data() + r * cols;
    for (std::size_t b = 0; b < q.blocks_per_row; ++b) {
      const float* blk = w + b * kInt4Block;
      float absmax = 0.0f;
      for (std::size_t i = 0; i < kInt4Block; ++i) absmax = std::max(absmax, std::fabs(blk[i]));
      const float scale = absmax > 0.0f ? absmax / 8.0f : 1.0f;
      q.block_scale[r * q.blocks_per_row + b] = float_to_fp16(scale);
      const float dec_scale = fp16_to_float(q.block_scale[r * q.blocks_per_row + b]);
      for (std::size_t i = 0; i < kInt4Block; i += 2) {
        auto encode = [&](float v) {
          const int code = static_cast<int>(std::lround(v / dec_scale));
          return static_cast<std::int8_t>(
              std::clamp(code, static_cast<int>(kInt4Min), static_cast<int>(kInt4Max)));
        };
        const std::int8_t lo = encode(blk[i]);
        const std::int8_t hi = encode(blk[i + 1]);
        q.packed[(r * cols + b * kInt4Block + i) / 2] =
            static_cast<std::uint8_t>((static_cast<std::uint8_t>(hi) << 4) |
                                      (static_cast<std::uint8_t>(lo) & 0x0F));
      }
    }
  }

  // Build the kernel-layout mirrors for the packed AVX2 path: nibble-plane
  // bytes (code j and code j+16 of each block share byte j, biased by +8 into
  // [0, 15]) plus fp32 block scales.
  q.packed_kernel.assign(rows * q.blocks_per_row * simd::kInt4KernelBlockBytes, 0);
  q.scale_f32.assign(q.block_scale.size(), 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t b = 0; b < q.blocks_per_row; ++b) {
      const std::size_t idx = r * q.blocks_per_row + b;
      q.scale_f32[idx] = fp16_to_float(q.block_scale[idx]);
      std::uint8_t* dst = q.packed_kernel.data() + idx * simd::kInt4KernelBlockBytes;
      for (std::size_t j = 0; j < simd::kInt4KernelBlockBytes; ++j) {
        const auto lo = static_cast<std::uint8_t>(int4_code(q, r, b * kInt4Block + j) + 8);
        const auto hi = static_cast<std::uint8_t>(int4_code(q, r, b * kInt4Block + 16 + j) + 8);
        dst[j] = static_cast<std::uint8_t>((hi << 4) | (lo & 0x0F));
      }
    }
  }
  return q;
}

void dequantize_row(const BlockInt4& q, std::size_t row, std::span<float> out) {
  ORINSIM_CHECK(row < q.rows && out.size() == q.cols, "int4 dequant: shape mismatch");
  for (std::size_t b = 0; b < q.blocks_per_row; ++b) {
    const float scale = fp16_to_float(q.block_scale[row * q.blocks_per_row + b]);
    for (std::size_t i = 0; i < kInt4Block; i += 2) {
      const std::uint8_t byte = q.packed[(row * q.cols + b * kInt4Block + i) / 2];
      out[b * kInt4Block + i] = static_cast<float>(unpack_lo(byte)) * scale;
      out[b * kInt4Block + i + 1] = static_cast<float>(unpack_hi(byte)) * scale;
    }
  }
}

void matmul_int4(const BlockInt4& q, std::span<const float> x,
                 const ActivationBatchInt8& acts, std::span<float> y, std::size_t tokens,
                 std::size_t r0, std::size_t r1) {
  ORINSIM_CHECK(x.size() == tokens * q.cols && y.size() == tokens * q.rows && r0 <= r1 &&
                    r1 <= q.rows,
                "int4 matmul: shape mismatch");
  if (simd::active_level() == simd::Level::kNative) {
    ORINSIM_CHECK(acts.tokens == tokens && acts.cols == q.cols,
                  "int4 matmul: activation batch shape mismatch");
    simd::matmul_i4_i8(q.packed_kernel.data(), q.scale_f32.data(), q.blocks_per_row, r0, r1,
                       acts.codes.data(), acts.scales.data(), tokens, y.data(), q.rows);
    return;
  }
  // Scalar float reference: tile tokens so per-token block accumulators live
  // in registers/stack while each packed weight byte is unpacked once per
  // tile; every token runs the same float sequence.
  for (std::size_t r = r0; r < r1; ++r) {
    for (std::size_t t0 = 0; t0 < tokens; t0 += kTokenTile) {
      const std::size_t tile = std::min(kTokenTile, tokens - t0);
      float acc[kTokenTile] = {};
      for (std::size_t b = 0; b < q.blocks_per_row; ++b) {
        const float scale = fp16_to_float(q.block_scale[r * q.blocks_per_row + b]);
        float blk_acc[kTokenTile] = {};
        for (std::size_t i = 0; i < kInt4Block; i += 2) {
          const std::uint8_t byte = q.packed[(r * q.cols + b * kInt4Block + i) / 2];
          const float lo = static_cast<float>(unpack_lo(byte));
          const float hi = static_cast<float>(unpack_hi(byte));
          for (std::size_t t = 0; t < tile; ++t) {
            const float* xb = x.data() + (t0 + t) * q.cols + b * kInt4Block;
            blk_acc[t] += lo * xb[i];
            blk_acc[t] += hi * xb[i + 1];
          }
        }
        for (std::size_t t = 0; t < tile; ++t) acc[t] += blk_acc[t] * scale;
      }
      for (std::size_t t = 0; t < tile; ++t) y[(t0 + t) * q.rows + r] = acc[t];
    }
  }
}

std::vector<fp16_t> quantize_fp16(std::span<const float> weights) {
  std::vector<fp16_t> out(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) out[i] = float_to_fp16(weights[i]);
  return out;
}

QuantError measure_error(std::span<const float> original,
                         std::span<const float> reconstructed) {
  ORINSIM_CHECK(original.size() == reconstructed.size(), "measure_error: size mismatch");
  QuantError e;
  double se = 0.0, ref_sq = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double d = static_cast<double>(original[i]) - reconstructed[i];
    e.max_abs = std::max(e.max_abs, std::fabs(d));
    se += d * d;
    ref_sq += static_cast<double>(original[i]) * original[i];
  }
  if (!original.empty()) e.rmse = std::sqrt(se / static_cast<double>(original.size()));
  e.relative_fro = ref_sq > 0.0 ? std::sqrt(se / ref_sq) : 0.0;
  return e;
}

}  // namespace orinsim::quant
