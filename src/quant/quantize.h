// Quantization codecs used by the study.
//
//  - RowwiseInt8: per-row absmax symmetric INT8, with optional outlier-column
//    decomposition following LLM.int8() (Dettmers et al., NeurIPS 2022): any
//    column whose magnitude anywhere exceeds `outlier_threshold` is removed
//    from the int8 matrix and kept at full FP16 precision; the matmul adds
//    the two parts. This is the codec BitsAndBytes applies in the paper.
//  - BlockInt4: per-32-element-block absmax symmetric INT4 (Q4-style),
//    two codes per byte plus an FP16 scale per block.
//
// Both codecs quantize *weights*; activations are quantized per-token inside
// the INT8 matmul (dynamic absmax), as LLM.int8() does.
//
// Each codec has one projection body, matmul_int8 / matmul_int4: weight rows
// [r0, r1) of Y over any number of activation rows (a prefill chunk, decode
// lanes or one row), on the calling thread; quant::matmul_group splits the
// rows over the kernel pool. Row t's result is bit-identical to a one-row
// call on row t at both kernel levels, whatever rows share the call
// (composition independence), and each Y element is the same op sequence
// whatever range it falls in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/fp16.h"

namespace orinsim::quant {

// Per-row absmax INT8 matrix of shape [rows, cols_kept] plus FP16 outlier
// columns. Weight layout is [out_features, in_features].
struct RowwiseInt8 {
  std::size_t rows = 0;
  std::size_t cols = 0;                  // original column count
  std::vector<std::int8_t> codes;        // [rows, cols] with outlier cols zeroed
  std::vector<float> row_scale;          // [rows]; dequant w = code * scale
  std::vector<std::uint32_t> outlier_cols;  // sorted column indices kept in fp16
  std::vector<fp16_t> outlier_values;    // [rows, outlier_cols.size()] column-major-by-row
  // Quantize-time fp32 mirror of outlier_values: the matmul hot loops read
  // outlier weights without converting fp16 per row per call. Derived cache —
  // excluded from storage_bytes() (model-size accounting counts the
  // canonical fp16 copy only). Row by row for the kNative per-row dot.
  std::vector<float> outlier_f32;        // [rows, outlier_cols.size()]
  // The same values column by column, [outlier_cols.size(), rows], for the
  // kScalar column-at-a-time outlier correction. Derived cache, as above.
  std::vector<float> outlier_f32_by_col;

  std::size_t storage_bytes() const noexcept;
};

// outlier_threshold: columns with any |w| >= threshold become fp16 outliers.
// LLM.int8() uses 6.0 on activations; for weights we use a multiple of the
// per-matrix stddev, passed in by the caller. threshold <= 0 disables the
// outlier path (plain rowwise int8).
RowwiseInt8 quantize_rowwise_int8(std::span<const float> weights, std::size_t rows,
                                  std::size_t cols, float outlier_threshold);

// Dequantize a single row (including outliers) into out[cols].
void dequantize_row(const RowwiseInt8& q, std::size_t row, std::span<float> out);

// A block of dynamically-quantized activations: [tokens, cols] codes with one
// absmax scale per token. Quantizing once and reusing it across matrices
// amortizes the activation pass — the fused QKV projection quantizes its
// normed input once for all three.
struct ActivationBatchInt8 {
  std::vector<std::int8_t> codes;  // [tokens, cols]
  std::vector<float> scales;       // [tokens]
  std::size_t tokens = 0;
  std::size_t cols = 0;
};

// Encodes x ([tokens, cols] row-major) into acts: per token, absmax over all
// dims, codes clamped to [-127, 127]. A token's codes and scale depend only
// on that token.
void quantize_activations_int8(std::span<const float> x, std::size_t tokens,
                               std::size_t cols, ActivationBatchInt8& acts);

// Y[t, r] = sum_c W[r,c] * X[t,c] over the int8 + outlier parts, for r in
// [r0, r1). X is [tokens, cols], Y is [tokens, rows]; acts must be X
// quantized by quantize_activations_int8 (the outlier columns read X
// itself). The int8 part accumulates exactly in integers, as LLM.int8()
// does; each weight row is streamed once for every token. The outlier
// correction is one fixed float sequence per (row, token): at kScalar the
// reference order (fp32 outlier weights added to the scaled int8 dot,
// outlier column ascending), at kNative one SIMD dot over the token's
// packed outlier activations.
void matmul_int8(const RowwiseInt8& q, std::span<const float> x,
                 const ActivationBatchInt8& acts, std::span<float> y, std::size_t tokens,
                 std::size_t r0, std::size_t r1);

// Block-wise INT4. Each block of kInt4Block consecutive weights (within a
// row) shares one FP16 absmax scale; codes are signed 4-bit in [-8, 7].
inline constexpr std::size_t kInt4Block = 32;

struct BlockInt4 {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t blocks_per_row = 0;
  std::vector<std::uint8_t> packed;  // two codes per byte, row-major blocks
  std::vector<fp16_t> block_scale;   // [rows * blocks_per_row]
  // Quantize-time mirrors in the kernel layout consumed by
  // simd::matmul_i4_i8: per 32-code block, byte j holds code[j]+8 in its
  // low nibble and code[j+16]+8 in its high nibble (nibble-plane layout — a
  // vpand/vpsrlw pair unpacks straight to activation order, no shuffles),
  // plus fp32 block scales so the per-block fixup skips fp16 conversion.
  // Derived caches — excluded from storage_bytes().
  std::vector<std::uint8_t> packed_kernel;  // [rows * blocks_per_row * 16]
  std::vector<float> scale_f32;             // [rows * blocks_per_row]

  std::size_t storage_bytes() const noexcept;
};

BlockInt4 quantize_block_int4(std::span<const float> weights, std::size_t rows,
                              std::size_t cols);

void dequantize_row(const BlockInt4& q, std::size_t row, std::span<float> out);

// Rows [r0, r1) of Y = W X for X [tokens, cols], Y [tokens, rows]. At kScalar the float
// reference runs on X (unpack + dequantize per block — the bit-exact
// reference, unchanged since the seed; acts is not read). At kNative the
// packed-int4 kernel multiplies int4 weight codes against acts, the
// int8-QUANTIZED X (dynamic absmax, same codec as the int8 path), so native
// int4 carries an extra activation-quantization error beyond FMA tolerance —
// documented, and covered by the Table 3 perplexity ordering pin
// (ppl_int4 > ppl_int8 holds at both levels). The native branch is one
// simd::matmul_i4_i8 call over the range, which unpacks each packed weight
// block once per register tile of up to 8 tokens.
void matmul_int4(const BlockInt4& q, std::span<const float> x,
                 const ActivationBatchInt8& acts, std::span<float> y, std::size_t tokens,
                 std::size_t r0, std::size_t r1);

// FP16 cast of a full matrix (round-to-nearest-even).
std::vector<fp16_t> quantize_fp16(std::span<const float> weights);

// Quantization error metrics (for tests and the quantization_explorer example).
struct QuantError {
  double max_abs = 0.0;
  double rmse = 0.0;
  double relative_fro = 0.0;  // ||W - What||_F / ||W||_F
};

QuantError measure_error(std::span<const float> original, std::span<const float> reconstructed);

}  // namespace orinsim::quant
