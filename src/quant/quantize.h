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
  // Quantize-time fp32 mirror of outlier_values: the matvec/matmul hot loops
  // read outlier weights without converting fp16 per row per call. Derived
  // cache — excluded from storage_bytes() (model-size accounting counts the
  // canonical fp16 copy only).
  std::vector<float> outlier_f32;        // [rows, outlier_cols.size()]
  // The same values column by column, [outlier_cols.size(), rows], for the
  // matvecs' column-at-a-time outlier correction. Derived cache, as above.
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

// out[r] = sum_c W[r,c] * x[c] over the int8 + outlier parts.
// The int8 part quantizes x per-call with absmax (dynamic activation
// quantization) and accumulates in int32, faithfully mimicking LLM.int8().
void matvec_int8(const RowwiseInt8& q, std::span<const float> x, std::span<float> out);

// A dynamically-quantized activation vector: absmax INT8 codes plus the
// original FP32 view (the outlier columns multiply against full precision).
// Quantizing once and reusing it across several matrices amortizes the
// per-token activation pass — the QKV projections all consume one normed
// input, so the decode hot path quantizes it once instead of three times.
struct ActivationInt8 {
  std::vector<std::int8_t> codes;
  float scale = 1.0f;
};

// Encodes x into act (absmax over all dims, codes clamped to [-127, 127]).
// Bit-identical to the quantization matvec_int8 performs internally.
void quantize_activation_int8(std::span<const float> x, ActivationInt8& act);

// A chunk of dynamically-quantized activations: [tokens, cols] codes with one
// absmax scale per token. Reused across the QKV/O/MLP projections of a
// prefill chunk so each chunk is quantized once per consuming matrix shape
// instead of once per (matrix, token).
struct ActivationBatchInt8 {
  std::vector<std::int8_t> codes;  // [tokens, cols]
  std::vector<float> scales;       // [tokens]
  std::size_t tokens = 0;
  std::size_t cols = 0;
};

// Encodes x ([tokens, cols] row-major) into acts. Each row is quantized with
// the exact math of quantize_activation_int8, so per-token codes/scales are
// bit-identical to `tokens` independent single-vector quantizations.
void quantize_activations_int8(std::span<const float> x, std::size_t tokens,
                               std::size_t cols, ActivationBatchInt8& acts);

// Blocked multi-token variants: X is [tokens, cols] row-major, Y is
// [tokens, rows]. Each token's activation is quantized once, and every
// weight row is streamed through the cache a single time for all tokens
// (instead of `tokens` times via repeated matvecs) — the batched-decode /
// prefill amortization the multi-lane engine relies on. Per-token results
// are bit-identical to the corresponding matvec.
void matmul_int8(const RowwiseInt8& q, std::span<const float> x, std::span<float> y,
                 std::size_t tokens);

// Same, against a pre-quantized activation chunk (`x` must be the FP32 block
// acts was built from; outlier columns read it directly). The variant above
// quantizes into a scratch batch and forwards here.
void matmul_int8(const RowwiseInt8& q, std::span<const float> x,
                 const ActivationBatchInt8& acts, std::span<float> y, std::size_t tokens);

// Lane-batched int8 matvec: x/acts hold one activation column per decode
// lane ([lanes, cols]), y is [lanes, rows]. Unlike matmul_int8 (whose
// kNative outlier correction may reassociate — tolerance contract), every
// lane's result here is bit-identical to matvec_int8 at BOTH kernel levels:
// the int8 dots are exact and the outlier correction is matvec_int8's own
// (one fixed accumulation order per row over the fp32 outlier weights; at
// kScalar matmul_int8 runs it too). This is the decode-batching contract —
// lanes can be grouped arbitrarily without changing any lane's output.
void matvec_int8_multi(const RowwiseInt8& q, std::span<const float> x,
                       const ActivationBatchInt8& acts, std::span<float> y,
                       std::size_t lanes);

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
  // simd::dot_i4_i8_multi: per 32-code block, byte j holds code[j]+8 in its
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

// INT4 numerics contract: at kScalar the float reference runs (unpack +
// dequantize per block — the bit-exact reference, unchanged since the seed).
// At kNative the packed-int4 kernel multiplies int4 weight codes against
// int8-QUANTIZED activations (dynamic absmax, same codec as the int8 path),
// so native int4 carries an extra activation-quantization error beyond FMA
// tolerance — documented, and covered by the Table 3 perplexity ordering pin
// (ppl_int4 > ppl_int8 holds at both levels). Per-token results are
// bit-identical between matvec and matmul at each level (composition
// independence of the packed kernel), which is what lets chunked prefill and
// lane-batched decode share these entry points.
void matvec_int4(const BlockInt4& q, std::span<const float> x, std::span<float> out);

// matvec_int4 against a pre-quantized activation (`x` must be the vector
// `act` was built from): the decode hot path quantizes once per token and
// reuses it across Q/K/V. kScalar ignores `act` and runs the float reference.
void matvec_int4(const BlockInt4& q, std::span<const float> x,
                 const ActivationInt8& act, std::span<float> out);

// Blocked multi-token INT4 matmul (layouts as matmul_int8): each packed
// weight block is unpacked once and applied to every token.
void matmul_int4(const BlockInt4& q, std::span<const float> x, std::span<float> y,
                 std::size_t tokens);

// Same, against a pre-quantized activation chunk (shared across the fused
// QKV projections). Doubles as the lane-batched int4 decode matvec: token t
// is bit-identical to matvec_int4 on column t at both levels, for any batch.
void matmul_int4(const BlockInt4& q, std::span<const float> x,
                 const ActivationBatchInt8& acts, std::span<float> y, std::size_t tokens);

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
