// Runtime-dispatched SIMD kernels.
//
// Every kernel here has two implementations: a scalar reference (the exact
// accumulation order the engine has always used — bit-for-bit reproducible on
// any host) and, on x86-64, an AVX2/FMA variant compiled with per-function
// target attributes so the translation unit builds without global -march
// flags. The active implementation is chosen once, at first use:
//
//   ORINSIM_KERNELS=scalar   force the scalar reference
//   ORINSIM_KERNELS=native   force SIMD (fails fast if the CPU lacks AVX2)
//   unset / empty            auto: native when the CPU supports AVX2+FMA
//   anything else            warning to stderr, then auto (see init())
//
// Determinism contract: `scalar` is the bit-exact reference; `native` is
// numerically equivalent within one tolerance for fp32 kernels and bit-exact
// for integer kernels (dot_i8 does the same exact integer math in a
// different order). The tolerance has two sources: FMA/reassociation in the
// dot products, and the in-tree vector exp (at most 2 ulp of libm's, see
// "Vector exp" below) behind softmax, SiLU/SwiGLU and GELU. The scalar level
// keeps libm's std::exp and std::tanh. Within one level every kernel is a
// fixed float sequence per output. "Bit-identical" below holds for every
// non-NaN result; a NaN stays a NaN, but its payload is outside the
// contract (the compiler may commute an add, and the payload of NaN + NaN
// depends on the operand order).
//
// Multi-column kernels: one weight row is streamed against N activation
// columns (the rows of a prefill chunk, decode lanes or a single row). Their
// contract is *composition independence*: column t's result is bit-identical
// to the corresponding single-column kernel at the active level, for every N
// and every position within the batch. The projections in quant/ and
// kernels:: build on these alone, so a row's result never depends on which
// rows share the call — chunked prefill, lane-batched decode and width-1
// steps agree bit-for-bit at either level.
#pragma once

#include <cstddef>
#include <cstdint>

namespace orinsim::simd {

enum class Level {
  kScalar,  // portable reference, bit-exact accumulation order
  kNative,  // AVX2/FMA
};

// Currently active level (env-resolved on first call, set_level thereafter).
Level active_level();

// Explicit idempotent initialization: resolves ORINSIM_KERNELS (validating
// the value — unknown strings warn on stderr and fall back to auto) and
// returns the resulting level. Lazily invoked by active_level() otherwise.
Level init();

// Parse one ORINSIM_KERNELS value ("scalar" / "native" / empty / nullptr for
// auto). Unknown values print a one-line stderr warning listing the accepted
// values and resolve to auto-detection. Pure apart from the warning; exposed
// so tests can exercise the validation without re-resolving the process env.
Level resolve_level(const char* value);

// True when this CPU can run the kNative kernels (AVX2 + FMA).
bool native_available();

// Override the active level at runtime (benches/tests toggle both paths in
// one process). Setting kNative on a CPU without AVX2 is a fatal error.
void set_level(Level level);

const char* level_name(Level level);

// Dot product, fp32 accumulate. Scalar: acc += a[i]*b[i] in index order.
float dot_f32(const float* a, const float* b, std::size_t n);

// Dot product over int8 codes, exact i64 result (both levels bit-identical).
// Domain: codes in [-127, 127] — the absmax quantizers' clamp range. -128 is
// outside the contract (the AVX2 sign trick would wrap on abs(-128)).
std::int64_t dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n);

// Multi-column fp32 dot: out[t] = dot(w, x + t*x_stride) for t < n_cols.
// Each column is the EXACT float sequence of dot_f32 at the active level
// (the AVX2 path replicates dot_f32_avx2's unroll, reduction and tail per
// column while sharing the weight loads), so batching lanes never changes a
// lane's result — at kScalar AND kNative.
void dot_f32_multi(const float* w, const float* x, std::size_t x_stride,
                   std::size_t n_cols, std::size_t n, float* out);

// Multi-row fp32 dot: out[r] = dot_f32(w + r * w_stride, x, n) for
// r < n_rows, the exact float sequence of dot_f32 per row at the active
// level. The AVX2 path runs four rows per pass, loading each slice of x
// once for all four; the rows fold in one transposed horizontal sum that
// performs dot_f32_avx2's adds per row on the same operands.
void dot_f32_rows(const float* w, std::size_t w_stride, std::size_t n_rows, const float* x,
                  std::size_t n, float* out);

// Multi-column int8 dot: out[t] = dot_i8(w, x + t*x_stride). Exact integer
// math — bit-identical to per-column dot_i8 at both levels by construction.
void dot_i8_multi(const std::int8_t* w, const std::int8_t* x, std::size_t x_stride,
                  std::size_t n_cols, std::size_t n, std::int64_t* out);

// ---------------------------------------------------------------------------
// Packed-int4 kernel. Operates directly on the nibble-plane kernel layout
// built by quantize_block_int4 (quant/quantize.h): each 32-code block is 16
// bytes where byte j holds code[j]+8 in its low nibble and code[j+16]+8 in
// its high nibble. A vpand/vpsrlw pair therefore unpacks straight into
// activation order with no shuffles, and the +8 bias is removed with one
// vpsubb. Codes are in [-8, 7]; activations are int8 codes in [-127, 127]
// (same domain contract as dot_i8), so the maddubs u8*s8 pair sums peak at
// 2 * 8 * 127 = 2032 — far inside i16. One weight row against token t:
//
//   out[t] = sum_b float(idot(w_block_b, x_t_block_b)) * scales[b]
//
// This kernel IS the int4 native path; the scalar level never calls it.

// Codes per block and packed bytes per block of the kernel layout.
inline constexpr std::size_t kInt4KernelBlock = 32;
inline constexpr std::size_t kInt4KernelBlockBytes = 16;

// Rows [r0, r1) of a packed-int4 projection over `tokens` activation rows:
//
//   y[t * y_stride + r] = out[t] of row r * x_scales[t]
//
// where row r is w_packed + r * blocks * kInt4KernelBlockBytes with scales
// + r * blocks, and token t is x + t * blocks * kInt4KernelBlock. Tokens run
// in tiles of 8. A tile of 2-8 tokens keeps its accumulators in registers
// (one instantiation per width), unpacks each weight block once for the
// tile and folds the tile in one transposed horizontal sum that performs
// each token's adds of the one-token kernel; a one-token tile runs the
// one-token kernel. Every (row, token) is therefore bit-identical to a
// one-token call (composition independence, same contract as the *_multi
// kernels), and y outside rows [r0, r1) is not written. AVX2 when the CPU
// has it, else the portable mirror.
void matmul_i4_i8(const std::uint8_t* w_packed, const float* scales, std::size_t blocks,
                  std::size_t r0, std::size_t r1, const std::int8_t* x, const float* x_scales,
                  std::size_t tokens, float* y, std::size_t y_stride);

// Portable mirror of the AVX2 kernel for one weight row against n_cols
// tokens (x + t * x_stride), without the activation scale: the same 8
// per-lane fma chains (std::fma — single rounding, like vfmaddps) and the
// same horizontal-sum order, so it is bit-identical to the AVX2 variant on
// any host. Slow; non-x86 fallback and test reference only.
void dot_i4_i8_multi_ref(const std::uint8_t* w_packed, const float* scales,
                         std::size_t blocks, const std::int8_t* x, std::size_t x_stride,
                         std::size_t n_cols, float* out);

// ---------------------------------------------------------------------------
// Native twins. At kNative the kernels below produce the SAME bits as the
// code they replace at that level; they exist only to be faster, never to
// change a result.

// Absmax int8 quantization of one row: returns scale = absmax(x) / 127 (1
// for an all-zero row) and writes codes[i] = clamp(lround(x[i] / scale),
// -127, 127). The AVX2 twin matches the scalar loop bit for bit: the absmax
// is order-free, the division is IEEE, and round-half-away-from-zero is
// trunc(v) plus sign(v) when |v - trunc(v)| >= 0.5. Domain: finite x. The
// codec of dynamic activation quantization and of the INT8 KV cache.
float quantize_row_i8(const float* x, std::size_t n, std::int8_t* codes);

// ---------------------------------------------------------------------------
// Vector exp, and softmax / SiLU / SwiGLU / GELU on it. These are not twins:
// at kScalar they run libm (std::exp, std::tanh), as the engine always has;
// at kNative they run one in-tree 8-lane exp (Cephes-style range reduction
// with a two-constant ln 2, exp(r) = 1 + r + r^2 P(r) with six coefficients,
// a 2^n exponent splice; no table). Its rules at kNative:
//
//   - within 2 ulp of std::exp for x in [ln FLT_MIN, ln FLT_MAX];
//   - exp(-inf) = +0, and x < kExpFlushBelow gives +0: results below
//     FLT_MIN flush to zero where libm returns a subnormal;
//   - x > ln FLT_MAX overflows to +inf, as libm does (no finite clamp);
//   - NaN in, NaN out.
//
// Every element runs the same 8-lane code (tails on a padded copy), so an
// element's SiLU/SwiGLU/GELU value does not depend on where it falls in a
// vector or a call, and a softmax row depends only on its own values and
// length (its 8 partial sums count lanes from the row's first element and
// fold in a fixed order). Chunked, lane-batched and width-1 steps therefore
// stay bit-identical within the native level.

// The least float >= ln(FLT_MIN) (-87.33654): the native exp flushes below it.
inline constexpr float kExpFlushBelow = -0x1.5d589ep+6f;

// out[i] = exp(x[i]).
void exp_f32(const float* x, std::size_t n, float* out);

// In-place softmax of one row of n >= 1: exp(x - max), then one multiply by
// 1 / sum.
void softmax_f32(float* x, std::size_t n);

// out[i] = silu(gate[i]) * up[i], silu(g) = g / (1 + exp(-g)); plain SiLU
// when up is null. SwiGLU and SiLU share one element function per level.
void swiglu_f32(const float* gate, const float* up, std::size_t n, float* out);

// In-place GELU, tanh form: 0.5 v (1 + tanh(sqrt(2/pi) (v + 0.044715 v^3))),
// with tanh(u) = 1 - 2 / (exp(2u) + 1) at kNative.
void gelu_f32(float* x, std::size_t n);

// ---------------------------------------------------------------------------
// Attention kernels for head_dim 16 (every nano config).
// transpose_keys_hd16 lays out keys [n_pos, 16] (row stride key_stride) as
// ceil(n_pos / 8) tiles of [16 dims][8 positions], zero-padded; scores_hd16
// then scores 8 positions per vector for each of n_q query heads (q is
// [n_q, 16]):
//
//   out[h * out_stride + p] = dot_f32(q + 16 h, key_p, 16) * scale
//
// bit for bit at kNative: every position follows dot_f32_avx2's exact
// sequence (fma-with-zero halves, lane add, 4+4 fold, movehl, the final ss
// add), then the multiply. accumulate_values_hd16 adds the weighted values
// of the same n_q heads (their weights w + h * w_stride, their outputs
// [n_q, 16]), loading each value row once for all of them:
//
//   out[h * 16 + e] += w[h * w_stride + p] * v[p * v_stride + e]
//                                      for p ascending, h < n_q, e < 16,
//
// with the plain loop's multiply-then-add per element. Native only (CHECK);
// callers test attention_hd16(head_dim) and keep the per-position dot and
// the plain loop otherwise.
//
// The _i8 twins read an INT8 KV block in place: codes [n_pos, 16] (row
// stride key_stride / v_stride) and one scale per position. Each key or
// value is float(code) * scale[p], computed in registers — the one rounding
// of KVCache's block read — so a twin equals dequantizing the block, then
// running the fp32 kernel, bit for bit.
inline constexpr std::size_t kScoreHeadDim = 16;
inline constexpr std::size_t kScoreTile = 8;  // positions per transposed tile

// Whether the head_dim-16 attention kernels serve head_dim at the active
// level.
bool attention_hd16(std::size_t head_dim);

// Floats of transposed tile storage for n_pos keys.
constexpr std::size_t transposed_keys_size(std::size_t n_pos) {
  return (n_pos + kScoreTile - 1) / kScoreTile * kScoreTile * kScoreHeadDim;
}

void transpose_keys_hd16(const float* keys, std::size_t key_stride, std::size_t n_pos,
                         float* tiles);
void scores_hd16(const float* tiles, std::size_t n_pos, const float* q, std::size_t n_q,
                 float scale, float* out, std::size_t out_stride);
void accumulate_values_hd16(const float* w, std::size_t w_stride, std::size_t n_q,
                            const float* v, std::size_t v_stride, std::size_t n_pos,
                            float* out);
void transpose_keys_hd16_i8(const std::int8_t* codes, const float* scales,
                            std::size_t key_stride, std::size_t n_pos, float* tiles);
void accumulate_values_hd16_i8(const float* w, std::size_t w_stride, std::size_t n_q,
                               const std::int8_t* codes, const float* scales,
                               std::size_t v_stride, std::size_t n_pos, float* out);

// Roofline probe: runs `iters` iterations of 8 independent register-resident
// fused multiply-add chains (8-lane AVX2/FMA when the CPU has it, scalar
// std::fma otherwise) and returns the number of FLOPs executed. The bench
// times this to estimate per-core peak GFLOP/s for the roofline report.
double fma_probe_flops(std::size_t iters);

}  // namespace orinsim::simd
