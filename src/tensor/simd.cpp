#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/error.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ORINSIM_SIMD_X86 1
#include <immintrin.h>
#else
#define ORINSIM_SIMD_X86 0
#endif

namespace orinsim::simd {

namespace {

bool cpu_has_avx2_fma() {
#if ORINSIM_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::atomic<Level>& level_storage() {
  static std::atomic<Level> level{resolve_level(std::getenv("ORINSIM_KERNELS"))};
  return level;
}

// Tokens per tile of matmul_i4_i8.
constexpr std::size_t kInt4TokenTile = 8;

// ---------------------------------------------------------------------------
// Scalar reference kernels. These loops ARE the determinism contract: they
// match the accumulation order of the original kernels::dot / matvec code.

float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

std::int64_t dot_i8_scalar(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(b[i]);
  }
  return acc;
}

std::int8_t quantize_code(float x, float scale) {
  const int v = static_cast<int>(std::lround(x / scale));
  return static_cast<std::int8_t>(std::clamp(v, -127, 127));
}

float quantize_row_i8_scalar(const float* x, std::size_t n, std::int8_t* codes) {
  float absmax = 0.0f;
  for (std::size_t i = 0; i < n; ++i) absmax = std::max(absmax, std::fabs(x[i]));
  const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
  for (std::size_t i = 0; i < n; ++i) codes[i] = quantize_code(x[i], scale);
  return scale;
}

void softmax_scalar(float* x, std::size_t n) {
  float mx = x[0];
  for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, x[c]);
  float sum = 0.0f;
  for (std::size_t c = 0; c < n; ++c) {
    x[c] = std::exp(x[c] - mx);
    sum += x[c];
  }
  const float inv = 1.0f / sum;
  for (std::size_t c = 0; c < n; ++c) x[c] *= inv;
}

// SiLU's one element function at the scalar level (SwiGLU and plain SiLU).
float silu_scalar(float v) { return v / (1.0f + std::exp(-v)); }

void swiglu_scalar(const float* gate, const float* up, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = up == nullptr ? silu_scalar(gate[i]) : silu_scalar(gate[i]) * up[i];
  }
}

void gelu_scalar(float* x, std::size_t n) {
  constexpr float kSqrt2OverPi = 0.7978845608f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
    x[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

#if ORINSIM_SIMD_X86
// ---------------------------------------------------------------------------
// AVX2/FMA kernels. Per-function target attributes keep the rest of the
// binary free of AVX instructions, so auto-dispatch is safe on older CPUs.

// Lanes [0, count) of x in a vector whose other lanes hold `pad`; and the
// matching store. Tails run the full-vector code on this padded copy, so an
// element's result never depends on where it falls in a vector.
__attribute__((target("avx2"))) inline __m256 load_tail(const float* x, std::size_t count,
                                                       float pad) {
  alignas(32) float buf[8];
  for (std::size_t k = 0; k < 8; ++k) buf[k] = k < count ? x[k] : pad;
  return _mm256_load_ps(buf);
}

__attribute__((target("avx2"))) inline void store_tail(float* x, std::size_t count,
                                                      __m256 v) {
  alignas(32) float buf[8];
  _mm256_store_ps(buf, v);
  std::copy_n(buf, count, x);
}

__attribute__((target("avx2,fma"))) float dot_f32_avx2(const float* a, const float* b,
                                                       std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  acc0 = _mm256_add_ps(acc0, acc1);
  __m128 lo = _mm256_castps256_ps128(acc0);
  __m128 hi = _mm256_extractf128_ps(acc0, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
  float acc = _mm_cvtss_f32(lo);
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Four activation columns per weight pass. Each column's accumulator pair,
// reduction and tail are EXACTLY dot_f32_avx2's sequence — only the weight
// loads are shared — so out[t] is bit-identical to dot_f32_avx2(w, x_t, n).
__attribute__((target("avx2,fma"))) void dot_f32_multi4_avx2(const float* w, const float* x,
                                                             std::size_t x_stride,
                                                             std::size_t n, float* out) {
  __m256 acc0[4];
  __m256 acc1[4];
  for (int t = 0; t < 4; ++t) {
    acc0[t] = _mm256_setzero_ps();
    acc1[t] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 w0 = _mm256_loadu_ps(w + i);
    const __m256 w1 = _mm256_loadu_ps(w + i + 8);
    for (int t = 0; t < 4; ++t) {
      const float* xt = x + static_cast<std::size_t>(t) * x_stride;
      acc0[t] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(xt + i), acc0[t]);
      acc1[t] = _mm256_fmadd_ps(w1, _mm256_loadu_ps(xt + i + 8), acc1[t]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 w0 = _mm256_loadu_ps(w + i);
    for (int t = 0; t < 4; ++t) {
      const float* xt = x + static_cast<std::size_t>(t) * x_stride;
      acc0[t] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(xt + i), acc0[t]);
    }
  }
  for (int t = 0; t < 4; ++t) {
    const float* xt = x + static_cast<std::size_t>(t) * x_stride;
    __m256 a = _mm256_add_ps(acc0[t], acc1[t]);
    __m128 lo = _mm256_castps256_ps128(a);
    __m128 hi = _mm256_extractf128_ps(a, 1);
    lo = _mm_add_ps(lo, hi);
    lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
    float acc = _mm_cvtss_f32(lo);
    for (std::size_t j = i; j < n; ++j) acc += w[j] * xt[j];
    out[t] = acc;
  }
}

// Four weight rows per pass against one activation column: each 16-float
// slice of x is loaded once for the four rows. Every row keeps
// dot_f32_avx2's accumulator pair and 8-wide tail, and the four fold in one
// transposed horizontal sum that performs each row's adds of dot_f32_avx2
// (acc0 + acc1, lo + hi, movehl, the final lane add) on the same operands,
// so out[r] is bit-identical to dot_f32_avx2(w + r * w_stride, x, n).
__attribute__((target("avx2,fma"))) void dot_f32_rows4_avx2(const float* w,
                                                            std::size_t w_stride,
                                                            const float* x, std::size_t n,
                                                            float* out) {
  __m256 acc0[4];
  __m256 acc1[4];
  for (int r = 0; r < 4; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 x0 = _mm256_loadu_ps(x + i);
    const __m256 x1 = _mm256_loadu_ps(x + i + 8);
    for (int r = 0; r < 4; ++r) {
      const float* wr = w + static_cast<std::size_t>(r) * w_stride;
      acc0[r] = _mm256_fmadd_ps(_mm256_loadu_ps(wr + i), x0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(_mm256_loadu_ps(wr + i + 8), x1, acc1[r]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 x0 = _mm256_loadu_ps(x + i);
    for (int r = 0; r < 4; ++r) {
      const float* wr = w + static_cast<std::size_t>(r) * w_stride;
      acc0[r] = _mm256_fmadd_ps(_mm256_loadu_ps(wr + i), x0, acc0[r]);
    }
  }
  __m256 a[4];
  for (int r = 0; r < 4; ++r) a[r] = _mm256_add_ps(acc0[r], acc1[r]);
  // s02 = [lo + hi of row 0 | of row 2], s13 likewise for rows 1 and 3.
  const __m256 s02 = _mm256_add_ps(_mm256_permute2f128_ps(a[0], a[2], 0x20),
                                   _mm256_permute2f128_ps(a[0], a[2], 0x31));
  const __m256 s13 = _mm256_add_ps(_mm256_permute2f128_ps(a[1], a[3], 0x20),
                                   _mm256_permute2f128_ps(a[1], a[3], 0x31));
  // movehl: m = [s0[0]+s0[2], s1[0]+s1[2], s0[1]+s0[3], s1[1]+s1[3] | rows 2, 3].
  const __m256 m = _mm256_add_ps(_mm256_unpacklo_ps(s02, s13), _mm256_unpackhi_ps(s02, s13));
  // The final lane add: f[r] = m_r[0] + m_r[1].
  const __m128 m01 = _mm256_castps256_ps128(m);
  const __m128 m23 = _mm256_extractf128_ps(m, 1);
  alignas(16) float f[4];
  _mm_store_ps(f, _mm_add_ps(_mm_movelh_ps(m01, m23), _mm_movehl_ps(m23, m01)));
  for (int r = 0; r < 4; ++r) {
    const float* wr = w + static_cast<std::size_t>(r) * w_stride;
    float acc = f[r];
    for (std::size_t j = i; j < n; ++j) acc += wr[j] * x[j];
    out[r] = acc;
  }
}

// u8×s8 trick: maddubs requires one unsigned operand, so move the sign of a
// onto b (abs(a) * sign(b, a) == a * b element-wise). Pair sums fit i16:
// 2 * 127 * 127 = 32258 < 32767. i32 lanes are flushed to i64 every
// kFlushIters iterations; each madd lane is <= 2 * 32258 = 64516, so the i32
// bound 2^31 / 64516 ~= 33k iterations is never approached.
__attribute__((target("avx2"))) std::int64_t dot_i8_avx2(const std::int8_t* a,
                                                         const std::int8_t* b, std::size_t n) {
  constexpr std::size_t kFlushIters = 16384;
  const __m256i ones = _mm256_set1_epi16(1);
  std::int64_t total = 0;
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  std::size_t iters_since_flush = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i abs_a = _mm256_abs_epi8(va);
    const __m256i sgn_b = _mm256_sign_epi8(vb, va);
    const __m256i pairs = _mm256_maddubs_epi16(abs_a, sgn_b);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
    if (++iters_since_flush == kFlushIters) {
      alignas(32) std::int32_t lanes[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
      for (std::int32_t lane : lanes) total += lane;
      acc = _mm256_setzero_si256();
      iters_since_flush = 0;
    }
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  for (std::int32_t lane : lanes) total += lane;
  for (; i < n; ++i) {
    total += static_cast<std::int64_t>(a[i]) * static_cast<std::int64_t>(b[i]);
  }
  return total;
}

// Four-column int8 dot, one weight stream. Integer math is exact, so the
// i64 results equal per-column dot_i8 regardless of accumulation order.
__attribute__((target("avx2"))) void dot_i8_multi4_avx2(const std::int8_t* w,
                                                        const std::int8_t* x,
                                                        std::size_t x_stride, std::size_t n,
                                                        std::int64_t* out) {
  constexpr std::size_t kFlushIters = 16384;
  const __m256i ones = _mm256_set1_epi16(1);
  std::int64_t total[4] = {0, 0, 0, 0};
  __m256i acc[4];
  for (auto& v : acc) v = _mm256_setzero_si256();
  std::size_t i = 0;
  std::size_t iters_since_flush = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i vw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i abs_w = _mm256_abs_epi8(vw);
    for (int t = 0; t < 4; ++t) {
      const __m256i vx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(x + static_cast<std::size_t>(t) * x_stride + i));
      const __m256i sgn_x = _mm256_sign_epi8(vx, vw);
      const __m256i pairs = _mm256_maddubs_epi16(abs_w, sgn_x);
      acc[t] = _mm256_add_epi32(acc[t], _mm256_madd_epi16(pairs, ones));
    }
    if (++iters_since_flush == kFlushIters) {
      for (int t = 0; t < 4; ++t) {
        alignas(32) std::int32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[t]);
        for (std::int32_t lane : lanes) total[t] += lane;
        acc[t] = _mm256_setzero_si256();
      }
      iters_since_flush = 0;
    }
  }
  for (int t = 0; t < 4; ++t) {
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[t]);
    for (std::int32_t lane : lanes) total[t] += lane;
    const std::int8_t* xt = x + static_cast<std::size_t>(t) * x_stride;
    for (std::size_t j = i; j < n; ++j) {
      total[t] += static_cast<std::int64_t>(w[j]) * static_cast<std::int64_t>(xt[j]);
    }
    out[t] = total[t];
  }
}

// Packed-int4 kernel core, up to 4 columns. Register layout per block:
//
//   w16   = 16 packed bytes          [b0 .. b15]
//   lo    = w16 & 0x0F               codes  0..15 (+8 biased)
//   hi    = (w16 >> 4) & 0x0F        codes 16..31 (+8 biased)
//   w8    = set_m128(hi, lo) - 8     32 signed codes in activation order
//   pairs = maddubs(|w8|, sign(x, w8))   16 × i16 pair sums   (<= 2032)
//   isum  = madd(pairs, 1)               8 × i32 quad sums    (<= 4064)
//   facc  = fmadd(cvt_ps(isum), scale_b, facc)   8 float lanes per column
//
// Column t's facc chain touches blocks in order and is reduced with the same
// horizontal-sum sequence as dot_f32_avx2 — independent of how many other
// columns share the weight unpack, and mirrored exactly (std::fma, same lane
// grouping, same hsum order) by dot_i4_i8_multi_ref.
__attribute__((target("avx2,fma"), noipa)) void dot_i4_i8_multi_avx2(
    const std::uint8_t* w_packed, const float* scales, std::size_t blocks,
    const std::int8_t* x, std::size_t x_stride, std::size_t n_cols, float* out) {
  const __m256i ones = _mm256_set1_epi16(1);
  const __m128i nib_mask = _mm_set1_epi8(0x0F);
  const __m256i bias = _mm256_set1_epi8(8);
  // 8-column tiles: one nibble-unpack serves 8 lanes (a full decode batch in
  // one pass). Each lane keeps its own independent fma chain, so tile width
  // never changes a lane's result — only how many lanes share the unpack.
  for (std::size_t t0 = 0; t0 < n_cols; t0 += 8) {
    const std::size_t tc = n_cols - t0 < 8 ? n_cols - t0 : 8;
    __m256 facc[8];
    for (auto& v : facc) v = _mm256_setzero_ps();
    for (std::size_t b = 0; b < blocks; ++b) {
      const __m128i w16 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(w_packed + b * kInt4KernelBlockBytes));
      const __m128i lo = _mm_and_si128(w16, nib_mask);
      const __m128i hi = _mm_and_si128(_mm_srli_epi16(w16, 4), nib_mask);
      const __m256i w8 = _mm256_sub_epi8(_mm256_set_m128i(hi, lo), bias);
      const __m256i abs_w = _mm256_abs_epi8(w8);
      const __m256 scale = _mm256_broadcast_ss(scales + b);
      for (std::size_t t = 0; t < tc; ++t) {
        const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            x + (t0 + t) * x_stride + b * kInt4KernelBlock));
        const __m256i sgn_x = _mm256_sign_epi8(vx, w8);
        const __m256i pairs = _mm256_maddubs_epi16(abs_w, sgn_x);
        const __m256i isum = _mm256_madd_epi16(pairs, ones);
        facc[t] = _mm256_fmadd_ps(_mm256_cvtepi32_ps(isum), scale, facc[t]);
      }
    }
    for (std::size_t t = 0; t < tc; ++t) {
      __m128 lo = _mm256_castps256_ps128(facc[t]);
      __m128 hi = _mm256_extractf128_ps(facc[t], 1);
      lo = _mm_add_ps(lo, hi);
      lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
      lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
      out[t0 + t] = _mm_cvtss_f32(lo);
    }
  }
}

// Rows [r0, r1) of a packed-int4 projection against one token: the
// one-column dot_i4_i8_multi_avx2, then the activation scale. That kernel
// is noipa: called here with a constant one column, GCC would clone it
// for one column, keep the accumulator in a register and make one-token
// calls about 1.8x faster. That speeds up the per-lane baseline of the
// --strict int4 batched bar, so, like the int4 narrow-call tile, it waits
// for the bar to be redefined (DESIGN.md "Narrow-call row tile").
__attribute__((target("avx2,fma"))) void i4_rows_one_avx2(
    const std::uint8_t* w_packed, const float* scales, std::size_t blocks, std::size_t r0,
    std::size_t r1, const std::int8_t* x, std::size_t x_stride, const float* x_scales,
    float* y, std::size_t y_stride) {
  (void)y_stride;
  for (std::size_t r = r0; r < r1; ++r) {
    float dot;
    dot_i4_i8_multi_avx2(w_packed + r * blocks * kInt4KernelBlockBytes, scales + r * blocks,
                         blocks, x, x_stride, 1, &dot);
    y[r] = dot * x_scales[0];
  }
}

// Rows [r0, r1) of a packed-int4 projection against a tile of W tokens
// (2 <= W <= 8). Per row, each block is unpacked once for the tile and
// every token keeps dot_i4_i8_multi_avx2's fma chain (blocks in order) in
// its own register. The block's i32 quad sums are the same integers by
// another route: maddubs takes the biased codes w + 8 in [0, 15] as its
// unsigned operand (no sign/abs pass), and 8 × the activations' quad sums,
// computed once per tile for every row, come off after madd; both routes
// are exact. The chains fold in one transposed horizontal sum that
// performs dot_f32_avx2's adds per token on the same operands (a token's
// lanes never meet another's; the slots past W hold zeros and are
// dropped), then one multiply applies the W activation scales, so
// y[t * y_stride + r] equals the one-token kernel's result for token t.
template <int W>
__attribute__((target("avx2,fma"))) void i4_rows_tile_avx2(
    const std::uint8_t* w_packed, const float* scales, std::size_t blocks, std::size_t r0,
    std::size_t r1, const std::int8_t* x, std::size_t x_stride, const float* x_scales,
    float* y, std::size_t y_stride) {
  static_assert(W >= 2 && W <= 8, "tiles of 2-8 tokens");
  const __m256i ones = _mm256_set1_epi16(1);
  const __m128i nib_mask = _mm_set1_epi8(0x0F);
  // bias[b * W + t]: 8 × token t's quad sums over block b.
  thread_local std::vector<std::int32_t> bias_lanes;
  bias_lanes.resize(blocks * W * 8);
  auto* bias = reinterpret_cast<__m256i*>(bias_lanes.data());
  const __m256i eights = _mm256_set1_epi8(8);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (int t = 0; t < W; ++t) {
      const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          x + static_cast<std::size_t>(t) * x_stride + b * kInt4KernelBlock));
      _mm256_storeu_si256(bias + b * W + t,
                          _mm256_madd_epi16(_mm256_maddubs_epi16(eights, vx), ones));
    }
  }
  const __m256 act_scale = load_tail(x_scales, W, 0.0f);
  for (std::size_t r = r0; r < r1; ++r) {
    const std::uint8_t* wr = w_packed + r * blocks * kInt4KernelBlockBytes;
    const float* sr = scales + r * blocks;
    __m256 facc[8];
    for (auto& v : facc) v = _mm256_setzero_ps();
    for (std::size_t b = 0; b < blocks; ++b) {
      const __m128i w16 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(wr + b * kInt4KernelBlockBytes));
      const __m128i lo = _mm_and_si128(w16, nib_mask);
      const __m128i hi = _mm_and_si128(_mm_srli_epi16(w16, 4), nib_mask);
      const __m256i wb = _mm256_set_m128i(hi, lo);  // w + 8, activation order
      const __m256 scale = _mm256_broadcast_ss(sr + b);
#pragma GCC unroll 8
      for (int t = 0; t < W; ++t) {
        const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            x + static_cast<std::size_t>(t) * x_stride + b * kInt4KernelBlock));
        const __m256i isum =
            _mm256_sub_epi32(_mm256_madd_epi16(_mm256_maddubs_epi16(wb, vx), ones),
                             _mm256_loadu_si256(bias + b * W + t));
        facc[t] = _mm256_fmadd_ps(_mm256_cvtepi32_ps(isum), scale, facc[t]);
      }
    }
    // lo + hi: s04 = [token 0 | token 4], and likewise s15, s26, s37.
    __m256 s[4];
    for (int t = 0; t < 4; ++t) {
      s[t] = _mm256_add_ps(_mm256_permute2f128_ps(facc[t], facc[t + 4], 0x20),
                           _mm256_permute2f128_ps(facc[t], facc[t + 4], 0x31));
    }
    // movehl: m01 = [t0 (s0+s2), t1 (s0+s2), t0 (s1+s3), t1 (s1+s3) | t4, t5],
    // m23 likewise for tokens 2, 3 | 6, 7.
    const __m256 m01 = _mm256_add_ps(_mm256_unpacklo_ps(s[0], s[1]),
                                     _mm256_unpackhi_ps(s[0], s[1]));
    const __m256 m23 = _mm256_add_ps(_mm256_unpacklo_ps(s[2], s[3]),
                                     _mm256_unpackhi_ps(s[2], s[3]));
    // The final lane add, in token order 0-3 | 4-7.
    const __m256 f = _mm256_add_ps(_mm256_shuffle_ps(m01, m23, 0x44),
                                   _mm256_shuffle_ps(m01, m23, 0xEE));
    alignas(32) float out[8];
    _mm256_store_ps(out, _mm256_mul_ps(f, act_scale));
    for (int t = 0; t < W; ++t) y[static_cast<std::size_t>(t) * y_stride + r] = out[t];
  }
}

using I4RowsFn = void (*)(const std::uint8_t*, const float*, std::size_t, std::size_t,
                          std::size_t, const std::int8_t*, std::size_t, const float*, float*,
                          std::size_t);
// Indexed by tile width.
constexpr I4RowsFn kI4RowsAvx2[kInt4TokenTile + 1] = {
    nullptr,
    i4_rows_one_avx2,
    i4_rows_tile_avx2<2>,
    i4_rows_tile_avx2<3>,
    i4_rows_tile_avx2<4>,
    i4_rows_tile_avx2<5>,
    i4_rows_tile_avx2<6>,
    i4_rows_tile_avx2<7>,
    i4_rows_tile_avx2<8>,
};

// quantize_row_i8_scalar, 8 elements per step. max_ps(|x|, acc) keeps acc
// when x is NaN, as std::max(acc, |x|) does. v - trunc(v) is exact, so the
// (|frac| >= 0.5) test decides exactly where lround rounds away from zero;
// the rounded, clamped value is an integer in [-127, 127], so the truncating
// conversion and the saturating packs are exact.
__attribute__((target("avx2"))) float quantize_row_i8_avx2(const float* x, std::size_t n,
                                                          std::int8_t* codes) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 vmax = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(x + i)), vmax);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  float absmax = 0.0f;
  for (float lane : lanes) absmax = std::max(absmax, lane);
  for (; i < n; ++i) absmax = std::max(absmax, std::fabs(x[i]));
  const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;

  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  for (i = 0; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_div_ps(_mm256_loadu_ps(x + i), vscale);
    const __m256 t = _mm256_round_ps(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 away = _mm256_cmp_ps(_mm256_andnot_ps(sign, _mm256_sub_ps(v, t)), half,
                                      _CMP_GE_OQ);
    const __m256 step = _mm256_and_ps(away, _mm256_or_ps(one, _mm256_and_ps(v, sign)));
    const __m256 r = _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(t, step), lo), hi);
    const __m256i q32 = _mm256_cvttps_epi32(r);
    const __m128i q16 =
        _mm_packs_epi32(_mm256_castsi256_si128(q32), _mm256_extracti128_si256(q32, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + i), _mm_packs_epi16(q16, q16));
  }
  for (; i < n; ++i) codes[i] = quantize_code(x[i], scale);
  return scale;
}

// 8-lane exp (simd.h "Vector exp"). Cephes expf: x = n ln2 + r with
// n = round(x log2e) and ln2 split in two constants, so |r| <= ln2 / 2;
// exp(r) = 1 + r + r^2 P(r) with P of degree 5 (six coefficients); 2^n is
// spliced into the exponent field in two halves, 2^(n/2) * 2^(n - n/2), so
// n = 128 (x up to ln FLT_MAX) needs no special case and the last multiply
// overflows to +inf as libm does.
constexpr float kExpLog2e = 1.44269504088896341f;
constexpr float kExpLn2Hi = 0.693359375f;
constexpr float kExpLn2Lo = -2.12194440e-4f;
constexpr float kExpP[6] = {1.9875691500e-4f, 1.3981999507e-3f, 8.3334519073e-3f,
                            4.1665795894e-2f, 1.6666665459e-1f, 5.0000001201e-1f};

__attribute__((target("avx2,fma"))) inline __m256 exp8_avx2(__m256 x) {
  // The clamp keeps n in [-127, 128]. MAXPS/MINPS return their second
  // operand when either is NaN, so a NaN lane stays NaN to the end.
  const __m256 xc = _mm256_min_ps(_mm256_set1_ps(89.0f),
                                  _mm256_max_ps(_mm256_set1_ps(-88.0f), x));
  const __m256 fn = _mm256_round_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kExpLog2e)),
                                    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(fn, _mm256_set1_ps(kExpLn2Hi), xc);
  r = _mm256_fnmadd_ps(fn, _mm256_set1_ps(kExpLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpP[0]);
  for (int k = 1; k < 6; ++k) p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP[k]));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvtps_epi32(fn);
  const __m256i n1 = _mm256_srai_epi32(n, 1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(_mm256_sub_epi32(n, n1), bias), 23));
  const __m256 y = _mm256_mul_ps(_mm256_mul_ps(p, s1), s2);
  // Below ln FLT_MIN (and -inf): +0. A NaN lane compares false and is kept.
  const __m256 flush = _mm256_cmp_ps(x, _mm256_set1_ps(kExpFlushBelow), _CMP_LT_OQ);
  return _mm256_andnot_ps(flush, y);
}

__attribute__((target("avx2,fma"))) void exp_avx2(const float* x, std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(out + i, exp8_avx2(_mm256_loadu_ps(x + i)));
  if (i < n) store_tail(out + i, n - i, exp8_avx2(load_tail(x + i, n - i, 0.0f)));
}

// One softmax row: vector max; exp(x - max) stored in place and summed in 8
// lanes counted from the row's first element (tail lanes padded with -inf,
// whose exp is +0); the lanes fold as dot_f32_avx2's do; one multiply by
// 1 / sum. Every step depends only on the row's values and length.
__attribute__((target("avx2,fma"))) void softmax_avx2(float* x, std::size_t n) {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const std::size_t full = n / 8 * 8;
  __m256 vmax = _mm256_set1_ps(kNegInf);
  for (std::size_t i = 0; i < full; i += 8) vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
  if (full < n) vmax = _mm256_max_ps(vmax, load_tail(x + full, n - full, kNegInf));
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax), _mm256_extractf128_ps(vmax, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x55));
  const __m256 mx = _mm256_set1_ps(_mm_cvtss_f32(m));

  __m256 sum = _mm256_setzero_ps();
  for (std::size_t i = 0; i < full; i += 8) {
    const __m256 e = exp8_avx2(_mm256_sub_ps(_mm256_loadu_ps(x + i), mx));
    _mm256_storeu_ps(x + i, e);
    sum = _mm256_add_ps(sum, e);
  }
  if (full < n) {
    const __m256 e = exp8_avx2(_mm256_sub_ps(load_tail(x + full, n - full, kNegInf), mx));
    store_tail(x + full, n - full, e);
    sum = _mm256_add_ps(sum, e);
  }
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(sum), _mm256_extractf128_ps(sum, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  const float inv = 1.0f / _mm_cvtss_f32(s);
  const __m256 vinv = _mm256_set1_ps(inv);
  std::size_t i = 0;
  for (; i < full; i += 8) _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
  for (; i < n; ++i) x[i] *= inv;
}

// SiLU's one element function at the native level: g / (1 + exp(-g)).
__attribute__((target("avx2,fma"))) inline __m256 silu8_avx2(__m256 g) {
  const __m256 e = exp8_avx2(_mm256_xor_ps(g, _mm256_set1_ps(-0.0f)));
  return _mm256_div_ps(g, _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}

__attribute__((target("avx2,fma"))) void swiglu_avx2(const float* gate, const float* up,
                                                     std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 s = silu8_avx2(_mm256_loadu_ps(gate + i));
    _mm256_storeu_ps(out + i, up == nullptr ? s : _mm256_mul_ps(s, _mm256_loadu_ps(up + i)));
  }
  if (i == n) return;
  const __m256 s = silu8_avx2(load_tail(gate + i, n - i, 0.0f));
  store_tail(out + i, n - i, up == nullptr ? s : _mm256_mul_ps(s, load_tail(up + i, n - i, 0.0f)));
}

// GELU (tanh form) with tanh(u) = 1 - 2 / (exp(2u) + 1); the other
// operations round in the scalar loop's order.
__attribute__((target("avx2,fma"))) inline __m256 gelu8_avx2(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 cube =
      _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.044715f), v), v), v);
  const __m256 u = _mm256_mul_ps(_mm256_set1_ps(0.7978845608f), _mm256_add_ps(v, cube));
  const __m256 e = exp8_avx2(_mm256_add_ps(u, u));
  const __m256 t =
      _mm256_sub_ps(one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), v), _mm256_add_ps(one, t));
}

__attribute__((target("avx2,fma"))) void gelu_avx2(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(x + i, gelu8_avx2(_mm256_loadu_ps(x + i)));
  if (i < n) store_tail(x + i, n - i, gelu8_avx2(load_tail(x + i, n - i, 0.0f)));
}

// Stores r[p] (positions p < 8, dims d0..d0+7) into a key tile as its
// [dim][position] columns: one 8x8 transpose of pure data movement.
__attribute__((target("avx2"))) inline void store_transposed_8x8(const __m256 (&r)[8],
                                                                std::size_t d0,
                                                                float* tile) {
  __m256 t[8];
  for (std::size_t p = 0; p < 8; p += 2) {
    t[p] = _mm256_unpacklo_ps(r[p], r[p + 1]);
    t[p + 1] = _mm256_unpackhi_ps(r[p], r[p + 1]);
  }
  __m256 u[8];
  for (std::size_t p = 0; p < 8; p += 4) {
    u[p] = _mm256_shuffle_ps(t[p], t[p + 2], 0x44);
    u[p + 1] = _mm256_shuffle_ps(t[p], t[p + 2], 0xEE);
    u[p + 2] = _mm256_shuffle_ps(t[p + 1], t[p + 3], 0x44);
    u[p + 3] = _mm256_shuffle_ps(t[p + 1], t[p + 3], 0xEE);
  }
  for (std::size_t e = 0; e < 4; ++e) {
    _mm256_storeu_ps(tile + (d0 + e) * kScoreTile, _mm256_permute2f128_ps(u[e], u[e + 4], 0x20));
    _mm256_storeu_ps(tile + (d0 + e + 4) * kScoreTile,
                     _mm256_permute2f128_ps(u[e], u[e + 4], 0x31));
  }
}

// One full 8-position tile of transpose_keys_hd16: two 8x8 transposes
// (dims 0-7, dims 8-15).
__attribute__((target("avx2"))) void transpose_tile_hd16_avx2(const float* keys,
                                                             std::size_t key_stride,
                                                             float* tile) {
  for (std::size_t d0 = 0; d0 < kScoreHeadDim; d0 += 8) {
    __m256 r[8];
    for (std::size_t p = 0; p < 8; ++p) r[p] = _mm256_loadu_ps(keys + p * key_stride + d0);
    store_transposed_8x8(r, d0, tile);
  }
}

// One int8 codes vector of 8 dims, dequantized in registers: float(code) *
// scale, the one rounding KVCache's block read makes.
__attribute__((target("avx2"))) inline __m256 dequant8_avx2(__m128i codes, __m256 scale) {
  return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes)), scale);
}

// transpose_tile_hd16_avx2 over int8 key codes and their per-position scales.
__attribute__((target("avx2"))) void transpose_tile_hd16_i8_avx2(const std::int8_t* codes,
                                                                const float* scales,
                                                                std::size_t key_stride,
                                                                float* tile) {
  for (std::size_t d0 = 0; d0 < kScoreHeadDim; d0 += 8) {
    __m256 r[8];
    for (std::size_t p = 0; p < 8; ++p) {
      r[p] = dequant8_avx2(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + p * key_stride + d0)),
          _mm256_set1_ps(scales[p]));
    }
    store_transposed_8x8(r, d0, tile);
  }
}

// scores_hd16 over one 8-position tile per step. Lane p replays
// dot_f32_avx2(q, key_p, 16): m[e] = fma(q[e], k[e], 0); the acc0 + acc1 add
// (e, e + 8); the 128-bit fold (e, e + 4); movehl (e, e + 2); the final ss
// add; then the multiply by scale.
__attribute__((target("avx2,fma"))) void scores_hd16_avx2(const float* tiles,
                                                          std::size_t n_pos, const float* q,
                                                          std::size_t n_q, float scale,
                                                          float* out,
                                                          std::size_t out_stride) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vscale = _mm256_set1_ps(scale);
  for (std::size_t h = 0; h < n_q; ++h) {
    const float* qh = q + h * kScoreHeadDim;
    float* oh = out + h * out_stride;
    for (std::size_t p0 = 0; p0 < n_pos; p0 += kScoreTile) {
      const float* tile = tiles + p0 * kScoreHeadDim;
      __m256 m[kScoreHeadDim];
      for (std::size_t e = 0; e < kScoreHeadDim; ++e) {
        m[e] = _mm256_fmadd_ps(_mm256_broadcast_ss(qh + e),
                               _mm256_loadu_ps(tile + e * kScoreTile), zero);
      }
      for (std::size_t e = 0; e < 8; ++e) m[e] = _mm256_add_ps(m[e], m[e + 8]);
      for (std::size_t e = 0; e < 4; ++e) m[e] = _mm256_add_ps(m[e], m[e + 4]);
      m[0] = _mm256_add_ps(m[0], m[2]);
      m[1] = _mm256_add_ps(m[1], m[3]);
      const __m256 s = _mm256_mul_ps(_mm256_add_ps(m[0], m[1]), vscale);
      if (n_pos - p0 >= kScoreTile) {
        _mm256_storeu_ps(oh + p0, s);
      } else {
        alignas(32) float part[kScoreTile];
        _mm256_store_ps(part, s);
        std::copy(part, part + (n_pos - p0), oh + p0);
      }
    }
  }
}

// Value rows for accumulate_values_hd16: fp32, or int8 codes dequantized in
// registers.
struct F32Values {
  const float* v;
  std::size_t stride;
  __attribute__((target("avx2"))) void load(std::size_t p, __m256& lo, __m256& hi) const {
    lo = _mm256_loadu_ps(v + p * stride);
    hi = _mm256_loadu_ps(v + p * stride + 8);
  }
};

struct I8Values {
  const std::int8_t* codes;
  const float* scales;
  std::size_t stride;
  __attribute__((target("avx2"))) void load(std::size_t p, __m256& lo, __m256& hi) const {
    const __m256 scale = _mm256_broadcast_ss(scales + p);
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + p * stride));
    lo = dequant8_avx2(c, scale);
    hi = dequant8_avx2(_mm_srli_si128(c, 8), scale);
  }
};

// NQ heads' 16 outputs each stay in two registers across the positions, and
// each value row is loaded once for all of them; every element is
// out + (w[p] * v[e]), as in the plain loop.
template <std::size_t NQ, class Values>
__attribute__((target("avx2"))) void accumulate_heads_hd16_avx2(const float* w,
                                                               std::size_t w_stride,
                                                               const Values& values,
                                                               std::size_t n_pos,
                                                               float* out) {
  __m256 lo[NQ];
  __m256 hi[NQ];
  for (std::size_t h = 0; h < NQ; ++h) {
    lo[h] = _mm256_loadu_ps(out + h * kScoreHeadDim);
    hi[h] = _mm256_loadu_ps(out + h * kScoreHeadDim + 8);
  }
  for (std::size_t p = 0; p < n_pos; ++p) {
    __m256 v_lo;
    __m256 v_hi;
    values.load(p, v_lo, v_hi);
    for (std::size_t h = 0; h < NQ; ++h) {
      const __m256 wp = _mm256_broadcast_ss(w + h * w_stride + p);
      lo[h] = _mm256_add_ps(lo[h], _mm256_mul_ps(wp, v_lo));
      hi[h] = _mm256_add_ps(hi[h], _mm256_mul_ps(wp, v_hi));
    }
  }
  for (std::size_t h = 0; h < NQ; ++h) {
    _mm256_storeu_ps(out + h * kScoreHeadDim, lo[h]);
    _mm256_storeu_ps(out + h * kScoreHeadDim + 8, hi[h]);
  }
}

// accumulate_values_hd16 over n_q heads, at most four per pass so the
// accumulators stay in registers.
template <class Values>
__attribute__((target("avx2"))) void accumulate_values_hd16_avx2(const float* w,
                                                                std::size_t w_stride,
                                                                std::size_t n_q,
                                                                const Values& values,
                                                                std::size_t n_pos,
                                                                float* out) {
  for (std::size_t h0 = 0; h0 < n_q; h0 += 4) {
    const float* wh = w + h0 * w_stride;
    float* oh = out + h0 * kScoreHeadDim;
    switch (std::min<std::size_t>(n_q - h0, 4)) {
      case 1: accumulate_heads_hd16_avx2<1>(wh, w_stride, values, n_pos, oh); break;
      case 2: accumulate_heads_hd16_avx2<2>(wh, w_stride, values, n_pos, oh); break;
      case 3: accumulate_heads_hd16_avx2<3>(wh, w_stride, values, n_pos, oh); break;
      default: accumulate_heads_hd16_avx2<4>(wh, w_stride, values, n_pos, oh); break;
    }
  }
}

// Roofline probe: 8 independent 8-lane fma chains, values kept near 1.0 so
// the loop never denormalizes. The sink store defeats dead-code elimination.
__attribute__((target("avx2,fma"))) double fma_probe_flops_avx2(std::size_t iters) {
  __m256 acc[8];
  for (int c = 0; c < 8; ++c) acc[c] = _mm256_set1_ps(1.0f + 0.001f * static_cast<float>(c));
  const __m256 a = _mm256_set1_ps(1.0000001f);
  const __m256 b = _mm256_set1_ps(-0.0000001f);
  for (std::size_t i = 0; i < iters; ++i) {
    for (int c = 0; c < 8; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  }
  alignas(32) float sink[8];
  __m256 total = acc[0];
  for (int c = 1; c < 8; ++c) total = _mm256_add_ps(total, acc[c]);
  _mm256_store_ps(sink, total);
  volatile float keep = sink[0];
  (void)keep;
  return static_cast<double>(iters) * 8.0 * 8.0 * 2.0;
}
#endif  // ORINSIM_SIMD_X86

// From position p on: live keys key(p, e), then zero padding to the end of
// the last tile.
template <class Key>
void transpose_tail_hd16(std::size_t p, std::size_t n_pos, float* tiles, Key key) {
  for (const std::size_t padded = transposed_keys_size(n_pos) / kScoreHeadDim; p < padded;
       ++p) {
    float* col = tiles + p / kScoreTile * kScoreTile * kScoreHeadDim + p % kScoreTile;
    for (std::size_t e = 0; e < kScoreHeadDim; ++e) {
      col[e * kScoreTile] = p < n_pos ? key(p, e) : 0.0f;
    }
  }
}

}  // namespace

Level resolve_level(const char* value) {
  const std::string v = value == nullptr ? "" : value;
  if (v == "scalar") return Level::kScalar;
  if (v == "native") {
    ORINSIM_CHECK(cpu_has_avx2_fma(), "ORINSIM_KERNELS=native but CPU lacks AVX2/FMA");
    return Level::kNative;
  }
  if (!v.empty()) {
    std::fprintf(stderr,
                 "orinsim: ignoring unknown ORINSIM_KERNELS value '%s' "
                 "(accepted: 'scalar', 'native', or unset for auto-detection)\n",
                 v.c_str());
  }
  return cpu_has_avx2_fma() ? Level::kNative : Level::kScalar;
}

Level init() { return level_storage().load(std::memory_order_relaxed); }

Level active_level() { return level_storage().load(std::memory_order_relaxed); }

bool native_available() { return cpu_has_avx2_fma(); }

void set_level(Level level) {
  if (level == Level::kNative) {
    ORINSIM_CHECK(cpu_has_avx2_fma(), "set_level(kNative): CPU lacks AVX2/FMA");
  }
  level_storage().store(level, std::memory_order_relaxed);
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kNative: return "native";
  }
  return "?";
}

float dot_f32(const float* a, const float* b, std::size_t n) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return dot_f32_avx2(a, b, n);
#endif
  return dot_f32_scalar(a, b, n);
}

std::int64_t dot_i8(const std::int8_t* a, const std::int8_t* b, std::size_t n) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return dot_i8_avx2(a, b, n);
#endif
  return dot_i8_scalar(a, b, n);
}

void dot_f32_multi(const float* w, const float* x, std::size_t x_stride, std::size_t n_cols,
                   std::size_t n, float* out) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) {
    std::size_t t = 0;
    for (; t + 4 <= n_cols; t += 4) {
      dot_f32_multi4_avx2(w, x + t * x_stride, x_stride, n, out + t);
    }
    // Remainder columns: the single-column kernel, which the 4-wide tile
    // matches per column by construction.
    for (; t < n_cols; ++t) out[t] = dot_f32_avx2(w, x + t * x_stride, n);
    return;
  }
#endif
  for (std::size_t t = 0; t < n_cols; ++t) out[t] = dot_f32_scalar(w, x + t * x_stride, n);
}

void dot_f32_rows(const float* w, std::size_t w_stride, std::size_t n_rows, const float* x,
                  std::size_t n, float* out) {
  std::size_t r = 0;
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) {
    for (; r + 4 <= n_rows; r += 4) dot_f32_rows4_avx2(w + r * w_stride, w_stride, x, n, out + r);
  }
#endif
  for (; r < n_rows; ++r) out[r] = dot_f32(w + r * w_stride, x, n);
}

void dot_i8_multi(const std::int8_t* w, const std::int8_t* x, std::size_t x_stride,
                  std::size_t n_cols, std::size_t n, std::int64_t* out) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) {
    std::size_t t = 0;
    for (; t + 4 <= n_cols; t += 4) {
      dot_i8_multi4_avx2(w, x + t * x_stride, x_stride, n, out + t);
    }
    for (; t < n_cols; ++t) out[t] = dot_i8_avx2(w, x + t * x_stride, n);
    return;
  }
#endif
  for (std::size_t t = 0; t < n_cols; ++t) out[t] = dot_i8_scalar(w, x + t * x_stride, n);
}

void dot_i4_i8_multi_ref(const std::uint8_t* w_packed, const float* scales, std::size_t blocks,
                         const std::int8_t* x, std::size_t x_stride, std::size_t n_cols,
                         float* out) {
  for (std::size_t t = 0; t < n_cols; ++t) {
    const std::int8_t* xt = x + t * x_stride;
    // 8 float lanes, exactly the AVX2 kernel's i32 quad-sum grouping: lane l
    // of block b covers codes 4l .. 4l+3 in activation order.
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint8_t* wb = w_packed + b * kInt4KernelBlockBytes;
      const std::int8_t* xb = xt + b * kInt4KernelBlock;
      for (int l = 0; l < 8; ++l) {
        std::int32_t isum = 0;
        for (int j = 4 * l; j < 4 * l + 4; ++j) {
          const int code = j < 16 ? (wb[j] & 0x0F) - 8 : (wb[j - 16] >> 4) - 8;
          isum += code * static_cast<std::int32_t>(xb[j]);
        }
        lanes[l] = std::fma(static_cast<float>(isum), scales[b], lanes[l]);
      }
    }
    // dot_f32_avx2's horizontal-sum order: (l0+l4)+(l2+l6) then (l1+l5)+(l3+l7).
    const float q0 = lanes[0] + lanes[4];
    const float q1 = lanes[1] + lanes[5];
    const float q2 = lanes[2] + lanes[6];
    const float q3 = lanes[3] + lanes[7];
    out[t] = (q0 + q2) + (q1 + q3);
  }
}

void matmul_i4_i8(const std::uint8_t* w_packed, const float* scales, std::size_t blocks,
                  std::size_t r0, std::size_t r1, const std::int8_t* x, const float* x_scales,
                  std::size_t tokens, float* y, std::size_t y_stride) {
  const std::size_t x_stride = blocks * kInt4KernelBlock;
  for (std::size_t t0 = 0; t0 < tokens; t0 += kInt4TokenTile) {
    const std::size_t width = std::min(kInt4TokenTile, tokens - t0);
    const std::int8_t* xt = x + t0 * x_stride;
    float* yt = y + t0 * y_stride;
#if ORINSIM_SIMD_X86
    if (cpu_has_avx2_fma()) {
      kI4RowsAvx2[width](w_packed, scales, blocks, r0, r1, xt, x_stride, x_scales + t0, yt,
                         y_stride);
      continue;
    }
#endif
    float dots[kInt4TokenTile];
    for (std::size_t r = r0; r < r1; ++r) {
      dot_i4_i8_multi_ref(w_packed + r * blocks * kInt4KernelBlockBytes, scales + r * blocks,
                          blocks, xt, x_stride, width, dots);
      for (std::size_t t = 0; t < width; ++t) yt[t * y_stride + r] = dots[t] * x_scales[t0 + t];
    }
  }
}

float quantize_row_i8(const float* x, std::size_t n, std::int8_t* codes) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return quantize_row_i8_avx2(x, n, codes);
#endif
  return quantize_row_i8_scalar(x, n, codes);
}

void exp_f32(const float* x, std::size_t n, float* out) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return exp_avx2(x, n, out);
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

void softmax_f32(float* x, std::size_t n) {
  ORINSIM_DCHECK(n > 0, "softmax of an empty row");
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return softmax_avx2(x, n);
#endif
  softmax_scalar(x, n);
}

void swiglu_f32(const float* gate, const float* up, std::size_t n, float* out) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return swiglu_avx2(gate, up, n, out);
#endif
  swiglu_scalar(gate, up, n, out);
}

void gelu_f32(float* x, std::size_t n) {
#if ORINSIM_SIMD_X86
  if (active_level() == Level::kNative) return gelu_avx2(x, n);
#endif
  gelu_scalar(x, n);
}

bool attention_hd16(std::size_t head_dim) {
  return ORINSIM_SIMD_X86 && head_dim == kScoreHeadDim && active_level() == Level::kNative;
}

void transpose_keys_hd16(const float* keys, std::size_t key_stride, std::size_t n_pos,
                         float* tiles) {
  ORINSIM_CHECK(attention_hd16(kScoreHeadDim), "transpose_keys_hd16 needs the native level");
  std::size_t p = 0;
#if ORINSIM_SIMD_X86
  for (; p + kScoreTile <= n_pos; p += kScoreTile) {
    transpose_tile_hd16_avx2(keys + p * key_stride, key_stride, tiles + p * kScoreHeadDim);
  }
#endif
  transpose_tail_hd16(p, n_pos, tiles,
                      [&](std::size_t i, std::size_t e) { return keys[i * key_stride + e]; });
}

void transpose_keys_hd16_i8(const std::int8_t* codes, const float* scales,
                            std::size_t key_stride, std::size_t n_pos, float* tiles) {
  ORINSIM_CHECK(attention_hd16(kScoreHeadDim),
                "transpose_keys_hd16_i8 needs the native level");
  std::size_t p = 0;
#if ORINSIM_SIMD_X86
  for (; p + kScoreTile <= n_pos; p += kScoreTile) {
    transpose_tile_hd16_i8_avx2(codes + p * key_stride, scales + p, key_stride,
                                tiles + p * kScoreHeadDim);
  }
#endif
  transpose_tail_hd16(p, n_pos, tiles, [&](std::size_t i, std::size_t e) {
    return static_cast<float>(codes[i * key_stride + e]) * scales[i];
  });
}

void scores_hd16(const float* tiles, std::size_t n_pos, const float* q, std::size_t n_q,
                 float scale, float* out, std::size_t out_stride) {
  ORINSIM_CHECK(attention_hd16(kScoreHeadDim), "scores_hd16 needs the native level");
#if ORINSIM_SIMD_X86
  scores_hd16_avx2(tiles, n_pos, q, n_q, scale, out, out_stride);
#else
  (void)tiles, (void)n_pos, (void)q, (void)n_q, (void)scale, (void)out, (void)out_stride;
#endif
}

void accumulate_values_hd16(const float* w, std::size_t w_stride, std::size_t n_q,
                            const float* v, std::size_t v_stride, std::size_t n_pos,
                            float* out) {
  ORINSIM_CHECK(attention_hd16(kScoreHeadDim),
                "accumulate_values_hd16 needs the native level");
#if ORINSIM_SIMD_X86
  accumulate_values_hd16_avx2(w, w_stride, n_q, F32Values{v, v_stride}, n_pos, out);
#else
  (void)w, (void)w_stride, (void)n_q, (void)v, (void)v_stride, (void)n_pos, (void)out;
#endif
}

void accumulate_values_hd16_i8(const float* w, std::size_t w_stride, std::size_t n_q,
                               const std::int8_t* codes, const float* scales,
                               std::size_t v_stride, std::size_t n_pos, float* out) {
  ORINSIM_CHECK(attention_hd16(kScoreHeadDim),
                "accumulate_values_hd16_i8 needs the native level");
#if ORINSIM_SIMD_X86
  accumulate_values_hd16_avx2(w, w_stride, n_q, I8Values{codes, scales, v_stride}, n_pos,
                              out);
#else
  (void)w, (void)w_stride, (void)n_q, (void)codes, (void)scales, (void)v_stride, (void)n_pos,
      (void)out;
#endif
}

double fma_probe_flops(std::size_t iters) {
#if ORINSIM_SIMD_X86
  if (cpu_has_avx2_fma()) return fma_probe_flops_avx2(iters);
#endif
  float acc[8];
  for (int c = 0; c < 8; ++c) acc[c] = 1.0f + 0.001f * static_cast<float>(c);
  for (std::size_t i = 0; i < iters; ++i) {
    for (int c = 0; c < 8; ++c) acc[c] = std::fma(acc[c], 1.0000001f, -0.0000001f);
  }
  volatile float keep = acc[0] + acc[1] + acc[2] + acc[3] + acc[4] + acc[5] + acc[6] + acc[7];
  (void)keep;
  return static_cast<double>(iters) * 8.0 * 2.0;
}

}  // namespace orinsim::simd
