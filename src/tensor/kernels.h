// FP32 compute kernels for the functional transformer engine.
//
// Conventions:
//  - Activations are row-major [tokens, features] spans.
//  - All kernels are pure functions over spans; their row loops fan out on
//    kernel_pool() where the row count justifies it (inline when called from
//    inside a pool shard). Rows are independent, so results do not depend on
//    the thread count.
//  - Weight matmuls live in quant/ (they dispatch on storage precision);
//    these kernels cover everything else in a transformer block.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/thread_pool.h"

namespace orinsim::kernels {

// Multiply-adds below which a projection runs on the calling thread: under
// it a kernel_pool() fork/join (about a microsecond) costs more than the
// split saves. At 2^14 a width-1 llama3-nano step splits every projection
// group, wo included (16,384 multiply-adds); see DESIGN.md "Threading
// model" for the measurement that chose it.
inline constexpr std::size_t kProjectionSplitWork = std::size_t{1} << 14;

// Runs fn(r0, r1) over the out_rows weight rows of a projection that dots
// each of them against `rows` activation rows of in_features: split over
// kernel_pool() when out_rows × rows × in_features reaches
// kProjectionSplitWork, one fn(0, out_rows) on the calling thread otherwise.
// Every projection splits this way, once per call: matvec_multi here, and
// quant::matmul_group over a group's concatenated rows. Output rows are
// independent, so the split never changes a result, and the pool's
// affinity runs range k on the same thread every call.
template <class Fn>
void parallel_projection(std::size_t out_rows, std::size_t rows, std::size_t in_features,
                         Fn&& fn) {
  const std::size_t per_row = std::max<std::size_t>(rows * in_features, 1);
  kernel_pool().parallel_rows(out_rows, (kProjectionSplitWork + per_row - 1) / per_row,
                              std::forward<Fn>(fn));
}

// y = x + b (broadcast bias over rows). x: [rows, cols], b: [cols].
void add_bias(std::span<float> x, std::span<const float> bias, std::size_t rows,
              std::size_t cols);

// Element-wise y += x.
void add_inplace(std::span<float> y, std::span<const float> x);

// Element-wise scale.
void scale_inplace(std::span<float> x, float factor);

// In-place row-wise softmax over [rows, cols] with numerical stabilization.
// This and the three activations below run simd.h's kernels: libm at the
// scalar level, the in-tree vector exp at the native level (simd.h "Vector
// exp").
void softmax_rows(std::span<float> x, std::size_t rows, std::size_t cols);

// RMSNorm (Llama-style): y = x / rms(x) * gain, per row.
void rmsnorm_rows(std::span<const float> x, std::span<const float> gain,
                  std::span<float> y, std::size_t rows, std::size_t cols, float eps = 1e-5f);

// LayerNorm (Phi-style): y = (x - mean) / sqrt(var + eps) * gain + bias, per row.
void layernorm_rows(std::span<const float> x, std::span<const float> gain,
                    std::span<const float> bias, std::span<float> y, std::size_t rows,
                    std::size_t cols, float eps = 1e-5f);

// SiLU (x * sigmoid(x)) applied element-wise; swiglu's element function.
void silu_inplace(std::span<float> x);

// GELU (tanh approximation) applied element-wise.
void gelu_inplace(std::span<float> x);

// SwiGLU gating: out[i] = silu(gate[i]) * up[i].
void swiglu(std::span<const float> gate, std::span<const float> up, std::span<float> out);

// Rotary position embedding applied in-place to a [heads, head_dim] block for
// one token at absolute position pos. head_dim must be even; rotates pairs
// (2i, 2i+1) with theta-base frequencies (Llama convention).
void rope_inplace(std::span<float> qk, std::size_t heads, std::size_t head_dim,
                  std::size_t pos, float theta_base = 10000.0f);

// Precomputed RoPE cos/sin tables for one (max_seq, head_dim, theta_base)
// triple. Entries are computed with the exact float expressions of
// rope_inplace, so apply() is bit-identical to it while skipping the
// per-token-per-pair pow/cos/sin.
class RopeTable {
 public:
  RopeTable() = default;
  RopeTable(std::size_t max_seq, std::size_t head_dim, float theta_base);

  // Rotate a [heads, head_dim] block for one token at absolute position pos.
  void apply(std::span<float> qk, std::size_t heads, std::size_t head_dim,
             std::size_t pos) const;

  std::size_t max_seq() const { return max_seq_; }

 private:
  std::size_t max_seq_ = 0;
  std::size_t head_dim_ = 0;
  // [max_seq, head_dim/2] each.
  std::vector<float> cos_;
  std::vector<float> sin_;
};

// Dot product (fp32 accumulate).
float dot(std::span<const float> a, std::span<const float> b);

// Multi-row fp32 matvec: x is [rows, cols] activations, out is
// [rows, out_rows], out[t, r] = dot(a[r, :], x[t, :]) for the weight rows
// r in [r0, r1), on the calling thread; each weight row is streamed once
// for every activation row. Composition-independent (simd::dot_f32_multi
// contract): row t's result is bit-identical to a one-row call on x[t] at
// both kernel levels, whatever rows share the call. A one-row call runs
// simd::dot_f32_rows (four weight rows per pass at the native level). The
// fp32 projection body of WeightMatrix.
void matvec_rows(std::span<const float> a, std::span<const float> x, std::span<float> out,
                 std::size_t out_rows, std::size_t cols, std::size_t rows, std::size_t r0,
                 std::size_t r1);

// matvec_rows over every weight row, split by parallel_projection. The
// lm_head and the readout trainer.
void matvec_multi(std::span<const float> a, std::span<const float> x, std::span<float> out,
                  std::size_t out_rows, std::size_t cols, std::size_t rows);

// Plain fp32 GEMM: C[m,n] = A[m,k] * B[k,n]. Blocked, parallel over row blocks. Used by tests
// as the reference for quantized matmuls and by the trainer.
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          std::size_t m, std::size_t k, std::size_t n);

// argmax over a span; ties resolve to the lowest index.
std::size_t argmax(std::span<const float> x);

// log-sum-exp of a span (stable); building block for cross-entropy.
double logsumexp(std::span<const float> x);

}  // namespace orinsim::kernels
