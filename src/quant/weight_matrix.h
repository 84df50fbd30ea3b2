// WeightMatrix: a [out_features, in_features] weight matrix whose storage
// precision is chosen at load time (FP32 / FP16 / INT8 / INT4), exposing a
// uniform matvec interface to the transformer engine. This is the C++
// analogue of loading a HuggingFace checkpoint through BitsAndBytes at a
// given quantization level.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "quant/quantize.h"
#include "tensor/dtype.h"
#include "tensor/fp16.h"

namespace orinsim::quant {

class WeightMatrix {
 public:
  WeightMatrix() = default;

  // Quantizes fp32 source weights into the requested storage precision.
  // outlier_sigma: for INT8, columns with |w| >= outlier_sigma * stddev(W)
  // are kept in FP16 (LLM.int8() decomposition); pass 0 to disable.
  static WeightMatrix create(std::span<const float> weights, std::size_t out_features,
                             std::size_t in_features, DType dtype,
                             float outlier_sigma = 6.0f);

  std::size_t out_features() const noexcept { return out_features_; }
  std::size_t in_features() const noexcept { return in_features_; }
  DType dtype() const noexcept { return dtype_; }

  // out[r] = sum_c W[r,c] * x[c]; dispatches on storage precision. The
  // single-column reference the lane kernels are pinned against.
  void matvec(std::span<const float> x, std::span<float> out) const;

  // Y[t, :] = W * X[t, :] for t in [0, tokens); X is [tokens, in], Y is
  // [tokens, out]. INT8/INT4 use the blocked multi-token kernels (each
  // weight row streamed once for all tokens, activations quantized once per
  // token); FP32 streams each weight row once for all tokens, FP16
  // dequantizes each row once and dots it against every token.
  void matmul(std::span<const float> x, std::span<float> y, std::size_t tokens) const;

  // Lane-batched matvec: one activation column per decode lane (X is
  // [lanes, in], Y is [lanes, out]), one weight stream shared by all lanes —
  // decode is memory-bound, so this amortization is the batching win.
  //
  // Contract (what lets Model::forward batch arbitrary subsets of lanes):
  // lane t's result is bit-identical to matvec(X[t]) at the active kernel
  // level, and independent of the batch composition, for every dtype. kF16
  // lanes run the matmul loop (each row dequantized once, dotted per lane),
  // so they also equal a chunk row bit-for-bit. act_scratch feeds the
  // INT8/INT4 paths.
  void matvec_multi(std::span<const float> x, std::span<float> y, std::size_t lanes,
                    ActivationBatchInt8& act_scratch) const;

  // Reconstruct row r at fp32 (reference path for tests and error analysis).
  void dequantize_row(std::size_t r, std::span<float> out) const;

  // Actual bytes held by this matrix's storage (codes + scales + outliers).
  std::size_t storage_bytes() const noexcept;

  // Number of INT8 outlier columns (0 unless dtype == kI8 with outliers).
  std::size_t outlier_column_count() const noexcept;

 private:
  friend void matmul_qkv(const WeightMatrix& wq, const WeightMatrix& wk,
                         const WeightMatrix& wv, std::span<const float> x,
                         std::span<float> q, std::span<float> k, std::span<float> v,
                         std::size_t tokens, ActivationBatchInt8& act_scratch);
  friend void matvec_qkv_multi(const WeightMatrix& wq, const WeightMatrix& wk,
                               const WeightMatrix& wv, std::span<const float> x,
                               std::span<float> q, std::span<float> k, std::span<float> v,
                               std::size_t lanes, ActivationBatchInt8& act_scratch);

  std::size_t out_features_ = 0;
  std::size_t in_features_ = 0;
  DType dtype_ = DType::kF32;

  std::vector<float> f32_;
  std::vector<fp16_t> f16_;
  RowwiseInt8 i8_;
  BlockInt4 i4_;
};

// Fused QKV projection of a prefill chunk: X is [tokens, in], Q/K/V are
// [tokens, out_q/k/v]. When all three matrices are INT8 (or INT4 on the
// native packed path) the chunk is quantized ONCE into act_scratch and
// reused; per-token results are bit-identical to three independent matmul
// calls. Other precisions fall through to matmul.
void matmul_qkv(const WeightMatrix& wq, const WeightMatrix& wk, const WeightMatrix& wv,
                std::span<const float> x, std::span<float> q, std::span<float> k,
                std::span<float> v, std::size_t tokens, ActivationBatchInt8& act_scratch);

// Lane-batched counterpart of matmul_qkv: X holds one activation column per
// lane. When all three matrices are INT8 (or INT4 on the native packed path)
// the lane batch is quantized ONCE into act_scratch and reused across
// Q/K/V; activation quantization is deterministic, so results stay
// bit-identical to three matvec_multi calls. Other precisions fall through
// to per-matrix matvec_multi (which inherits the matvec_multi contract).
void matvec_qkv_multi(const WeightMatrix& wq, const WeightMatrix& wk, const WeightMatrix& wv,
                      std::span<const float> x, std::span<float> q, std::span<float> k,
                      std::span<float> v, std::size_t lanes, ActivationBatchInt8& act_scratch);

}  // namespace orinsim::quant
