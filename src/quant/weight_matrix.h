// WeightMatrix: a [out_features, in_features] weight matrix whose storage
// precision is chosen at load time (FP32 / FP16 / INT8 / INT4), exposing one
// projection entry to the transformer engine. This is the C++
// analogue of loading a HuggingFace checkpoint through BitsAndBytes at a
// given quantization level.
#pragma once

#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "quant/quantize.h"
#include "tensor/dtype.h"
#include "tensor/fp16.h"

namespace orinsim::quant {

struct Projection;

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

  // Y[t, :] = W X[t, :] for t in [0, rows); X is [rows, in], Y is
  // [rows, out]. The one projection entry for every shape — a prefill
  // chunk, decode lanes, a multi-sequence verify chunk or a single row —
  // dispatching on storage precision; each weight row is streamed once for
  // all rows. INT8 (and INT4 at kNative) quantize X into act_scratch first.
  // A one-matrix matmul_group.
  //
  // Contract (what lets Model::forward treat every step shape alike): row
  // t's result is bit-identical to a one-row call on X[t] at the active
  // kernel level, whatever rows share the call, for every dtype.
  void matmul(std::span<const float> x, std::span<float> y, std::size_t rows,
              ActivationBatchInt8& act_scratch) const;

  // Reconstruct row r at fp32 (reference path for tests and error analysis).
  void dequantize_row(std::size_t r, std::span<float> out) const;

  // Actual bytes held by this matrix's storage (codes + scales + outliers).
  std::size_t storage_bytes() const noexcept;

  // Number of INT8 outlier columns (0 unless dtype == kI8 with outliers).
  std::size_t outlier_column_count() const noexcept;

 private:
  friend void matmul_group(std::span<const float> x, std::initializer_list<Projection> group,
                           std::size_t rows, ActivationBatchInt8& act_scratch);

  // Whether project() reads activation codes at the active kernel level.
  bool reads_activation_codes() const noexcept;
  // Output rows [r0, r1) of matmul on the calling thread, dispatching on
  // storage precision, with act already holding X's codes when
  // reads_activation_codes().
  void project(std::span<const float> x, const ActivationBatchInt8& act, std::span<float> y,
               std::size_t rows, std::size_t r0, std::size_t r1) const;

  std::size_t out_features_ = 0;
  std::size_t in_features_ = 0;
  DType dtype_ = DType::kF32;

  std::vector<float> f32_;
  std::vector<fp16_t> f16_;
  RowwiseInt8 i8_;
  BlockInt4 i4_;
};

// One output of a shared-input projection group: Y ([rows, w.out]) = W X.
struct Projection {
  const WeightMatrix& w;
  std::span<float> y;
};

// Shared-input projection group: every matrix of the group multiplies the
// same X ([rows, in]). X is quantized at most ONCE into act_scratch and
// shared by whichever matrices read activation codes (the quantization is
// deterministic). The group is the one split site of the projections: its
// output rows, concatenated in group order, split once by
// kernels::parallel_projection, and each range runs its rows of each matrix
// it covers. Every output element is the same op sequence whatever range
// it falls in, so each output is bit-identical to its own
// WeightMatrix::matmul call and to one-row calls. Serves Q/K/V, SwiGLU
// gate/up, and the parallel block's Q/K/V plus fc1.
void matmul_group(std::span<const float> x, std::initializer_list<Projection> group,
                  std::size_t rows, ActivationBatchInt8& act_scratch);

}  // namespace orinsim::quant
