#include "quant/weight_matrix.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace orinsim::quant {

WeightMatrix WeightMatrix::create(std::span<const float> weights, std::size_t out_features,
                                  std::size_t in_features, DType dtype, float outlier_sigma) {
  ORINSIM_CHECK(weights.size() == out_features * in_features, "WeightMatrix: shape mismatch");
  WeightMatrix w;
  w.out_features_ = out_features;
  w.in_features_ = in_features;
  w.dtype_ = dtype;
  switch (dtype) {
    case DType::kF32:
      w.f32_.assign(weights.begin(), weights.end());
      break;
    case DType::kF16:
      w.f16_ = quantize_fp16(weights);
      break;
    case DType::kI8: {
      float threshold = 0.0f;
      if (outlier_sigma > 0.0f) {
        double sum = 0.0, sq = 0.0;
        for (float v : weights) {
          sum += v;
          sq += static_cast<double>(v) * v;
        }
        const double n = static_cast<double>(weights.size());
        const double var = sq / n - (sum / n) * (sum / n);
        threshold = outlier_sigma * static_cast<float>(std::sqrt(std::max(var, 0.0)));
      }
      w.i8_ = quantize_rowwise_int8(weights, out_features, in_features, threshold);
      break;
    }
    case DType::kI4:
      w.i4_ = quantize_block_int4(weights, out_features, in_features);
      break;
  }
  return w;
}

bool WeightMatrix::reads_activation_codes() const noexcept {
  return dtype_ == DType::kI8 ||
         (dtype_ == DType::kI4 && simd::active_level() == simd::Level::kNative);
}

void WeightMatrix::matmul(std::span<const float> x, std::span<float> y, std::size_t rows,
                          ActivationBatchInt8& act_scratch) const {
  matmul_group(x, {{*this, y}}, rows, act_scratch);
}

void WeightMatrix::project(std::span<const float> x, const ActivationBatchInt8& act,
                           std::span<float> y, std::size_t rows, std::size_t r0,
                           std::size_t r1) const {
  switch (dtype_) {
    case DType::kF32:
      kernels::matvec_rows(f32_, x, y, out_features_, in_features_, rows, r0, r1);
      return;
    case DType::kF16: {
      // Dequantize each weight row once (the software fp16 conversion is
      // paid once per row, not per (row, token)), then dot it against every
      // row of X. A (row, token) result does not depend on the row count.
      std::vector<float> row(in_features_);
      for (std::size_t r = r0; r < r1; ++r) {
        const fp16_t* wr = f16_.data() + r * in_features_;
        for (std::size_t c = 0; c < in_features_; ++c) row[c] = fp16_to_float(wr[c]);
        for (std::size_t t = 0; t < rows; ++t) {
          y[t * out_features_ + r] =
              simd::dot_f32(x.data() + t * in_features_, row.data(), in_features_);
        }
      }
      return;
    }
    case DType::kI8:
      matmul_int8(i8_, x, act, y, rows, r0, r1);
      return;
    case DType::kI4:
      matmul_int4(i4_, x, act, y, rows, r0, r1);
      return;
  }
}

void WeightMatrix::dequantize_row(std::size_t r, std::span<float> out) const {
  ORINSIM_CHECK(r < out_features_ && out.size() == in_features_,
                "dequantize_row: shape mismatch");
  switch (dtype_) {
    case DType::kF32:
      for (std::size_t c = 0; c < in_features_; ++c) out[c] = f32_[r * in_features_ + c];
      break;
    case DType::kF16:
      for (std::size_t c = 0; c < in_features_; ++c) {
        out[c] = fp16_to_float(f16_[r * in_features_ + c]);
      }
      break;
    case DType::kI8:
      quant::dequantize_row(i8_, r, out);
      break;
    case DType::kI4:
      quant::dequantize_row(i4_, r, out);
      break;
  }
}

std::size_t WeightMatrix::storage_bytes() const noexcept {
  switch (dtype_) {
    case DType::kF32:
      return f32_.size() * sizeof(float);
    case DType::kF16:
      return f16_.size() * sizeof(fp16_t);
    case DType::kI8:
      return i8_.storage_bytes();
    case DType::kI4:
      return i4_.storage_bytes();
  }
  return 0;
}

std::size_t WeightMatrix::outlier_column_count() const noexcept {
  return dtype_ == DType::kI8 ? i8_.outlier_cols.size() : 0;
}

void matmul_group(std::span<const float> x, std::initializer_list<Projection> group,
                  std::size_t rows, ActivationBatchInt8& act_scratch) {
  bool quantize = false;
  std::size_t out_rows = 0;
  for (const Projection& p : group) {
    ORINSIM_CHECK(x.size() == rows * p.w.in_features_ && p.y.size() == rows * p.w.out_features_,
                  "matmul_group: shape mismatch");
    quantize = quantize || p.w.reads_activation_codes();
    out_rows += p.w.out_features_;
  }
  if (group.size() == 0) return;
  const std::size_t in_features = group.begin()->w.in_features_;
  if (quantize) quantize_activations_int8(x, rows, in_features, act_scratch);
  // One split over the group's output rows, concatenated in group order: a
  // range may end inside one matrix and go on into the next.
  kernels::parallel_projection(out_rows, rows, in_features, [&](std::size_t r0, std::size_t r1) {
    std::size_t first = 0;  // the matrix's first row in the concatenation
    for (const Projection& p : group) {
      const std::size_t lo = std::max(r0, first);
      const std::size_t hi = std::min(r1, first + p.w.out_features_);
      if (lo < hi) p.w.project(x, act_scratch, p.y, rows, lo - first, hi - first);
      first += p.w.out_features_;
    }
  });
}

}  // namespace orinsim::quant
