#include "quant/weight_matrix.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
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

void WeightMatrix::matvec(std::span<const float> x, std::span<float> out) const {
  ORINSIM_CHECK(x.size() == in_features_ && out.size() == out_features_,
                "WeightMatrix::matvec shape mismatch");
  switch (dtype_) {
    case DType::kF32:
      kernel_pool().parallel_rows(out_features_, 256, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          out[r] = simd::dot_f32(f32_.data() + r * in_features_, x.data(), in_features_);
        }
      });
      break;
    case DType::kF16:
      matmul(x, out, 1);  // one fp16 loop for every shape
      break;
    case DType::kI8:
      matvec_int8(i8_, x, out);
      break;
    case DType::kI4:
      matvec_int4(i4_, x, out);
      break;
  }
}

void WeightMatrix::matvec_multi(std::span<const float> x, std::span<float> y,
                                std::size_t lanes, ActivationBatchInt8& act_scratch) const {
  ORINSIM_CHECK(x.size() == lanes * in_features_ && y.size() == lanes * out_features_,
                "WeightMatrix::matvec_multi shape mismatch");
  switch (dtype_) {
    case DType::kF32: {
      // dot_f32_multi replicates the single-dot float sequence per lane at
      // both levels, so each lane equals matvec bit-for-bit; one lane is
      // matvec itself.
      if (lanes == 1) {
        matvec(x, y);
        return;
      }
      constexpr std::size_t kLaneTile = 8;
      kernel_pool().parallel_rows(out_features_, 256, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const float* wr = f32_.data() + r * in_features_;
          float tmp[kLaneTile];
          for (std::size_t t0 = 0; t0 < lanes; t0 += kLaneTile) {
            const std::size_t tile = std::min(kLaneTile, lanes - t0);
            simd::dot_f32_multi(wr, x.data() + t0 * in_features_, in_features_, tile,
                                in_features_, tmp);
            for (std::size_t t = 0; t < tile; ++t) y[(t0 + t) * out_features_ + r] = tmp[t];
          }
        }
      });
      return;
    }
    case DType::kF16:
      // Lanes and chunks share matmul's loop, so a lane equals a chunk row
      // and a single matvec bit-for-bit at both kernel levels.
      matmul(x, y, lanes);
      return;
    case DType::kI8:
      quantize_activations_int8(x, lanes, in_features_, act_scratch);
      matvec_int8_multi(i8_, x, act_scratch, y, lanes);
      return;
    case DType::kI4:
      if (simd::active_level() == simd::Level::kNative && !i4_.packed_kernel.empty()) {
        quantize_activations_int8(x, lanes, in_features_, act_scratch);
        matmul_int4(i4_, x, act_scratch, y, lanes);
      } else {
        matmul_int4(i4_, x, y, lanes);  // scalar tile path: per lane == matvec
      }
      return;
  }
}

void WeightMatrix::matmul(std::span<const float> x, std::span<float> y,
                          std::size_t tokens) const {
  ORINSIM_CHECK(x.size() == tokens * in_features_ && y.size() == tokens * out_features_,
                "WeightMatrix::matmul shape mismatch");
  switch (dtype_) {
    case DType::kI8:
      matmul_int8(i8_, x, y, tokens);
      return;
    case DType::kI4:
      matmul_int4(i4_, x, y, tokens);
      return;
    case DType::kF32:
      // One weight-row pass serves every token in the chunk (compute-bound
      // under the SIMD microkernel instead of re-streaming W per token).
      simd::gemm_nt_f32(x.data(), f32_.data(), y.data(), tokens, in_features_, out_features_);
      return;
    case DType::kF16:
      // Dequantize each weight row once (the software fp16 conversion is
      // paid once per row, not per (row, token)), then dot it against every
      // token. A (token, row) result does not depend on the token count.
      kernel_pool().parallel_rows(out_features_, 64, [&](std::size_t r0, std::size_t r1) {
        std::vector<float> row(in_features_);
        for (std::size_t r = r0; r < r1; ++r) {
          const fp16_t* wr = f16_.data() + r * in_features_;
          for (std::size_t c = 0; c < in_features_; ++c) row[c] = fp16_to_float(wr[c]);
          for (std::size_t t = 0; t < tokens; ++t) {
            y[t * out_features_ + r] =
                simd::dot_f32(x.data() + t * in_features_, row.data(), in_features_);
          }
        }
      });
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

void matmul_qkv(const WeightMatrix& wq, const WeightMatrix& wk, const WeightMatrix& wv,
                std::span<const float> x, std::span<float> q, std::span<float> k,
                std::span<float> v, std::size_t tokens, ActivationBatchInt8& act_scratch) {
  if (wq.dtype_ == DType::kI8 && wk.dtype_ == DType::kI8 && wv.dtype_ == DType::kI8) {
    ORINSIM_CHECK(x.size() == tokens * wq.in_features_ && wk.in_features_ == wq.in_features_ &&
                      wv.in_features_ == wq.in_features_,
                  "matmul_qkv: input shape mismatch");
    ORINSIM_CHECK(q.size() == tokens * wq.out_features_ &&
                      k.size() == tokens * wk.out_features_ &&
                      v.size() == tokens * wv.out_features_,
                  "matmul_qkv: output shape mismatch");
    quantize_activations_int8(x, tokens, wq.in_features_, act_scratch);
    matmul_int8(wq.i8_, x, act_scratch, q, tokens);
    matmul_int8(wk.i8_, x, act_scratch, k, tokens);
    matmul_int8(wv.i8_, x, act_scratch, v, tokens);
    return;
  }
  if (wq.dtype_ == DType::kI4 && wk.dtype_ == DType::kI4 && wv.dtype_ == DType::kI4 &&
      simd::active_level() == simd::Level::kNative) {
    ORINSIM_CHECK(x.size() == tokens * wq.in_features_ && wk.in_features_ == wq.in_features_ &&
                      wv.in_features_ == wq.in_features_,
                  "matmul_qkv: input shape mismatch");
    ORINSIM_CHECK(q.size() == tokens * wq.out_features_ &&
                      k.size() == tokens * wk.out_features_ &&
                      v.size() == tokens * wv.out_features_,
                  "matmul_qkv: output shape mismatch");
    // Share one activation-quantization pass across the three packed-int4
    // matmuls (deterministic codes — identical to three separate calls).
    quantize_activations_int8(x, tokens, wq.in_features_, act_scratch);
    matmul_int4(wq.i4_, x, act_scratch, q, tokens);
    matmul_int4(wk.i4_, x, act_scratch, k, tokens);
    matmul_int4(wv.i4_, x, act_scratch, v, tokens);
    return;
  }
  wq.matmul(x, q, tokens);
  wk.matmul(x, k, tokens);
  wv.matmul(x, v, tokens);
}

void matvec_qkv_multi(const WeightMatrix& wq, const WeightMatrix& wk, const WeightMatrix& wv,
                      std::span<const float> x, std::span<float> q, std::span<float> k,
                      std::span<float> v, std::size_t lanes, ActivationBatchInt8& act_scratch) {
  ORINSIM_CHECK(x.size() == lanes * wq.in_features_ && wk.in_features_ == wq.in_features_ &&
                    wv.in_features_ == wq.in_features_,
                "matvec_qkv_multi: input shape mismatch");
  ORINSIM_CHECK(q.size() == lanes * wq.out_features_ && k.size() == lanes * wk.out_features_ &&
                    v.size() == lanes * wv.out_features_,
                "matvec_qkv_multi: output shape mismatch");
  if (wq.dtype_ == DType::kI8 && wk.dtype_ == DType::kI8 && wv.dtype_ == DType::kI8) {
    quantize_activations_int8(x, lanes, wq.in_features_, act_scratch);
    matvec_int8_multi(wq.i8_, x, act_scratch, q, lanes);
    matvec_int8_multi(wk.i8_, x, act_scratch, k, lanes);
    matvec_int8_multi(wv.i8_, x, act_scratch, v, lanes);
    return;
  }
  if (wq.dtype_ == DType::kI4 && wk.dtype_ == DType::kI4 && wv.dtype_ == DType::kI4 &&
      simd::active_level() == simd::Level::kNative) {
    quantize_activations_int8(x, lanes, wq.in_features_, act_scratch);
    matmul_int4(wq.i4_, x, act_scratch, q, lanes);
    matmul_int4(wk.i4_, x, act_scratch, k, lanes);
    matmul_int4(wv.i4_, x, act_scratch, v, lanes);
    return;
  }
  wq.matvec_multi(x, q, lanes, act_scratch);
  wk.matvec_multi(x, k, lanes, act_scratch);
  wv.matvec_multi(x, v, lanes, act_scratch);
}

}  // namespace orinsim::quant
