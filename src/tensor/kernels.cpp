#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/thread_pool.h"
#include "tensor/simd.h"

namespace orinsim::kernels {

namespace {
// Rows below this threshold run serially; the fork/join costs more than it
// saves on tiny batches.
constexpr std::size_t kParallelRowThreshold = 8;
}  // namespace

void add_bias(std::span<float> x, std::span<const float> bias, std::size_t rows,
              std::size_t cols) {
  ORINSIM_CHECK(x.size() == rows * cols && bias.size() == cols, "add_bias: shape mismatch");
  for (std::size_t r = 0; r < rows; ++r) {
    float* xr = x.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) xr[c] += bias[c];
  }
}

void add_inplace(std::span<float> y, std::span<const float> x) {
  ORINSIM_CHECK(y.size() == x.size(), "add_inplace: size mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

void scale_inplace(std::span<float> x, float factor) {
  for (auto& v : x) v *= factor;
}

void softmax_rows(std::span<float> x, std::size_t rows, std::size_t cols) {
  ORINSIM_CHECK(x.size() == rows * cols, "softmax: shape mismatch");
  kernel_pool().parallel_rows(rows, kParallelRowThreshold, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) simd::softmax_f32(x.data() + r * cols, cols);
  });
}

void rmsnorm_rows(std::span<const float> x, std::span<const float> gain, std::span<float> y,
                  std::size_t rows, std::size_t cols, float eps) {
  ORINSIM_CHECK(x.size() == rows * cols && y.size() == x.size() && gain.size() == cols,
                "rmsnorm: shape mismatch");
  kernel_pool().parallel_rows(rows, kParallelRowThreshold, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const float* xr = x.data() + r * cols;
      float* yr = y.data() + r * cols;
      double ss = 0.0;
      for (std::size_t c = 0; c < cols; ++c) ss += static_cast<double>(xr[c]) * xr[c];
      const float inv_rms =
          1.0f / std::sqrt(static_cast<float>(ss / static_cast<double>(cols)) + eps);
      for (std::size_t c = 0; c < cols; ++c) yr[c] = xr[c] * inv_rms * gain[c];
    }
  });
}

void layernorm_rows(std::span<const float> x, std::span<const float> gain,
                    std::span<const float> bias, std::span<float> y, std::size_t rows,
                    std::size_t cols, float eps) {
  ORINSIM_CHECK(x.size() == rows * cols && y.size() == x.size() && gain.size() == cols &&
                    bias.size() == cols,
                "layernorm: shape mismatch");
  kernel_pool().parallel_rows(rows, kParallelRowThreshold, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const float* xr = x.data() + r * cols;
      float* yr = y.data() + r * cols;
      double sum = 0.0;
      for (std::size_t c = 0; c < cols; ++c) sum += xr[c];
      const double m = sum / static_cast<double>(cols);
      double var = 0.0;
      for (std::size_t c = 0; c < cols; ++c) var += (xr[c] - m) * (xr[c] - m);
      var /= static_cast<double>(cols);
      const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      for (std::size_t c = 0; c < cols; ++c) {
        yr[c] = (xr[c] - static_cast<float>(m)) * inv * gain[c] + bias[c];
      }
    }
  });
}

void silu_inplace(std::span<float> x) { simd::swiglu_f32(x.data(), nullptr, x.size(), x.data()); }

void gelu_inplace(std::span<float> x) { simd::gelu_f32(x.data(), x.size()); }

void swiglu(std::span<const float> gate, std::span<const float> up, std::span<float> out) {
  ORINSIM_CHECK(gate.size() == up.size() && out.size() == gate.size(), "swiglu: size mismatch");
  simd::swiglu_f32(gate.data(), up.data(), out.size(), out.data());
}

void rope_inplace(std::span<float> qk, std::size_t heads, std::size_t head_dim,
                  std::size_t pos, float theta_base) {
  ORINSIM_CHECK(qk.size() == heads * head_dim, "rope: shape mismatch");
  ORINSIM_CHECK(head_dim % 2 == 0, "rope: head_dim must be even");
  for (std::size_t h = 0; h < heads; ++h) {
    float* v = qk.data() + h * head_dim;
    for (std::size_t i = 0; i < head_dim; i += 2) {
      const float freq =
          std::pow(theta_base, -static_cast<float>(i) / static_cast<float>(head_dim));
      const float angle = static_cast<float>(pos) * freq;
      const float cs = std::cos(angle);
      const float sn = std::sin(angle);
      const float x0 = v[i];
      const float x1 = v[i + 1];
      v[i] = x0 * cs - x1 * sn;
      v[i + 1] = x0 * sn + x1 * cs;
    }
  }
}

RopeTable::RopeTable(std::size_t max_seq, std::size_t head_dim, float theta_base)
    : max_seq_(max_seq), head_dim_(head_dim) {
  ORINSIM_CHECK(head_dim % 2 == 0, "rope: head_dim must be even");
  const std::size_t half = head_dim / 2;
  cos_.resize(max_seq * half);
  sin_.resize(max_seq * half);
  for (std::size_t pos = 0; pos < max_seq; ++pos) {
    for (std::size_t i = 0; i < head_dim; i += 2) {
      // Identical expressions to rope_inplace so table lookups are bit-exact.
      const float freq =
          std::pow(theta_base, -static_cast<float>(i) / static_cast<float>(head_dim));
      const float angle = static_cast<float>(pos) * freq;
      cos_[pos * half + i / 2] = std::cos(angle);
      sin_[pos * half + i / 2] = std::sin(angle);
    }
  }
}

void RopeTable::apply(std::span<float> qk, std::size_t heads, std::size_t head_dim,
                      std::size_t pos) const {
  ORINSIM_CHECK(qk.size() == heads * head_dim, "rope: shape mismatch");
  ORINSIM_CHECK(head_dim == head_dim_ && pos < max_seq_, "rope table: out of range");
  const std::size_t half = head_dim / 2;
  const float* cs_row = cos_.data() + pos * half;
  const float* sn_row = sin_.data() + pos * half;
  for (std::size_t h = 0; h < heads; ++h) {
    float* v = qk.data() + h * head_dim;
    for (std::size_t i = 0; i < head_dim; i += 2) {
      const float cs = cs_row[i / 2];
      const float sn = sn_row[i / 2];
      const float x0 = v[i];
      const float x1 = v[i + 1];
      v[i] = x0 * cs - x1 * sn;
      v[i + 1] = x0 * sn + x1 * cs;
    }
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  ORINSIM_DCHECK(a.size() == b.size(), "dot: size mismatch");
  return simd::dot_f32(a.data(), b.data(), a.size());
}

void matvec_rows(std::span<const float> a, std::span<const float> x, std::span<float> out,
                 std::size_t out_rows, std::size_t cols, std::size_t rows, std::size_t r0,
                 std::size_t r1) {
  ORINSIM_CHECK(a.size() == out_rows * cols && x.size() == rows * cols &&
                    out.size() == rows * out_rows && r0 <= r1 && r1 <= out_rows,
                "matvec_rows: shape mismatch");
  // One activation row (a width-1 step, the lm_head): the weight rows run
  // through dot_f32_rows, whose native tile loads each slice of x once for
  // four weight rows.
  if (rows == 1) {
    simd::dot_f32_rows(a.data() + r0 * cols, cols, r1 - r0, x.data(), cols, out.data() + r0);
    return;
  }
  // Rows go through dot_f32_multi in stack tiles (its per-column results do
  // not depend on the tile), so the hot loop never allocates.
  constexpr std::size_t kRowTile = 8;
  float tmp[kRowTile];
  for (std::size_t r = r0; r < r1; ++r) {
    const float* ar = a.data() + r * cols;
    for (std::size_t t0 = 0; t0 < rows; t0 += kRowTile) {
      const std::size_t tile = std::min(kRowTile, rows - t0);
      simd::dot_f32_multi(ar, x.data() + t0 * cols, cols, tile, cols, tmp);
      for (std::size_t t = 0; t < tile; ++t) out[(t0 + t) * out_rows + r] = tmp[t];
    }
  }
}

void matvec_multi(std::span<const float> a, std::span<const float> x, std::span<float> out,
                  std::size_t out_rows, std::size_t cols, std::size_t rows) {
  parallel_projection(out_rows, rows, cols, [&](std::size_t r0, std::size_t r1) {
    matvec_rows(a, x, out, out_rows, cols, rows, r0, r1);
  });
}

void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          std::size_t m, std::size_t k, std::size_t n) {
  ORINSIM_CHECK(a.size() == m * k && b.size() == k * n && c.size() == m * n,
                "gemm: shape mismatch");
  std::fill(c.begin(), c.end(), 0.0f);
  constexpr std::size_t kBlock = 64;
  // Row blocks are the unit of work (fewer than kParallelRowThreshold rows
  // are one block); a row's sums run in p order either way.
  const std::size_t blocks = (m + kBlock - 1) / kBlock;
  kernel_pool().parallel_rows(blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t i0 = b0 * kBlock; i0 < std::min(b1 * kBlock, m); i0 += kBlock) {
      const std::size_t i_end = std::min(i0 + kBlock, m);
      for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
        const std::size_t p_end = std::min(p0 + kBlock, k);
        for (std::size_t i = i0; i < i_end; ++i) {
          const float* ai = a.data() + i * k;
          float* ci = c.data() + i * n;
          for (std::size_t p = p0; p < p_end; ++p) {
            const float av = ai[p];
            const float* bp = b.data() + p * n;
            for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
          }
        }
      }
    }
  });
}

std::size_t argmax(std::span<const float> x) {
  ORINSIM_CHECK(!x.empty(), "argmax of empty span");
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

double logsumexp(std::span<const float> x) {
  ORINSIM_CHECK(!x.empty(), "logsumexp of empty span");
  float mx = x[0];
  for (float v : x) mx = std::max(mx, v);
  double sum = 0.0;
  for (float v : x) sum += std::exp(static_cast<double>(v) - mx);
  return static_cast<double>(mx) + std::log(sum);
}

}  // namespace orinsim::kernels
