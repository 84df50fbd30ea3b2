// Per-forward-step scratch for the functional transformer engine.
//
// A Model shares immutable quantized weights; everything Model::forward
// mutates lives here, as row-major [rows, features] buffers — one row per
// token of a prefill chunk or per decode lane. One workspace per
// concurrently-executing caller makes forward re-entrant: a
// FunctionalTokenBackend built with a lane pool keeps one per shard for its
// prefill waves, while serial callers use one (the Model's built-in default
// workspace, or their own). Attention's score buffer depends on the step's
// contexts, so it grows on demand instead of being sized for max_seq.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "model/config.h"
#include "quant/quantize.h"

namespace orinsim {

inline constexpr std::size_t kCacheLineBytes = 64;

// Allocator whose buffers start on a cache line, so buffers that split
// ranges write in line-sized slices share no line between ranges.
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) { return true; }
};

using LineAlignedFloats = std::vector<float, CacheLineAllocator<float>>;

struct InferenceWorkspace {
  explicit InferenceWorkspace(const TransformerConfig& c)
      : hidden(c.d_model) {
    ensure_rows(c, 1);
  }

  // Grow the row buffers to hold `rows` rows (no-op once sized; vectors never
  // shrink, so alternating widths stay allocation-free after the first pass).
  void ensure_rows(const TransformerConfig& c, std::size_t rows) {
    if (rows <= row_capacity) return;
    x.resize(rows * c.d_model);
    normed.resize(rows * c.d_model);
    q.resize(rows * c.d_model);
    k.resize(rows * c.kv_dim());
    v.resize(rows * c.kv_dim());
    attn.resize(rows * c.d_model);
    attn_proj.resize(rows * c.d_model);
    gate.resize(rows * c.d_ff);
    up.resize(rows * c.d_ff);
    ff.resize(rows * c.d_ff);
    mlp_out.resize(rows * c.d_model);
    hidden_rows.resize(rows * c.d_model);
    row_capacity = rows;
  }

  // Residual stream, projections and MLP activations, [rows, features].
  std::vector<float> x, normed, q, k, v, attn_proj, gate, up, ff, mlp_out;
  // Attention outputs, [rows, d_model]. Split attention ranges store their
  // (row, KV group) slices here once each.
  LineAlignedFloats attn;
  // Causal scores of every sequence of the step: sequence i's run of
  // [run, n_heads, prefix length rounded up to a cache line] starts at
  // score_offset[i], a whole number of lines in. Attention grows it on
  // demand; split attention ranges share it, each writing only its own
  // (row, head) rows.
  LineAlignedFloats scores;
  std::vector<std::size_t> score_offset;
  // Final hidden state of the last row advanced through this workspace
  // (prefill() leaves the prompt's last position here).
  std::vector<float> hidden;
  // Final hidden states of a Model::decode step, [rows, d_model].
  std::vector<float> hidden_rows;
  // INT8 activation codes of a projection's input (one quantization serves
  // every matrix of a quant::matmul_group).
  quant::ActivationBatchInt8 act8;
  std::size_t row_capacity = 0;
};

}  // namespace orinsim
