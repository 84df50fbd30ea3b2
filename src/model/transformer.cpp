#include "model/transformer.h"

#include <algorithm>
#include <cmath>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace orinsim {

namespace {
void init_gaussian(std::vector<float>& w, std::size_t n, Rng& rng, double stddev) {
  w.resize(n);
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, stddev));
}

// Trained transformers develop heavy-tailed weight/activation distributions
// with emergent outlier features (Dettmers et al., LLM.int8()); these are
// what make INT8 quantization lossy in practice. Block weights therefore use
// a Gaussian mixture: a small fraction of entries are drawn at several times
// the base scale. Pure Gaussians would make INT8 artificially lossless and
// erase the Table 3 effect this engine reproduces.
void init_heavy_tailed(std::vector<float>& w, std::size_t n, Rng& rng, double stddev) {
  constexpr double kOutlierFraction = 0.04;
  constexpr double kOutlierScale = 5.0;
  w.resize(n);
  for (auto& v : w) {
    const double scale = rng.bernoulli(kOutlierFraction) ? kOutlierScale : 1.0;
    v = static_cast<float>(rng.normal(0.0, stddev * scale));
  }
}
}  // namespace

std::shared_ptr<MasterWeights> MasterWeights::init_random(const TransformerConfig& config,
                                                          std::uint64_t seed) {
  config.validate();
  auto mw = std::make_shared<MasterWeights>();
  mw->config = config;
  Rng rng(seed);

  const std::size_t d = config.d_model;
  const std::size_t kv = config.kv_dim();
  const std::size_t ff = config.d_ff;
  const double sigma_in = 1.0 / std::sqrt(static_cast<double>(d));
  const double sigma_ff = 1.0 / std::sqrt(static_cast<double>(ff));
  const double residual_scale = 1.0 / std::sqrt(2.0 * static_cast<double>(config.n_layers));

  init_gaussian(mw->embedding, config.vocab * d, rng, 0.5);
  init_gaussian(mw->lm_head, config.vocab * d, rng, 0.02);
  mw->final_norm_gain.assign(d, 1.0f);
  mw->final_norm_bias.assign(d, 0.0f);

  mw->layers.resize(config.n_layers);
  for (auto& layer : mw->layers) {
    init_heavy_tailed(layer.wq, d * d, rng, sigma_in);
    init_heavy_tailed(layer.wk, kv * d, rng, sigma_in);
    init_heavy_tailed(layer.wv, kv * d, rng, sigma_in);
    init_heavy_tailed(layer.wo, d * d, rng, sigma_in * residual_scale);
    if (config.style == BlockStyle::kPreNormSwiGLU) {
      init_heavy_tailed(layer.w_gate, ff * d, rng, sigma_in);
      init_heavy_tailed(layer.w_up, ff * d, rng, sigma_in);
      init_heavy_tailed(layer.w_down, d * ff, rng, sigma_ff * residual_scale);
      layer.norm2_gain.assign(d, 1.0f);
    } else {
      init_heavy_tailed(layer.w_gate, ff * d, rng, sigma_in);  // fc1
      init_heavy_tailed(layer.w_down, d * ff, rng, sigma_ff * residual_scale);  // fc2
      layer.norm_bias.assign(d, 0.0f);
    }
    layer.norm_gain.assign(d, 1.0f);
    if (layer.norm_bias.empty() && config.style == BlockStyle::kParallelGELU) {
      layer.norm_bias.assign(d, 0.0f);
    }
  }
  return mw;
}

namespace {
const MasterWeights& checked_master(const std::shared_ptr<const MasterWeights>& m) {
  ORINSIM_CHECK(m != nullptr, "Model requires master weights");
  return *m;
}
}  // namespace

Model::Model(std::shared_ptr<const MasterWeights> master, DType dtype,
             KVStorage kv_storage)
    : master_(std::move(master)),
      dtype_(dtype),
      kv_storage_(kv_storage),
      rope_(checked_master(master_).config.max_seq, master_->config.head_dim(),
            master_->config.rope_theta),
      default_ws_(master_->config) {
  const TransformerConfig& c = master_->config;
  const std::size_t d = c.d_model;
  const std::size_t kv = c.kv_dim();
  const std::size_t ff = c.d_ff;

  layers_.reserve(c.n_layers);
  for (const auto& lm : master_->layers) {
    LayerQuant lq;
    lq.wq = quant::WeightMatrix::create(lm.wq, d, d, dtype_);
    lq.wk = quant::WeightMatrix::create(lm.wk, kv, d, dtype_);
    lq.wv = quant::WeightMatrix::create(lm.wv, kv, d, dtype_);
    lq.wo = quant::WeightMatrix::create(lm.wo, d, d, dtype_);
    if (c.style == BlockStyle::kPreNormSwiGLU) {
      lq.w_gate = quant::WeightMatrix::create(lm.w_gate, ff, d, dtype_);
      lq.w_up = quant::WeightMatrix::create(lm.w_up, ff, d, dtype_);
      lq.w_down = quant::WeightMatrix::create(lm.w_down, d, ff, dtype_);
    } else {
      lq.w_gate = quant::WeightMatrix::create(lm.w_gate, ff, d, dtype_);
      lq.w_down = quant::WeightMatrix::create(lm.w_down, d, ff, dtype_);
    }
    layers_.push_back(std::move(lq));
  }
}

std::size_t Model::weight_bytes() const noexcept {
  std::size_t total =
      (master_->embedding.size() + master_->lm_head.size()) * sizeof(float);
  for (const auto& lq : layers_) {
    total += lq.wq.storage_bytes() + lq.wk.storage_bytes() + lq.wv.storage_bytes() +
             lq.wo.storage_bytes() + lq.w_gate.storage_bytes() + lq.w_up.storage_bytes() +
             lq.w_down.storage_bytes();
  }
  return total;
}

std::size_t Model::outlier_columns() const noexcept {
  std::size_t total = 0;
  for (const auto& lq : layers_) {
    total += lq.wq.outlier_column_count() + lq.wk.outlier_column_count() +
             lq.wv.outlier_column_count() + lq.wo.outlier_column_count() +
             lq.w_gate.outlier_column_count() + lq.w_up.outlier_column_count() +
             lq.w_down.outlier_column_count();
  }
  return total;
}

void Model::attention(std::size_t layer, std::span<const std::size_t> seqs, std::size_t run,
                      KVCache& cache, InferenceWorkspace& ws) {
  const TransformerConfig& c = master_->config;
  const std::size_t rows = seqs.size() * run;
  const std::size_t head_dim = c.head_dim();
  const std::size_t group = c.n_heads / c.n_kv_heads;
  const std::size_t kv_dim = c.kv_dim();
  const std::size_t d = c.d_model;
  const std::span<float> q(ws.q.data(), rows * d);
  const std::span<float> k(ws.k.data(), rows * kv_dim);
  const std::span<float> v(ws.v.data(), rows * kv_dim);

  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const std::size_t block_tokens = cache.block_tokens();
  // Native head_dim 16: scores run on a transposed copy of each key block,
  // one KV head at a time, shared by every row and every head of its group;
  // a block's weighted values accumulate in registers. These kernels read an
  // INT8 block's codes in place (fold); every other INT8 read dequantizes a
  // block into a tile.
  const bool hd16 = simd::attention_hd16(head_dim);
  const bool fold = hd16 && cache.storage() == KVStorage::kI8;
  const std::size_t key_tiles_size = hd16 ? simd::transposed_keys_size(block_tokens) : 0;
  const std::size_t kv_tile_size =
      cache.storage() == KVStorage::kI8 && !hd16 ? block_tokens * kv_dim : 0;
  // One unit's outputs: its row's group heads, head_dim apart.
  const std::size_t unit_out = group * head_dim;
  constexpr std::size_t kLineFloats = kCacheLineBytes / sizeof(float);
  // Causal: row t of a sequence attends to its positions 0..first+t, and
  // its score rows are padded to whole cache lines.
  auto score_stride = [&](std::size_t first) {
    return (first + run + kLineFloats - 1) / kLineFloats * kLineFloats;
  };

  // Serial per sequence: RoPE, then stage the run's K/V rows (forward
  // commits once after all layers). Sequence i's scores start at
  // ws.score_offset[i], a whole number of cache lines into ws.scores.
  ws.score_offset.resize(seqs.size());
  std::size_t score_floats = 0;
  std::size_t work = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const std::size_t b = seqs[i];
    const std::size_t r0 = i * run;
    const std::size_t first = cache.seq_len(b);
    for (std::size_t t = 0; t < run; ++t) {
      rope_.apply(q.subspan((r0 + t) * d, d), c.n_heads, head_dim, first + t);
      rope_.apply(k.subspan((r0 + t) * kv_dim, kv_dim), c.n_kv_heads, head_dim, first + t);
    }
    cache.append_many(layer, b, k.subspan(r0 * kv_dim, run * kv_dim),
                      v.subspan(r0 * kv_dim, run * kv_dim), run);
    ws.score_offset[i] = score_floats;
    score_floats += run * c.n_heads * score_stride(first);
    work += c.n_kv_heads * run * group * (first + run) * head_dim * 2;
  }
  if (ws.scores.size() < score_floats) ws.scores.resize(score_floats);

  // Units [u0, u1) of sequence i's (KV head g, row t), u = g * run + t,
  // with `outs` holding their value sums. The range reads each block its
  // rows reach once for K and once for V. It writes its own score rows,
  // sums its units' values in its own scratch and stores each unit's
  // outputs to ws.attn once, so no cache line is written by two ranges.
  auto attend_seq = [&](std::size_t i, std::size_t u0, std::size_t u1, float* key_tiles,
                        std::span<float> kv_tile, float* outs) {
    const std::size_t b = seqs[i];
    const std::size_t r0 = i * run;
    const std::size_t first = cache.seq_len(b);
    const std::size_t stride = score_stride(first);
    // Scores of (t, h) live at (t * n_heads + h) * stride past the offset.
    auto scores = [&](std::size_t t, std::size_t h) {
      return ws.scores.data() + ws.score_offset[i] + (t * c.n_heads + h) * stride;
    };
    std::fill_n(outs, (u1 - u0) * unit_out, 0.0f);
    const std::size_t g0 = u0 / run;
    const std::size_t g1 = (u1 - 1) / run + 1;
    auto t_begin = [&](std::size_t g) { return std::max(u0, g * run) - g * run; };
    auto t_end = [&](std::size_t g) { return std::min(u1, (g + 1) * run) - g * run; };
    // The range's furthest row is its first head's last (row run - 1
    // unless the range ends inside that head).
    const std::size_t reach = first + t_end(g0);
    const std::size_t n_blocks = (reach + block_tokens - 1) / block_tokens;
    for (std::size_t j = 0; j < n_blocks; ++j) {
      const std::size_t p0 = j * block_tokens;
      const std::size_t block_rows = std::min(block_tokens, reach - p0);
      std::span<const float> keys;
      KVCache::Int8Rows keys8{};
      if (fold) {
        keys8 = cache.key_block_i8(layer, b, j, block_rows);
      } else {
        keys = cache.key_block(layer, b, j, block_rows, kv_tile);
      }
      // Rows before position p0 see nothing of this block.
      const std::size_t t0 = p0 > first ? p0 - first : 0;
      for (std::size_t g = g0; g < g1; ++g) {
        const std::size_t t_lo = std::max(t_begin(g), t0);
        if (t_lo >= t_end(g)) continue;
        if (hd16) {
          if (fold) {
            simd::transpose_keys_hd16_i8(keys8.codes + g * head_dim, keys8.scales, kv_dim,
                                         block_rows, key_tiles);
          } else {
            simd::transpose_keys_hd16(keys.data() + g * head_dim, kv_dim, block_rows,
                                      key_tiles);
          }
          for (std::size_t t = t_lo; t < t_end(g); ++t) {
            simd::scores_hd16(key_tiles, std::min(block_tokens, first + t + 1 - p0),
                              ws.q.data() + (r0 + t) * d + g * group * head_dim, group,
                              inv_sqrt_d, scores(t, g * group) + p0, stride);
          }
          continue;
        }
        for (std::size_t t = t_lo; t < t_end(g); ++t) {
          const std::size_t n_pos = std::min(block_tokens, first + t + 1 - p0);
          for (std::size_t h = g * group; h < (g + 1) * group; ++h) {
            const std::span<const float> qh(ws.q.data() + (r0 + t) * d + h * head_dim,
                                            head_dim);
            float* s = scores(t, h) + p0;
            for (std::size_t p = 0; p < n_pos; ++p) {
              s[p] = kernels::dot(qh, keys.subspan(p * kv_dim + g * head_dim, head_dim)) *
                     inv_sqrt_d;
            }
          }
        }
      }
    }
    // The softmax runs per (row, head) over exactly its own prefix, so
    // every (row, head) is the same op sequence whatever the step's shape.
    for (std::size_t g = g0; g < g1; ++g) {
      for (std::size_t t = t_begin(g); t < t_end(g); ++t) {
        for (std::size_t h = g * group; h < (g + 1) * group; ++h) {
          kernels::softmax_rows(std::span<float>(scores(t, h), first + t + 1), 1,
                                first + t + 1);
        }
      }
    }
    // Blocks in ascending order keep each output's accumulation order.
    for (std::size_t j = 0; j < n_blocks; ++j) {
      const std::size_t p0 = j * block_tokens;
      const std::size_t block_rows = std::min(block_tokens, reach - p0);
      std::span<const float> values;
      KVCache::Int8Rows values8{};
      if (fold) {
        values8 = cache.value_block_i8(layer, b, j, block_rows);
      } else {
        values = cache.value_block(layer, b, j, block_rows, kv_tile);
      }
      const std::size_t t0 = p0 > first ? p0 - first : 0;
      for (std::size_t g = g0; g < g1; ++g) {
        for (std::size_t t = std::max(t_begin(g), t0); t < t_end(g); ++t) {
          const std::size_t n_pos = std::min(block_tokens, first + t + 1 - p0);
          // The group's heads: weights stride apart, outputs head_dim apart.
          const float* w = scores(t, g * group) + p0;
          float* out = outs + (g * run + t - u0) * unit_out;
          if (fold) {
            simd::accumulate_values_hd16_i8(w, stride, group, values8.codes + g * head_dim,
                                            values8.scales, kv_dim, n_pos, out);
            continue;
          }
          const float* vg = values.data() + g * head_dim;
          if (hd16) {
            simd::accumulate_values_hd16(w, stride, group, vg, kv_dim, n_pos, out);
            continue;
          }
          for (std::size_t h = 0; h < group; ++h) {
            for (std::size_t p = 0; p < n_pos; ++p) {
              const float* vp = vg + p * kv_dim;
              const float sp = w[h * stride + p];
              for (std::size_t e = 0; e < head_dim; ++e) out[h * head_dim + e] += sp * vp[e];
            }
          }
        }
      }
    }
    for (std::size_t u = u0; u < u1; ++u) {
      std::copy_n(outs + (u - u0) * unit_out, unit_out,
                  ws.attn.data() + (r0 + u % run) * d + u / run * unit_out);
    }
  };
  // Every sequence's units in one list, u = i * seq_units + g * run + t,
  // split into contiguous ranges over the kernel pool once the step's
  // summed attention work reaches kAttentionSplitWork. A range walks each
  // sequence it touches in turn, in scratch of its own thread.
  const std::size_t seq_units = c.n_kv_heads * run;
  const std::size_t units = seqs.size() * seq_units;
  kernel_pool().parallel_rows(
      units, work >= kAttentionSplitWork ? 1 : units + 1, [&](std::size_t u0, std::size_t u1) {
        thread_local std::vector<float> scratch;
        const std::size_t outs_size = std::min(u1 - u0, seq_units) * unit_out;
        scratch.resize(std::max(scratch.size(), key_tiles_size + kv_tile_size + outs_size));
        const std::span<float> kv_tile(scratch.data() + key_tiles_size, kv_tile_size);
        float* outs = scratch.data() + key_tiles_size + kv_tile_size;
        for (std::size_t i = u0 / seq_units; i * seq_units < u1; ++i) {
          attend_seq(i, std::max(u0, i * seq_units) - i * seq_units,
                     std::min(u1, (i + 1) * seq_units) - i * seq_units, scratch.data(), kv_tile,
                     outs);
        }
      });
}

void Model::forward(std::span<const TokenId> tokens, std::span<const std::size_t> seqs,
                    KVCache& cache, std::span<float> hidden_rows, InferenceWorkspace& ws) {
  const TransformerConfig& c = master_->config;
  const std::size_t d = c.d_model;
  const std::size_t n = tokens.size();
  ORINSIM_CHECK(n > 0, "forward: no rows");
  ORINSIM_CHECK(!seqs.empty() && n % seqs.size() == 0,
                "forward: seqs must split the rows into equal runs");
  ORINSIM_CHECK(hidden_rows.empty() || hidden_rows.size() == d || hidden_rows.size() == n * d,
                "forward: hidden_rows must be empty, [d_model], or [rows, d_model]");
  const std::size_t run = n / seqs.size();  // rows per sequence
  ws.ensure_rows(c, n);

  for (std::size_t t = 0; t < n; ++t) {
    ORINSIM_CHECK(tokens[t] < c.vocab, "token id out of vocab range");
    const float* emb = master_->embedding.data() + static_cast<std::size_t>(tokens[t]) * d;
    std::copy(emb, emb + d, ws.x.begin() + static_cast<std::ptrdiff_t>(t * d));
  }

  const std::span<float> x(ws.x.data(), n * d);
  const std::span<float> normed(ws.normed.data(), n * d);
  const std::span<float> q(ws.q.data(), n * d);
  const std::span<float> k(ws.k.data(), n * c.kv_dim());
  const std::span<float> v(ws.v.data(), n * c.kv_dim());
  const std::span<const float> attn(ws.attn.data(), n * d);
  const std::span<float> attn_proj(ws.attn_proj.data(), n * d);
  const std::span<float> ff(ws.ff.data(), n * c.d_ff);
  const std::span<float> mlp_out(ws.mlp_out.data(), n * d);
  // Matrices that read the same rows share one matmul_group, so each
  // distinct projection input is quantized once.
  for (std::size_t l = 0; l < c.n_layers; ++l) {
    const LayerMaster& lm = master_->layers[l];
    const LayerQuant& lq = layers_[l];
    if (c.style == BlockStyle::kPreNormSwiGLU) {
      kernels::rmsnorm_rows(x, lm.norm_gain, normed, n, d);
      quant::matmul_group(normed, {{lq.wq, q}, {lq.wk, k}, {lq.wv, v}}, n, ws.act8);
      attention(l, seqs, run, cache, ws);
      lq.wo.matmul(attn, attn_proj, n, ws.act8);
      kernels::add_inplace(x, attn_proj);

      kernels::rmsnorm_rows(x, lm.norm2_gain, normed, n, d);
      const std::span<float> gate(ws.gate.data(), n * c.d_ff);
      const std::span<float> up(ws.up.data(), n * c.d_ff);
      quant::matmul_group(normed, {{lq.w_gate, gate}, {lq.w_up, up}}, n, ws.act8);
      kernels::swiglu(gate, up, ff);
      lq.w_down.matmul(ff, mlp_out, n, ws.act8);
      kernels::add_inplace(x, mlp_out);
    } else {
      // Phi-2 parallel block: one LayerNorm feeds attention and the MLP, so
      // fc1 (w_gate) joins the Q/K/V group.
      kernels::layernorm_rows(x, lm.norm_gain, lm.norm_bias, normed, n, d);
      quant::matmul_group(normed, {{lq.wq, q}, {lq.wk, k}, {lq.wv, v}, {lq.w_gate, ff}}, n,
                          ws.act8);
      attention(l, seqs, run, cache, ws);
      lq.wo.matmul(attn, attn_proj, n, ws.act8);
      kernels::gelu_inplace(ff);
      lq.w_down.matmul(ff, mlp_out, n, ws.act8);  // fc2
      kernels::add_inplace(x, attn_proj);
      kernels::add_inplace(x, mlp_out);
    }
  }
  for (const std::size_t b : seqs) cache.commit(b, run);

  if (hidden_rows.empty()) return;
  const std::size_t out_rows = hidden_rows.size() / d;
  const std::span<const float> x_rows = x.last(out_rows * d);  // every row, or the last
  if (c.style == BlockStyle::kPreNormSwiGLU) {
    kernels::rmsnorm_rows(x_rows, master_->final_norm_gain, hidden_rows, out_rows, d);
  } else {
    kernels::layernorm_rows(x_rows, master_->final_norm_gain, master_->final_norm_bias,
                            hidden_rows, out_rows, d);
  }
}

void Model::logits_from_hidden(std::span<const float> hidden, std::span<float> logits) const {
  logits_from_hidden_rows(hidden, logits, 1);
}

void Model::logits_from_hidden_rows(std::span<const float> hidden_rows,
                                    std::span<float> logits_rows, std::size_t lanes) const {
  const TransformerConfig& c = master_->config;
  ORINSIM_CHECK(hidden_rows.size() == lanes * c.d_model &&
                    logits_rows.size() == lanes * c.vocab,
                "logits_from_hidden_rows: shape mismatch");
  kernels::matvec_multi(master_->lm_head, hidden_rows, logits_rows, c.vocab, c.d_model,
                        lanes);
}

void Model::prefill(std::span<const TokenId> prompt, std::size_t b, KVCache& cache,
                    std::span<float> last_hidden, InferenceWorkspace& ws) {
  ORINSIM_CHECK(!prompt.empty(), "prefill: empty prompt");
  // prefill_chunk_-token chunks plus a remainder chunk. Each leaves its last
  // position's hidden state in ws.hidden, so after the loop ws.hidden holds
  // the prompt's final hidden.
  const std::size_t chunk = std::max<std::size_t>(prefill_chunk_, 1);
  for (std::size_t start = 0; start < prompt.size(); start += chunk) {
    const std::size_t n = std::min(chunk, prompt.size() - start);
    forward(prompt.subspan(start, n), {&b, 1}, cache, ws.hidden, ws);
  }
  if (!last_hidden.empty()) {
    ORINSIM_CHECK(last_hidden.size() == ws.hidden.size(), "last_hidden size mismatch");
    std::copy(ws.hidden.begin(), ws.hidden.end(), last_hidden.begin());
  }
}

void Model::decode(std::span<const TokenId> tokens, std::span<const std::size_t> seqs,
                   KVCache& cache, std::span<float> logits_rows, InferenceWorkspace& ws) {
  const TransformerConfig& c = master_->config;
  const std::size_t rows = tokens.size();
  ORINSIM_CHECK(rows > 0 && seqs.size() == rows && logits_rows.size() == rows * c.vocab,
                "decode: need one sequence and one logits row per token");
  ws.ensure_rows(c, rows);
  const std::span<float> hidden(ws.hidden_rows.data(), rows * c.d_model);
  forward(tokens, seqs, cache, hidden, ws);
  logits_from_hidden_rows(hidden, logits_rows, rows);
}

Model::GenerateResult Model::generate(const std::vector<std::vector<TokenId>>& prompts,
                                      std::size_t max_new_tokens, Sampler* sampler,
                                      trace::ExecutionTimeline* timeline) {
  ORINSIM_CHECK(!prompts.empty(), "generate: no prompts");
  const TransformerConfig& c = master_->config;
  const std::size_t lanes = prompts.size();
  std::size_t max_prompt = 0;
  for (const auto& p : prompts) {
    ORINSIM_CHECK(!p.empty(), "generate: empty prompt");
    max_prompt = std::max(max_prompt, p.size());
  }
  const std::size_t max_seq = std::min(c.max_seq, max_prompt + max_new_tokens);
  KVCache cache(c, lanes, max_seq, kv_options());

  GenerateResult result;
  result.outputs.resize(lanes);
  std::vector<TokenId> last(lanes);
  // Logits rows: prefill fills row b for lane b, each decode step rows
  // [0, n_active) for the active lanes in ascending order. Sampling runs in
  // lane order.
  std::vector<float> logits(lanes * c.vocab);
  auto logits_row = [&](std::size_t i) {
    return std::span<float>(logits.data() + i * c.vocab, c.vocab);
  };

  InferenceWorkspace ws(c);

  auto pick = [&](std::span<const float> l) {
    return sampler != nullptr ? sampler->sample(l) : static_cast<TokenId>(kernels::argmax(l));
  };

  // Decode scratch: active lane ids (ascending) and their last tokens.
  std::vector<std::size_t> active_ids;
  std::vector<TokenId> batch_tokens;
  active_ids.reserve(lanes);
  batch_tokens.reserve(lanes);

  Stopwatch watch;
  for (std::size_t b = 0; b < lanes; ++b) {
    prefill(prompts[b], b, cache, {}, ws);
    logits_from_hidden(ws.hidden, logits_row(b));
    last[b] = pick(logits_row(b));
    result.input_tokens += prompts[b].size();
  }
  if (timeline != nullptr) {
    timeline->emit(trace::Phase::kPrefill, watch.elapsed_s(), lanes,
                   static_cast<double>(result.input_tokens) / static_cast<double>(lanes),
                   trace::kPowerUnset, {}, prefill_chunk_ >= 2 ? prefill_chunk_ : 0);
  }
  for (std::size_t step = 0; step < max_new_tokens; ++step) {
    watch.reset();
    active_ids.clear();
    batch_tokens.clear();
    for (std::size_t b = 0; b < lanes; ++b) {
      if (cache.seq_len(b) >= max_seq) continue;
      result.outputs[b].push_back(last[b]);
      active_ids.push_back(b);
      batch_tokens.push_back(last[b]);
    }
    const std::size_t active = active_ids.size();
    // Every lane at capacity: spinning further steps would only emit
    // zero-active decode events — stop the timeline and the loop here.
    if (active == 0) break;
    result.output_tokens += active;
    if (step + 1 < max_new_tokens) {  // no need to forward the final token
      decode(batch_tokens, active_ids, cache, std::span<float>(logits.data(), active * c.vocab),
             ws);
      for (std::size_t i = 0; i < active; ++i) last[active_ids[i]] = pick(logits_row(i));
    }
    if (timeline != nullptr) {
      timeline->emit(trace::Phase::kDecode, watch.elapsed_s(), active,
                     static_cast<double>(result.input_tokens) / static_cast<double>(lanes) +
                         static_cast<double>(step));
    }
  }
  return result;
}

Model::NllResult Model::sequence_nll(std::span<const TokenId> tokens,
                                     std::size_t predict_from) {
  ORINSIM_CHECK(tokens.size() >= 2, "sequence_nll: need at least two tokens");
  ORINSIM_CHECK(predict_from >= 1 && predict_from < tokens.size(),
                "sequence_nll: predict_from must be in [1, len)");
  const TransformerConfig& c = master_->config;
  ORINSIM_CHECK(tokens.size() <= c.max_seq, "sequence exceeds model max_seq");

  KVCache cache(c, 1, tokens.size(), kv_options());
  std::vector<float> logits(c.vocab);

  NllResult result;
  // Scores the prediction of tokens[i+1] from the hidden state after feeding
  // tokens[i]. Accumulation stays in ascending i regardless of chunking.
  auto score = [&](std::span<const float> hidden, std::size_t i) {
    const std::size_t target_index = i + 1;
    if (target_index < predict_from) return;
    logits_from_hidden(hidden, logits);
    const double lse = kernels::logsumexp(logits);
    const double log_p = static_cast<double>(logits[tokens[target_index]]) - lse;
    result.total_nll -= log_p;
    ++result.predicted;
  };

  const std::size_t n_fwd = tokens.size() - 1;  // feed tokens[0..n_fwd)
  const std::size_t chunk = std::max<std::size_t>(prefill_chunk_, 1);
  const std::size_t d = c.d_model;
  const std::size_t seq = 0;
  std::vector<float> hidden_rows(std::min(chunk, n_fwd) * d);
  for (std::size_t start = 0; start < n_fwd; start += chunk) {
    const std::size_t n = std::min(chunk, n_fwd - start);
    const std::span<float> rows(hidden_rows.data(), n * d);
    forward(tokens.subspan(start, n), {&seq, 1}, cache, rows, default_ws_);
    for (std::size_t t = 0; t < n; ++t) score(rows.subspan(t * d, d), start + t);
  }
  return result;
}

}  // namespace orinsim
