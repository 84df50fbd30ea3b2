// The functional transformer engine.
//
// MasterWeights hold FP32 source weights (deterministically initialized from
// a seed, with the readout optionally trained by train::ReadoutTrainer).
// A Model is a *view of the master at a storage precision*: block weights are
// quantized through quant::WeightMatrix, while the embedding and lm_head stay
// FP32 (BitsAndBytes likewise leaves embeddings unquantized by default).
// Building FP16/INT8/INT4 models from one master is the engine's analogue of
// loading the same HuggingFace checkpoint at different quantization levels.
//
// Every prefill chunk, decode step and verify pass goes through one entry
// point, Model::forward, over rows of (sequence, token), and every decode or
// draft step through Model::decode, one forward over all its lanes; see
// DESIGN.md "One forward step".
//
// Threading model: a Model's weights are immutable after construction and
// shared-read; all mutable forward-pass state lives in an InferenceWorkspace.
// forward and the workspace-taking overloads are re-entrant — concurrent
// callers need one workspace each (and distinct KVCache sequences). The
// convenience overloads without a workspace use a single Model-owned default
// workspace and are NOT thread-safe. See DESIGN.md "Threading model".
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "model/config.h"
#include "model/kv_cache.h"
#include "model/sampler.h"
#include "model/workspace.h"
#include "quant/weight_matrix.h"
#include "tensor/kernels.h"
#include "tokenizer/tokenizer.h"
#include "trace/timeline.h"

namespace orinsim {

struct LayerMaster {
  std::vector<float> wq, wk, wv, wo;
  // SwiGLU style: gate/up/down. Parallel-GELU style: fc1 (in gate), fc2 (in
  // down); up unused.
  std::vector<float> w_gate, w_up, w_down;
  std::vector<float> norm_gain;   // pre-attention norm (the only norm for Phi)
  std::vector<float> norm_bias;   // used by LayerNorm style
  std::vector<float> norm2_gain;  // pre-MLP norm (SwiGLU style only)
};

struct MasterWeights {
  TransformerConfig config;
  std::vector<float> embedding;  // [vocab, d_model]
  std::vector<float> lm_head;    // [vocab, d_model] -- trainable readout
  std::vector<float> final_norm_gain;
  std::vector<float> final_norm_bias;
  std::vector<LayerMaster> layers;

  // Deterministic Gaussian init. Residual-path projections (wo, w_down) are
  // scaled by 1/sqrt(2*n_layers) (GPT-2 convention) so random bodies stay
  // numerically stable at depth.
  static std::shared_ptr<MasterWeights> init_random(const TransformerConfig& config,
                                                    std::uint64_t seed);
};

class Model {
 public:
  // kv_storage chooses the precision of caches the model creates internally
  // (generate, sequence_nll); externally-constructed caches are the caller's
  // choice.
  Model(std::shared_ptr<const MasterWeights> master, DType dtype,
        KVStorage kv_storage = KVStorage::kF32);

  KVStorage kv_storage() const noexcept { return kv_storage_; }

  // Options matching this model's internal-cache choices, for callers that
  // construct their own KVCache (serving engine, speculative decoding).
  KVCacheOptions kv_options() const noexcept {
    KVCacheOptions o;
    o.storage = kv_storage_;
    return o;
  }

  const TransformerConfig& config() const noexcept { return master_->config; }
  DType dtype() const noexcept { return dtype_; }

  // Bytes held by block weights + embedding + lm_head at this precision.
  std::size_t weight_bytes() const noexcept;
  // Total INT8 outlier columns across all matrices (0 for other precisions).
  std::size_t outlier_columns() const noexcept;

  // One forward step over tokens.size() rows, split into equal runs:
  // seqs[i] owns rows [i*run, (i+1)*run), run = rows / seqs.size(), the
  // next positions of distinct sequences. A one-sequence chunk (prefill),
  // run-1 lanes (a decode batch), a multi-sequence chunk (speculative verify
  // of equal-length drafts) and width 1 all take the same path. Each
  // sequence's cache advances by its run and commits once per step.
  //
  // Every row is composition-independent: the projections stream each
  // weight row once for all rows (WeightMatrix::matmul, matmul_group) and
  // attention reads each row's own prefix, so a row's hidden state and
  // cache contents equal width-1 steps bit-for-bit at either kernel level,
  // whatever other rows share the step.
  //
  // hidden_rows receives the final-norm hidden states: pass an empty span to
  // discard, a [d_model] span for the last row only, or a [rows, d_model]
  // span for every row. Re-entrant: concurrent callers use distinct
  // workspaces and disjoint sequence sets.
  void forward(std::span<const TokenId> tokens, std::span<const std::size_t> seqs,
               KVCache& cache, std::span<float> hidden_rows, InferenceWorkspace& ws);

  // logits [vocab] from a final hidden state. Re-entrant (reads weights only).
  void logits_from_hidden(std::span<const float> hidden, std::span<float> logits) const;

  // Batched counterpart of logits_from_hidden: hidden_rows is
  // [lanes, d_model], logits_rows is [lanes, vocab]. Lane t's row is
  // bit-identical to logits_from_hidden(hidden_rows[t]) at both kernel
  // levels. Re-entrant (reads weights only).
  void logits_from_hidden_rows(std::span<const float> hidden_rows,
                               std::span<float> logits_rows, std::size_t lanes) const;

  // One decode step: row i feeds tokens[i] to distinct sequence seqs[i] and
  // gets its logits in logits_rows[i] ([rows, vocab]): one forward of every
  // row plus one logits_from_hidden_rows, on ws. The projections and
  // attention split over kernel_pool(); lane rows make the step bitwise
  // equal to width-1 steps.
  void decode(std::span<const TokenId> tokens, std::span<const std::size_t> seqs,
              KVCache& cache, std::span<float> logits_rows, InferenceWorkspace& ws);

  // Multiply-adds of a step's attention at which Model::forward splits it
  // over kernel_pool(): its units are (sequence, KV head, row) triples of
  // group × context × head_dim × 2 each, summed over every sequence of the
  // step. A width-1 llama3-nano step of one sequence (2 KV heads of 128 ×
  // context each) splits from 128 tokens of context and stays inline
  // below, where a fork/join would cost more than it saves; see DESIGN.md
  // "Threading model" for the measurement that chose it.
  static constexpr std::size_t kAttentionSplitWork = std::size_t{1} << 15;

  // Default number of prompt tokens per chunked-prefill pass.
  static constexpr std::size_t kDefaultPrefillChunk = 32;

  // Chunk size used by prefill()/generate()/sequence_nll(); 0 or 1 runs
  // width-1 steps.
  std::size_t prefill_chunk() const noexcept { return prefill_chunk_; }
  void set_prefill_chunk(std::size_t chunk) noexcept { prefill_chunk_ = chunk; }

  // Feed a whole prompt for sequence b; hidden of the last position lands in
  // last_hidden (pass empty span to discard). Processes the prompt in
  // prefill_chunk()-token chunks (plus a remainder chunk).
  void prefill(std::span<const TokenId> prompt, std::size_t b, KVCache& cache,
               std::span<float> last_hidden, InferenceWorkspace& ws);
  void prefill(std::span<const TokenId> prompt, std::size_t b, KVCache& cache,
               std::span<float> last_hidden) {
    prefill(prompt, b, cache, last_hidden, default_ws_);
  }

  struct GenerateResult {
    std::vector<std::vector<TokenId>> outputs;  // generated tokens per sequence
    std::size_t input_tokens = 0;
    std::size_t output_tokens = 0;
  };

  // Batched generation: each prompt is prefilled, then up to max_new_tokens
  // are decoded per sequence; the decode loop exits early once every lane
  // has hit the cache limit (no zero-active steps). Lanes prefill one after
  // another on one workspace; each decode step runs the active lanes as one
  // Model::decode, split over kernel_pool(). `sampler` nullptr: greedy argmax.
  // A non-null `timeline` receives real wall-clock StepEvents (one kPrefill
  // covering prompt ingestion, one kDecode per step) with power unset: this
  // host has no board sensor, so the simulator owns power.
  GenerateResult generate(const std::vector<std::vector<TokenId>>& prompts,
                          std::size_t max_new_tokens, Sampler* sampler = nullptr,
                          trace::ExecutionTimeline* timeline = nullptr);

  // Sum of negative log-likelihoods of tokens[i] given tokens[0..i) for
  // i in [predict_from, tokens.size()), plus the count of predicted tokens.
  // This is the paper's perplexity building block (strided windows pass
  // predict_from = overlap so overlapped tokens provide context only).
  struct NllResult {
    double total_nll = 0.0;
    std::size_t predicted = 0;
  };
  NllResult sequence_nll(std::span<const TokenId> tokens, std::size_t predict_from);

 private:
  struct LayerQuant {
    quant::WeightMatrix wq, wk, wv, wo, w_gate, w_up, w_down;
  };

  // RoPE and KV append for every row of the projected ws.q/ws.k/ws.v, then
  // causal attention per row over its sequence's prefix into ws.attn;
  // seqs[i] owns rows [i*run, (i+1)*run). Per sequence, the RoPE and append
  // run serially. Then the (sequence, KV head, row) units of every sequence
  // split once into contiguous ranges over kernel_pool() when their summed
  // work reaches kAttentionSplitWork, each range walking the block table of
  // each sequence it touches once for K and once for V. Every (row, head)
  // keeps its score → softmax → V op order, so the split never changes a
  // bit.
  void attention(std::size_t layer, std::span<const std::size_t> seqs, std::size_t run,
                 KVCache& cache, InferenceWorkspace& ws);

  std::shared_ptr<const MasterWeights> master_;
  DType dtype_;
  KVStorage kv_storage_ = KVStorage::kF32;
  std::vector<LayerQuant> layers_;

  // Precomputed RoPE cos/sin for every (position, pair) of this config.
  kernels::RopeTable rope_;
  std::size_t prefill_chunk_ = kDefaultPrefillChunk;

  // Scratch for the convenience overloads (one serial caller at a time).
  InferenceWorkspace default_ws_;
};

}  // namespace orinsim
