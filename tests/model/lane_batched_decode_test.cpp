// Lane-batched decode: a Model::forward over n lane rows (or several
// sequences' chunks) must equal width-1 forwards bit for bit, in hidden
// states and cache contents, at both kernel levels for every dtype (the lane
// kernels are composition-independent). These are the contracts that let
// generate() batch whichever lanes are active without changing any lane's
// tokens.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "model/transformer.h"
#include "tensor/simd.h"

namespace orinsim {
namespace {

// Restores the dispatch level on scope exit so test order never leaks state.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : prev_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedLevel() { simd::set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level prev_;
};

std::vector<simd::Level> levels_to_test() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  return levels;
}

TransformerConfig decode_test_config() {
  TransformerConfig c;
  c.vocab = 97;
  c.d_model = 32;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_ff = 64;
  c.max_seq = 64;
  c.validate();
  return c;
}

std::size_t argmax_row(std::span<const float> logits) {
  std::size_t best = 0;
  for (std::size_t v = 1; v < logits.size(); ++v) {
    if (logits[v] > logits[best]) best = v;
  }
  return best;
}

// One n-lane forward vs n width-1 forwards, directly: hidden states AND the
// cache contents a later step reads back must agree bit for bit.
void check_lanes_match_width1(DType dtype, KVStorage kv_storage) {
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 61);
  Model model(master, dtype, kv_storage);
  const std::size_t lanes = 4;

  // Two independent models would be cleaner but weights are shared and
  // immutable; two caches over one model give the same isolation.
  KVCache batched_cache(cfg, lanes, cfg.max_seq, model.kv_options());
  KVCache looped_cache(cfg, lanes, cfg.max_seq, model.kv_options());
  InferenceWorkspace ws(cfg);

  // Seed each lane with a distinct short prompt, both caches via the same
  // width-1 steps so they start identical.
  const std::vector<std::vector<TokenId>> prompts = {
      {3, 9, 27}, {81, 12}, {5, 6, 7, 8}, {44}};
  for (std::size_t b = 0; b < lanes; ++b) {
    for (const TokenId& tok : prompts[b]) {
      model.forward({&tok, 1}, {&b, 1}, batched_cache, {}, ws);
      model.forward({&tok, 1}, {&b, 1}, looped_cache, {}, ws);
    }
  }

  // Three decode steps, batched vs looped, feeding each path its own output.
  std::vector<TokenId> batched_tokens = {10, 20, 30, 40};
  std::vector<TokenId> looped_tokens = batched_tokens;
  const std::vector<std::size_t> seqs = {0, 1, 2, 3};
  for (int step = 0; step < 3; ++step) {
    std::vector<float> batched_rows(lanes * cfg.d_model);
    model.forward(batched_tokens, seqs, batched_cache, batched_rows, ws);
    std::vector<float> batched_logits(lanes * cfg.vocab);
    model.logits_from_hidden_rows(batched_rows, batched_logits, lanes);

    for (std::size_t t = 0; t < lanes; ++t) {
      std::vector<float> looped_hidden(cfg.d_model);
      model.forward({&looped_tokens[t], 1}, {&seqs[t], 1}, looped_cache, looped_hidden, ws);
      std::vector<float> looped_logits(cfg.vocab);
      model.logits_from_hidden(looped_hidden, looped_logits);

      for (std::size_t i = 0; i < cfg.d_model; ++i) {
        EXPECT_EQ(batched_rows[t * cfg.d_model + i], looped_hidden[i])
            << "step=" << step << " t=" << t << " i=" << i;
      }
      // Greedy argmax from each path's logits picks the next token.
      const std::size_t batched_arg =
          argmax_row(std::span<const float>(batched_logits).subspan(t * cfg.vocab, cfg.vocab));
      const std::size_t looped_arg = argmax_row(looped_logits);
      EXPECT_EQ(batched_arg, looped_arg) << "step=" << step << " t=" << t;
      batched_tokens[t] = static_cast<TokenId>(batched_arg);
      looped_tokens[t] = static_cast<TokenId>(looped_arg);
    }
  }

  // Every committed K/V row, as a later step reads it back.
  std::vector<float> s1(cfg.kv_dim()), s2(cfg.kv_dim());
  for (std::size_t b = 0; b < lanes; ++b) {
    ASSERT_EQ(batched_cache.seq_len(b), looped_cache.seq_len(b));
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
      for (std::size_t p = 0; p < batched_cache.seq_len(b); ++p) {
        const auto k1 = batched_cache.key(l, b, p, s1);
        const auto k2 = looped_cache.key(l, b, p, s2);
        for (std::size_t i = 0; i < cfg.kv_dim(); ++i) {
          ASSERT_EQ(k1[i], k2[i]) << "key b=" << b << " l=" << l << " p=" << p;
        }
        const auto v1 = batched_cache.value(l, b, p, s1);
        const auto v2 = looped_cache.value(l, b, p, s2);
        for (std::size_t i = 0; i < cfg.kv_dim(); ++i) {
          ASSERT_EQ(v1[i], v2[i]) << "value b=" << b << " l=" << l << " p=" << p;
        }
      }
    }
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopBitwiseF32) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_lanes_match_width1(DType::kF32, KVStorage::kF32);
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopBitwiseInt8QuantizedKv) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_lanes_match_width1(DType::kI8, KVStorage::kI8);
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopBitwiseInt4) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_lanes_match_width1(DType::kI4, KVStorage::kI8);
  }
}

TEST(LaneBatchedDecodeTest, ForwardTokensMatchesLoopF16) {
  // Width 1 runs the lane kernels too, so kF16 is exact at both levels
  // (at kNative both sides reorder the fp32 accumulation the same way).
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_lanes_match_width1(DType::kF16, KVStorage::kF32);
  }
}

// A multi-sequence chunk (several sequences, `run` rows each, as a
// speculative round verifies its drafts) runs the lane kernels, so every
// row's hidden state and committed K/V must equal width-1 steps bit for bit
// at both kernel levels.
void check_multi_sequence_chunk_matches_width1(DType dtype, KVStorage kv_storage) {
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 67);
  Model model(master, dtype, kv_storage);
  const std::size_t seqs_n = 3, run = 4;
  KVCache chunk_cache(cfg, seqs_n, cfg.max_seq, model.kv_options());
  KVCache looped_cache(cfg, seqs_n, cfg.max_seq, model.kv_options());
  InferenceWorkspace ws(cfg);
  const std::vector<std::vector<TokenId>> prompts = {{3, 9, 27}, {81, 12}, {5, 6, 7, 8}};
  for (std::size_t b = 0; b < seqs_n; ++b) {
    for (const TokenId& tok : prompts[b]) {
      model.forward({&tok, 1}, {&b, 1}, chunk_cache, {}, ws);
      model.forward({&tok, 1}, {&b, 1}, looped_cache, {}, ws);
    }
  }
  const std::vector<TokenId> tokens = {10, 20, 30, 40, 50, 60, 70, 80, 90, 11, 22, 33};
  const std::vector<std::size_t> seqs = {0, 1, 2};
  std::vector<float> chunk_rows(tokens.size() * cfg.d_model);
  model.forward(tokens, seqs, chunk_cache, chunk_rows, ws);
  for (std::size_t i = 0; i < seqs_n; ++i) {
    for (std::size_t t = 0; t < run; ++t) {
      const std::size_t row = i * run + t;
      std::vector<float> hidden(cfg.d_model);
      model.forward({&tokens[row], 1}, {&seqs[i], 1}, looped_cache, hidden, ws);
      for (std::size_t k = 0; k < cfg.d_model; ++k) {
        ASSERT_EQ(chunk_rows[row * cfg.d_model + k], hidden[k]) << "seq=" << i << " t=" << t;
      }
    }
  }
  std::vector<float> s1(cfg.kv_dim()), s2(cfg.kv_dim());
  for (std::size_t b = 0; b < seqs_n; ++b) {
    ASSERT_EQ(chunk_cache.seq_len(b), looped_cache.seq_len(b));
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
      for (std::size_t p = 0; p < chunk_cache.seq_len(b); ++p) {
        const auto k1 = chunk_cache.key(l, b, p, s1);
        const auto k2 = looped_cache.key(l, b, p, s2);
        for (std::size_t k = 0; k < cfg.kv_dim(); ++k) ASSERT_EQ(k1[k], k2[k]);
        const auto v1 = chunk_cache.value(l, b, p, s1);
        const auto v2 = looped_cache.value(l, b, p, s2);
        for (std::size_t k = 0; k < cfg.kv_dim(); ++k) ASSERT_EQ(v1[k], v2[k]);
      }
    }
  }
}

TEST(LaneBatchedDecodeTest, MultiSequenceChunkMatchesWidth1AllDtypes) {
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    check_multi_sequence_chunk_matches_width1(DType::kF32, KVStorage::kF32);
    check_multi_sequence_chunk_matches_width1(DType::kF16, KVStorage::kF32);
    check_multi_sequence_chunk_matches_width1(DType::kI8, KVStorage::kI8);
    check_multi_sequence_chunk_matches_width1(DType::kI4, KVStorage::kI8);
  }
}

}  // namespace
}  // namespace orinsim
