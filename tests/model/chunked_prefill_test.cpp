// Chunked prefill equivalence: processing a prompt in N-token chunks must
// reproduce the token-at-a-time path bit-identically at both kernel levels
// (every projection is composition-independent); the native level tracks
// the scalar reference within FMA tolerance.
#include "model/transformer.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "core/rng.h"
#include "quant/weight_matrix.h"
#include "tensor/simd.h"
#include "trace/timeline.h"

namespace orinsim {
namespace {

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

TransformerConfig test_config(BlockStyle style) {
  TransformerConfig c;
  c.name = style == BlockStyle::kPreNormSwiGLU ? "llama3-nano" : "phi2-nano";
  c.vocab = 97;
  c.d_model = 32;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_ff = 64;
  c.max_seq = 64;
  c.style = style;
  if (style == BlockStyle::kParallelGELU) c.n_kv_heads = 4;
  c.validate();
  return c;
}

std::vector<TokenId> make_prompt(std::size_t n, std::size_t vocab) {
  std::vector<TokenId> prompt(n);
  for (std::size_t i = 0; i < n; ++i) {
    prompt[i] = static_cast<TokenId>((i * 5 + 3) % vocab);
  }
  return prompt;
}

// Prefill `prompt` with the given chunk size and return (last hidden, cache).
std::vector<float> prefill_hidden(Model& model, std::span<const TokenId> prompt,
                                  std::size_t chunk, KVCache& cache) {
  model.set_prefill_chunk(chunk);
  std::vector<float> hidden(model.config().d_model);
  model.prefill(prompt, 0, cache, hidden);
  return hidden;
}

std::vector<simd::Level> levels_to_test() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  return levels;
}

TEST(ChunkedPrefillTest, BitIdenticalToTokenAtATimeUnderScalar) {
  // Both kernel levels × every precision × both block styles × both KV
  // storages × three KV block sizes, with a prompt length (13) that is not
  // a multiple of the chunk (4): exercises full chunks plus the remainder
  // chunk. 16-token blocks hold the whole prompt; 4-token blocks turn every
  // chunk boundary into a block boundary; 3-token blocks make chunks start
  // mid-block and span two blocks, so attention's causal block walk splits
  // every run.
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (BlockStyle style : {BlockStyle::kPreNormSwiGLU, BlockStyle::kParallelGELU}) {
      const auto cfg = test_config(style);
      auto master = MasterWeights::init_random(cfg, 17);
      const auto prompt = make_prompt(13, cfg.vocab);
      for (DType dtype : {DType::kF32, DType::kF16, DType::kI8, DType::kI4}) {
        for (KVStorage kv : {KVStorage::kF32, KVStorage::kI8}) {
          for (std::size_t block_tokens : {kDefaultKVBlockTokens, std::size_t{4}, std::size_t{3}}) {
            KVCacheOptions opts;
            opts.storage = kv;
            opts.block_tokens = block_tokens;
            Model chunked(master, dtype), stepped(master, dtype);
            KVCache c_chunk(cfg, 1, 32, opts), c_step(cfg, 1, 32, opts);
            const auto h_chunk = prefill_hidden(chunked, prompt, 4, c_chunk);
            const auto h_step = prefill_hidden(stepped, prompt, 0, c_step);

            const std::string where = std::string(simd::level_name(level)) + " " + cfg.name +
                                      " dtype=" +
                                      std::to_string(static_cast<int>(dtype)) +
                                      " kv=" + std::to_string(static_cast<int>(kv)) +
                                      " block_tokens=" + std::to_string(block_tokens);
            for (std::size_t i = 0; i < h_chunk.size(); ++i) {
              ASSERT_EQ(h_chunk[i], h_step[i]) << where << " hidden i=" << i;
            }
            // The caches must also agree position-by-position (INT8 KV: the
            // quantized codes round-trip identically because the stored fp32
            // vectors were bit-identical).
            ASSERT_EQ(c_chunk.seq_len(0), prompt.size());
            ASSERT_EQ(c_step.seq_len(0), prompt.size());
            std::vector<float> s1(cfg.kv_dim()), s2(cfg.kv_dim());
            for (std::size_t l = 0; l < cfg.n_layers; ++l) {
              for (std::size_t p = 0; p < prompt.size(); ++p) {
                const auto k1 = c_chunk.key(l, 0, p, s1);
                const auto k2 = c_step.key(l, 0, p, s2);
                for (std::size_t i = 0; i < cfg.kv_dim(); ++i) {
                  ASSERT_EQ(k1[i], k2[i]) << where << " key l=" << l << " p=" << p;
                }
                const auto v1 = c_chunk.value(l, 0, p, s1);
                const auto v2 = c_step.value(l, 0, p, s2);
                for (std::size_t i = 0; i < cfg.kv_dim(); ++i) {
                  ASSERT_EQ(v1[i], v2[i]) << where << " value l=" << l << " p=" << p;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(ChunkedPrefillTest, ChunkLargerThanPromptMatchesExactPrompt) {
  // chunk > prompt length: one ragged chunk covering the whole prompt.
  ScopedLevel scalar(simd::Level::kScalar);
  const auto cfg = test_config(BlockStyle::kPreNormSwiGLU);
  auto master = MasterWeights::init_random(cfg, 19);
  const auto prompt = make_prompt(7, cfg.vocab);
  Model big(master, DType::kF32), stepped(master, DType::kF32);
  KVCache c1(cfg, 1, 16), c2(cfg, 1, 16);
  const auto h1 = prefill_hidden(big, prompt, 64, c1);
  const auto h2 = prefill_hidden(stepped, prompt, 1, c2);
  for (std::size_t i = 0; i < h1.size(); ++i) EXPECT_EQ(h1[i], h2[i]);
}

TEST(ChunkedPrefillTest, NativeLevelTracksScalarWithinTolerance) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  const auto cfg = test_config(BlockStyle::kPreNormSwiGLU);
  auto master = MasterWeights::init_random(cfg, 23);
  const auto prompt = make_prompt(20, cfg.vocab);
  Model model(master, DType::kF32);
  std::vector<float> h_scalar, h_native;
  {
    ScopedLevel scalar(simd::Level::kScalar);
    KVCache cache(cfg, 1, 32);
    h_scalar = prefill_hidden(model, prompt, 8, cache);
  }
  {
    ScopedLevel native(simd::Level::kNative);
    KVCache cache(cfg, 1, 32);
    h_native = prefill_hidden(model, prompt, 8, cache);
  }
  for (std::size_t i = 0; i < h_scalar.size(); ++i) {
    EXPECT_NEAR(h_native[i], h_scalar[i], 1e-3 * (std::fabs(h_scalar[i]) + 1.0))
        << "i=" << i;
  }
}

TEST(ChunkedPrefillTest, SequenceNllBitIdenticalUnderScalar) {
  // sequence_nll scores every position from the chunk's hidden rows; under
  // scalar the per-position logits and the ascending accumulation match the
  // token loop exactly.
  ScopedLevel scalar(simd::Level::kScalar);
  for (BlockStyle style : {BlockStyle::kPreNormSwiGLU, BlockStyle::kParallelGELU}) {
    const auto cfg = test_config(style);
    auto master = MasterWeights::init_random(cfg, 29);
    const auto tokens = make_prompt(23, cfg.vocab);
    Model chunked(master, DType::kF32), stepped(master, DType::kF32);
    chunked.set_prefill_chunk(5);
    stepped.set_prefill_chunk(0);
    const auto a = chunked.sequence_nll(tokens, 3);
    const auto b = stepped.sequence_nll(tokens, 3);
    EXPECT_EQ(a.predicted, b.predicted);
    EXPECT_EQ(a.total_nll, b.total_nll) << cfg.name;
  }
}

TEST(ChunkedPrefillTest, GenerateMatchesTokenPath) {
  // Chunked prefill inside generate() must produce the exact token-path
  // outputs under scalar.
  ScopedLevel scalar(simd::Level::kScalar);
  const auto cfg = test_config(BlockStyle::kPreNormSwiGLU);
  auto master = MasterWeights::init_random(cfg, 31);
  const std::vector<std::vector<TokenId>> prompts = {
      make_prompt(13, cfg.vocab), make_prompt(9, cfg.vocab), make_prompt(17, cfg.vocab)};

  Model stepped(master, DType::kF32);
  stepped.set_prefill_chunk(0);
  const auto ref = stepped.generate(prompts, 5);

  Model chunked(master, DType::kF32);
  chunked.set_prefill_chunk(4);
  EXPECT_EQ(chunked.generate(prompts, 5).outputs, ref.outputs);
}

TEST(ChunkedPrefillTest, PrefillEventCarriesChunkSize) {
  const auto cfg = test_config(BlockStyle::kPreNormSwiGLU);
  auto master = MasterWeights::init_random(cfg, 37);
  const std::vector<std::vector<TokenId>> prompts = {make_prompt(10, cfg.vocab)};

  auto prefill_chunk_of = [&](std::size_t chunk) {
    Model model(master, DType::kF32);
    model.set_prefill_chunk(chunk);
    trace::ExecutionTimeline timeline;
    model.generate(prompts, 2, nullptr, &timeline);
    // Trace conservation: exactly one kPrefill event per generate().
    EXPECT_EQ(timeline.count(trace::Phase::kPrefill), 1u);
    for (const auto& e : timeline.events()) {
      if (e.phase == trace::Phase::kPrefill) return e.chunk;
    }
    return static_cast<std::size_t>(0xdead);
  };
  EXPECT_EQ(prefill_chunk_of(8), 8u);
  // Token-at-a-time prefill reports chunk 0 (field absent from JSONL).
  EXPECT_EQ(prefill_chunk_of(0), 0u);
  EXPECT_EQ(prefill_chunk_of(1), 0u);
}

TEST(ChunkedPrefillTest, MatmulQkvBitIdenticalToSeparateMatmuls) {
  // A shared-input matmul_group quantizes the activation chunk at most once;
  // the contract says results are bit-identical to three independent
  // matmuls for every precision, at both levels — also when only some of
  // the three matrices read activation codes (the mixed row).
  Rng rng(41);
  const std::size_t in = 32, out_q = 24, out_kv = 8, tokens = 5;
  std::vector<float> src_q(out_q * in), src_k(out_kv * in), src_v(out_kv * in);
  for (auto& w : src_q) w = static_cast<float>(rng.normal(0.0, 0.3));
  for (auto& w : src_k) w = static_cast<float>(rng.normal(0.0, 0.3));
  for (auto& w : src_v) w = static_cast<float>(rng.normal(0.0, 0.3));
  std::vector<float> x(tokens * in);
  for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));

  const std::vector<std::array<DType, 3>> grids = {
      {DType::kF32, DType::kF32, DType::kF32}, {DType::kF16, DType::kF16, DType::kF16},
      {DType::kI8, DType::kI8, DType::kI8},    {DType::kI4, DType::kI4, DType::kI4},
      {DType::kF16, DType::kI4, DType::kI8}};
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (const auto& dtypes : grids) {
      const auto wq = quant::WeightMatrix::create(src_q, out_q, in, dtypes[0]);
      const auto wk = quant::WeightMatrix::create(src_k, out_kv, in, dtypes[1]);
      const auto wv = quant::WeightMatrix::create(src_v, out_kv, in, dtypes[2]);

      std::vector<float> q(tokens * out_q), k(tokens * out_kv), v(tokens * out_kv);
      quant::ActivationBatchInt8 scratch;
      quant::matmul_group(x, {{wq, q}, {wk, k}, {wv, v}}, tokens, scratch);

      std::vector<float> q2(tokens * out_q), k2(tokens * out_kv), v2(tokens * out_kv);
      quant::ActivationBatchInt8 scratch2;
      wq.matmul(x, q2, tokens, scratch2);
      wk.matmul(x, k2, tokens, scratch2);
      wv.matmul(x, v2, tokens, scratch2);

      const std::string where = std::string(simd::level_name(level)) + " q/k/v dtypes " +
                                dtype_name(dtypes[0]) + "/" + dtype_name(dtypes[1]) + "/" +
                                dtype_name(dtypes[2]);
      for (std::size_t i = 0; i < q.size(); ++i) ASSERT_EQ(q[i], q2[i]) << where << " q i=" << i;
      for (std::size_t i = 0; i < k.size(); ++i) ASSERT_EQ(k[i], k2[i]) << where << " k i=" << i;
      for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], v2[i]) << where << " v i=" << i;
    }
  }
}

}  // namespace
}  // namespace orinsim
