#include "model/transformer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/kernels.h"

namespace orinsim {
namespace {

TransformerConfig test_config(BlockStyle style = BlockStyle::kPreNormSwiGLU) {
  TransformerConfig c;
  c.name = "test";
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

class TransformerStyleTest : public ::testing::TestWithParam<BlockStyle> {};

TEST_P(TransformerStyleTest, ForwardProducesFiniteBoundedHidden) {
  const auto cfg = test_config(GetParam());
  auto master = MasterWeights::init_random(cfg, 7);
  Model model(master, DType::kF32);
  KVCache cache(cfg, 1, 16);
  InferenceWorkspace ws(cfg);
  const std::size_t seq = 0;
  std::vector<float> hidden(cfg.d_model);
  for (int t = 0; t < 16; ++t) {
    const auto token = static_cast<TokenId>(t % cfg.vocab);
    model.forward({&token, 1}, {&seq, 1}, cache, hidden, ws);
    for (float v : hidden) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_LT(std::fabs(v), 100.0f);
    }
  }
  EXPECT_EQ(cache.seq_len(0), 16u);
}

TEST_P(TransformerStyleTest, DeterministicAcrossInstances) {
  const auto cfg = test_config(GetParam());
  auto master = MasterWeights::init_random(cfg, 13);
  Model a(master, DType::kF32), b(master, DType::kF32);
  KVCache ca(cfg, 1, 8), cb(cfg, 1, 8);
  InferenceWorkspace wa(cfg), wb(cfg);
  const std::size_t seq = 0;
  std::vector<float> ha(cfg.d_model), hb(cfg.d_model);
  for (TokenId t : {3u, 14u, 15u, 9u}) {
    a.forward({&t, 1}, {&seq, 1}, ca, ha, wa);
    b.forward({&t, 1}, {&seq, 1}, cb, hb, wb);
  }
  for (std::size_t i = 0; i < ha.size(); ++i) EXPECT_EQ(ha[i], hb[i]);
}

INSTANTIATE_TEST_SUITE_P(Styles, TransformerStyleTest,
                         ::testing::Values(BlockStyle::kPreNormSwiGLU,
                                           BlockStyle::kParallelGELU),
                         [](const auto& info) {
                           return info.param == BlockStyle::kPreNormSwiGLU ? "SwiGLU"
                                                                           : "ParallelGELU";
                         });

TEST(TransformerTest, BatchSequencesIsolated) {
  // The same prompt in different batch slots must produce identical hidden
  // states (no cross-sequence leakage through the cache).
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 21);
  Model model(master, DType::kF32);
  KVCache cache(cfg, 2, 8);
  InferenceWorkspace ws(cfg);
  const std::size_t seqs[] = {0, 1};
  std::vector<float> h0(cfg.d_model), h1(cfg.d_model);
  const std::vector<TokenId> prompt = {5, 9, 2};
  // Interleave the two sequences.
  for (TokenId t : prompt) {
    model.forward({&t, 1}, {&seqs[0], 1}, cache, h0, ws);
    model.forward({&t, 1}, {&seqs[1], 1}, cache, h1, ws);
  }
  for (std::size_t i = 0; i < h0.size(); ++i) EXPECT_EQ(h0[i], h1[i]);
}

TEST(TransformerTest, PrefillEqualsStepByStep) {
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 31);
  Model model(master, DType::kF32);
  const std::vector<TokenId> prompt = {1, 2, 3, 4, 5};

  KVCache c1(cfg, 1, 8);
  std::vector<float> via_prefill(cfg.d_model);
  model.prefill(prompt, 0, c1, via_prefill);

  KVCache c2(cfg, 1, 8);
  InferenceWorkspace ws(cfg);
  const std::size_t seq = 0;
  std::vector<float> via_steps(cfg.d_model);
  for (TokenId t : prompt) model.forward({&t, 1}, {&seq, 1}, c2, via_steps, ws);

  for (std::size_t i = 0; i < via_prefill.size(); ++i) {
    EXPECT_EQ(via_prefill[i], via_steps[i]);
  }
}

TEST(TransformerTest, LogitsShapeAndFiniteness) {
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 41);
  Model model(master, DType::kF32);
  KVCache cache(cfg, 1, 4);
  InferenceWorkspace ws(cfg);
  const TokenId token = 7;
  const std::size_t seq = 0;
  std::vector<float> hidden(cfg.d_model), logits(cfg.vocab);
  model.forward({&token, 1}, {&seq, 1}, cache, hidden, ws);
  model.logits_from_hidden(hidden, logits);
  for (float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(TransformerTest, GenerateShapesAndCounts) {
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 51);
  Model model(master, DType::kF32);
  const std::vector<std::vector<TokenId>> prompts = {{1, 2, 3}, {4, 5}};
  const auto result = model.generate(prompts, 6);
  ASSERT_EQ(result.outputs.size(), 2u);
  EXPECT_EQ(result.outputs[0].size(), 6u);
  EXPECT_EQ(result.outputs[1].size(), 6u);
  EXPECT_EQ(result.input_tokens, 5u);
  EXPECT_EQ(result.output_tokens, 12u);
  for (const auto& seq : result.outputs) {
    for (TokenId t : seq) EXPECT_LT(t, cfg.vocab);
  }
}

TEST(TransformerTest, GenerateGreedyIsDeterministic) {
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 61);
  Model m1(master, DType::kF32), m2(master, DType::kF32);
  const std::vector<std::vector<TokenId>> prompts = {{8, 9, 10}};
  const auto r1 = m1.generate(prompts, 8);
  const auto r2 = m2.generate(prompts, 8);
  EXPECT_EQ(r1.outputs[0], r2.outputs[0]);
}

TEST(TransformerTest, QuantizedModelsTrackFp32) {
  // Hidden states under FP16/INT8 stay close to FP32; INT4 drifts more but
  // remains finite. (The quantization-vs-accuracy ordering is asserted at
  // the perplexity level in eval tests.)
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 71);
  Model f32(master, DType::kF32);
  Model f16(master, DType::kF16);
  Model i8(master, DType::kI8);
  Model i4(master, DType::kI4);
  const std::vector<TokenId> prompt = {2, 4, 6, 8};

  auto hidden_for = [&](Model& m) {
    KVCache cache(cfg, 1, 8);
    InferenceWorkspace ws(cfg);
    const std::size_t seq = 0;
    std::vector<float> h(cfg.d_model);
    for (TokenId t : prompt) m.forward({&t, 1}, {&seq, 1}, cache, h, ws);
    return h;
  };
  const auto h32 = hidden_for(f32);
  const auto h16 = hidden_for(f16);
  const auto h8 = hidden_for(i8);
  const auto h4 = hidden_for(i4);

  auto l2 = [&](const std::vector<float>& a, const std::vector<float>& b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      acc += (a[i] - b[i]) * static_cast<double>(a[i] - b[i]);
    }
    return std::sqrt(acc);
  };
  EXPECT_LT(l2(h32, h16), 0.2);
  EXPECT_LT(l2(h32, h8), 1.5);
  for (float v : h4) EXPECT_TRUE(std::isfinite(v));
  EXPECT_LE(l2(h32, h16), l2(h32, h8) + 1e-6);
}

TEST(TransformerTest, WeightBytesOrdering) {
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 81);
  const Model f32(master, DType::kF32);
  const Model f16(master, DType::kF16);
  const Model i8(master, DType::kI8);
  const Model i4(master, DType::kI4);
  EXPECT_GT(f32.weight_bytes(), f16.weight_bytes());
  EXPECT_GT(f16.weight_bytes(), i8.weight_bytes());
  EXPECT_GT(i8.weight_bytes(), i4.weight_bytes());
}

TEST(TransformerTest, SequenceNllPositiveAndPerTokenReasonable) {
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 91);
  Model model(master, DType::kF32);
  std::vector<TokenId> tokens;
  for (int i = 0; i < 20; ++i) tokens.push_back(static_cast<TokenId>((i * 7) % cfg.vocab));
  const auto r = model.sequence_nll(tokens, 1);
  EXPECT_EQ(r.predicted, tokens.size() - 1);
  EXPECT_GT(r.total_nll, 0.0);
  // Untrained model: per-token NLL should be near ln(vocab).
  const double per_token = r.total_nll / static_cast<double>(r.predicted);
  EXPECT_NEAR(per_token, std::log(static_cast<double>(cfg.vocab)), 2.0);
}

TEST(TransformerTest, SequenceNllPredictFromSkipsContext) {
  const auto cfg = test_config();
  auto master = MasterWeights::init_random(cfg, 101);
  Model model(master, DType::kF32);
  std::vector<TokenId> tokens = {1, 2, 3, 4, 5, 6};
  const auto full = model.sequence_nll(tokens, 1);
  const auto tail = model.sequence_nll(tokens, 4);
  EXPECT_EQ(tail.predicted, 2u);
  EXPECT_LT(tail.total_nll, full.total_nll);
}

TEST(TransformerTest, ConfigValidation) {
  TransformerConfig c = test_config();
  c.n_kv_heads = 3;  // does not divide n_heads=4
  EXPECT_THROW(c.validate(), ContractViolation);
  c = test_config();
  c.d_model = 33;
  EXPECT_THROW(c.validate(), ContractViolation);
}

TEST(TransformerTest, NanoConfigsValid) {
  for (const char* family : {"phi2", "llama3", "mistral", "deepseek-qwen"}) {
    const auto cfg = make_nano_config(family, 500);
    EXPECT_GT(cfg.block_param_count(), 0u);
    EXPECT_GT(cfg.total_param_count(), cfg.block_param_count());
  }
  EXPECT_THROW(make_nano_config("gpt5", 500), ContractViolation);
}

}  // namespace
}  // namespace orinsim
