#include "train/readout_trainer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "model/config.h"

namespace orinsim::train {
namespace {

// A tiny synthetic stream with strong bigram structure: token 2k is always
// followed by 2k+1. A context-aware readout must beat the unigram baseline.
std::vector<TokenId> bigram_stream(std::size_t pairs, std::size_t vocab, Rng& rng) {
  std::vector<TokenId> out;
  out.reserve(pairs * 2);
  const std::size_t half = vocab / 2;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto a = static_cast<TokenId>(rng.uniform_index(half) * 2);
    out.push_back(a);
    out.push_back(a + 1);
  }
  return out;
}

TransformerConfig trainer_config(std::size_t vocab) {
  TransformerConfig c;
  c.vocab = vocab;
  c.d_model = 32;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_ff = 64;
  c.max_seq = 256;
  c.validate();
  return c;
}

TEST(TrainTest, LossDecreasesOverEpochs) {
  Rng rng(3);
  const std::size_t vocab = 64;
  const auto tokens = bigram_stream(1500, vocab, rng);
  auto master = MasterWeights::init_random(trainer_config(vocab), 5);
  TrainConfig tc;
  tc.epochs = 4;
  tc.max_tokens = tokens.size();
  const TrainReport report = train_readout(*master, tokens, tc);
  ASSERT_EQ(report.epoch_loss.size(), 4u);
  EXPECT_LT(report.final_loss, report.initial_loss);
  EXPECT_LT(report.final_loss, report.epoch_loss[0]);
}

TEST(TrainTest, BeatsUnigramOnBigramStructure) {
  Rng rng(4);
  const std::size_t vocab = 64;
  const auto tokens = bigram_stream(2000, vocab, rng);
  auto master = MasterWeights::init_random(trainer_config(vocab), 6);
  TrainConfig tc;
  tc.epochs = 6;
  tc.max_tokens = tokens.size();
  const TrainReport report = train_readout(*master, tokens, tc);
  const double unigram = unigram_cross_entropy(tokens, vocab);
  // Bigram structure halves the entropy: every odd position is deterministic.
  EXPECT_LT(report.final_loss, unigram * 0.8);
}

TEST(TrainTest, DeterministicGivenSeed) {
  Rng rng(5);
  const std::size_t vocab = 32;
  const auto tokens = bigram_stream(400, vocab, rng);
  auto m1 = MasterWeights::init_random(trainer_config(vocab), 7);
  auto m2 = MasterWeights::init_random(trainer_config(vocab), 7);
  TrainConfig tc;
  tc.epochs = 2;
  tc.max_tokens = tokens.size();
  const TrainReport r1 = train_readout(*m1, tokens, tc);
  const TrainReport r2 = train_readout(*m2, tokens, tc);
  EXPECT_DOUBLE_EQ(r1.final_loss, r2.final_loss);
  EXPECT_EQ(m1->lm_head, m2->lm_head);
}

// The gradient and Adam loops split vocab rows across kernel_pool() at top
// level and run inline inside a pool shard; every gradient element sums the
// minibatch in the same order either way, so the trained head is identical.
TEST(TrainTest, LmHeadIndependentOfRowPartition) {
  Rng rng(8);
  const std::size_t vocab = 64;
  const auto tokens = bigram_stream(400, vocab, rng);
  auto fanned = MasterWeights::init_random(trainer_config(vocab), 9);
  auto inline_run = MasterWeights::init_random(trainer_config(vocab), 9);
  TrainConfig tc;
  tc.epochs = 2;
  tc.max_tokens = tokens.size();
  const TrainReport r1 = train_readout(*fanned, tokens, tc);
  TrainReport r2;
  kernel_pool().parallel_for(0, 1,
                             [&](std::size_t) { r2 = train_readout(*inline_run, tokens, tc); });
  EXPECT_EQ(r1.epoch_loss, r2.epoch_loss);
  EXPECT_EQ(fanned->lm_head, inline_run->lm_head);
}

TEST(TrainTest, UnigramCrossEntropyUniformStream) {
  // Uniform stream over v tokens: CE -> ln(v).
  Rng rng(6);
  const std::size_t vocab = 16;
  std::vector<TokenId> tokens;
  for (int i = 0; i < 4000; ++i) tokens.push_back(static_cast<TokenId>(rng.uniform_index(vocab)));
  EXPECT_NEAR(unigram_cross_entropy(tokens, vocab), std::log(16.0), 0.05);
}

TEST(TrainTest, UnigramCrossEntropySkewedIsLower) {
  std::vector<TokenId> skewed(3000, 0);
  for (int i = 0; i < 300; ++i) skewed[i * 10] = 1;
  EXPECT_LT(unigram_cross_entropy(skewed, 8), std::log(8.0));
}

TEST(TrainTest, RejectsTinyStreams) {
  auto master = MasterWeights::init_random(trainer_config(16), 8);
  std::vector<TokenId> tiny(10, 1);
  EXPECT_THROW(train_readout(*master, tiny, TrainConfig{}), ContractViolation);
}

TEST(TrainTest, RejectsOutOfVocabTokens) {
  auto master = MasterWeights::init_random(trainer_config(16), 9);
  std::vector<TokenId> bad(100, 99);  // vocab is 16
  EXPECT_THROW(train_readout(*master, bad, TrainConfig{}), ContractViolation);
}

}  // namespace
}  // namespace orinsim::train
