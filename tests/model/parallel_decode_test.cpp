// Batched decode in Model::generate: sampled outputs repeat for one seed,
// the decode loop must exit early once every lane has hit the cache limit,
// and its timeline must conserve the tokens it produced.
#include <gtest/gtest.h>

#include <vector>

#include "model/transformer.h"
#include "trace/timeline.h"

namespace orinsim {
namespace {

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

std::vector<std::vector<TokenId>> five_prompts() {
  return {{3, 9, 27},
          {81, 12, 36, 11},
          {5, 6, 7, 8, 9},
          {44, 2},
          {1, 90, 13, 60, 31, 18}};
}

// A sampler sees its calls in lane order, once per lane per step, so one
// seed reproduces one batch of sampled outputs.
TEST(ParallelDecodeTest, SampledOutputsRepeatForOneSeed) {
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 43);
  Model model(master, DType::kF32, KVStorage::kF32);
  Sampler first_sampler({0.8f, 0, 1.0f}, 1234);
  const auto first = model.generate(five_prompts(), 12, &first_sampler);
  Sampler second_sampler({0.8f, 0, 1.0f}, 1234);
  const auto second = model.generate(five_prompts(), 12, &second_sampler);
  EXPECT_EQ(first.output_tokens, 5u * 12u);
  EXPECT_EQ(second.outputs, first.outputs);
  EXPECT_NE(model.generate(five_prompts(), 12).outputs, first.outputs);  // not greedy
}

// Regression: generate used to spin all max_new_tokens steps after every
// lane hit max_seq, emitting zero-active decode events.
TEST(ParallelDecodeTest, StopsOnceAllLanesHitMaxSeq) {
  auto cfg = decode_test_config();
  cfg.max_seq = 16;
  cfg.validate();
  auto master = MasterWeights::init_random(cfg, 47);
  Model model(master, DType::kF32, KVStorage::kF32);

  std::vector<std::vector<TokenId>> prompts(2);
  prompts[0].assign(12, 7);  // room for 4 tokens
  prompts[1].assign(14, 9);  // room for 2 tokens
  trace::ExecutionTimeline tl;
  const auto r = model.generate(prompts, 20, nullptr, &tl);

  EXPECT_EQ(r.outputs[0].size(), 4u);
  EXPECT_EQ(r.outputs[1].size(), 2u);
  // 4 productive steps, then the loop exits instead of idling to step 20.
  EXPECT_EQ(tl.count(trace::Phase::kDecode), 4u);
  EXPECT_EQ(tl.count(trace::Phase::kPrefill), 1u);
  std::size_t decode_token_sum = 0;
  for (const auto& e : tl.events()) {
    if (e.phase != trace::Phase::kDecode) continue;
    EXPECT_GT(e.batch, 0u);  // never a zero-active decode event
    decode_token_sum += e.batch;
  }
  EXPECT_EQ(decode_token_sum, r.output_tokens);  // trace conserves tokens
}

TEST(ParallelDecodeTest, TimelineConservesTokens) {
  const auto cfg = decode_test_config();
  auto master = MasterWeights::init_random(cfg, 53);
  Model model(master, DType::kF32, KVStorage::kF32);
  trace::ExecutionTimeline tl;
  const auto r = model.generate(five_prompts(), 12, nullptr, &tl);

  EXPECT_EQ(tl.count(trace::Phase::kDecode), 12u);
  std::size_t decode_token_sum = 0;
  for (const auto& e : tl.events()) {
    if (e.phase == trace::Phase::kDecode) decode_token_sum += e.batch;
  }
  EXPECT_EQ(decode_token_sum, r.output_tokens);
}

}  // namespace
}  // namespace orinsim
