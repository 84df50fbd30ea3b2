// Parameterized generation properties across all four model families and all
// storage precisions: the functional engine must behave like a language
// model regardless of architecture style or quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "model/transformer.h"

namespace orinsim {
namespace {

using FamilyDtype = std::tuple<std::string, DType>;

class GenerationPropertyTest : public ::testing::TestWithParam<FamilyDtype> {
 protected:
  static constexpr std::size_t kVocab = 211;

  std::shared_ptr<MasterWeights> master() const {
    const auto& [family, dt] = GetParam();
    // One master per family, shared across the dtype instantiations.
    static std::map<std::string, std::shared_ptr<MasterWeights>> cache;
    auto it = cache.find(family);
    if (it == cache.end()) {
      it = cache
               .emplace(family, MasterWeights::init_random(
                                    make_nano_config(family, kVocab), 1234))
               .first;
    }
    return it->second;
  }
};

TEST_P(GenerationPropertyTest, OutputsInVocabAndRightLength) {
  const auto& [family, dt] = GetParam();
  Model model(master(), dt);
  const std::vector<std::vector<TokenId>> prompts = {{3, 5, 7, 9}, {11, 13}};
  const auto result = model.generate(prompts, 12);
  ASSERT_EQ(result.outputs.size(), 2u);
  for (const auto& seq : result.outputs) {
    EXPECT_EQ(seq.size(), 12u);
    for (TokenId t : seq) EXPECT_LT(t, kVocab);
  }
  EXPECT_EQ(result.input_tokens, 6u);
  EXPECT_EQ(result.output_tokens, 24u);
}

TEST_P(GenerationPropertyTest, HiddenStatesFiniteOverLongRollout) {
  const auto& [family, dt] = GetParam();
  Model model(master(), dt);
  const TransformerConfig& cfg = model.config();
  KVCache cache(cfg, 1, 48);
  InferenceWorkspace ws(cfg);
  const std::size_t seq = 0;
  std::vector<float> hidden(cfg.d_model);
  TokenId token = 1;
  for (int i = 0; i < 48; ++i) {
    model.forward({&token, 1}, {&seq, 1}, cache, hidden, ws);
    token = static_cast<TokenId>((token * 31 + 17) % kVocab);
    for (float v : hidden) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_P(GenerationPropertyTest, RepeatedGenerationIdentical) {
  const auto& [family, dt] = GetParam();
  Model a(master(), dt), b(master(), dt);
  const std::vector<std::vector<TokenId>> prompts = {{2, 4, 8}};
  EXPECT_EQ(a.generate(prompts, 10).outputs, b.generate(prompts, 10).outputs);
}

TEST_P(GenerationPropertyTest, NllIsFiniteAndPositive) {
  const auto& [family, dt] = GetParam();
  Model model(master(), dt);
  std::vector<TokenId> tokens;
  for (int i = 0; i < 40; ++i) tokens.push_back(static_cast<TokenId>((i * 13) % kVocab));
  const auto r = model.sequence_nll(tokens, 1);
  EXPECT_TRUE(std::isfinite(r.total_nll));
  EXPECT_GT(r.total_nll, 0.0);
  EXPECT_EQ(r.predicted, tokens.size() - 1);
}

std::string family_dtype_name(const ::testing::TestParamInfo<FamilyDtype>& info) {
  std::string family = std::get<0>(info.param);
  for (auto& c : family) {
    if (c == '-') c = '_';
  }
  return family + "_" + dtype_name(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllPrecisions, GenerationPropertyTest,
    ::testing::Combine(::testing::Values("phi2", "llama3", "mistral", "deepseek-qwen"),
                       ::testing::Values(DType::kF32, DType::kF16, DType::kI8,
                                         DType::kI4)),
    family_dtype_name);

}  // namespace
}  // namespace orinsim
