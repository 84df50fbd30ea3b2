#include "driver/prompts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "driver/stack.h"
#include "workload/corpus.h"

namespace perfbench {
namespace {

using orinsim::TokenId;

TEST(PoissonSchedule, DeterministicInSeed) {
  EXPECT_EQ(poisson_schedule(30.0, 20.0, 5), poisson_schedule(30.0, 20.0, 5));
  EXPECT_NE(poisson_schedule(30.0, 20.0, 5), poisson_schedule(30.0, 20.0, 6));
}

TEST(PoissonSchedule, ExactCountInsideTheWindow) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<double> t = poisson_schedule(30.0, 20.0, seed);
    ASSERT_EQ(t.size(), 600u);
    EXPECT_GE(t.front(), 0.0);
    EXPECT_LT(t.back(), 20.0);
    EXPECT_TRUE(std::is_sorted(t.begin(), t.end()));
  }
  EXPECT_EQ(poisson_schedule(0.01, 1.0, 1).size(), 1u);  // never empty
}

TEST(PoissonSchedule, GapsLookExponential) {
  // Squared coefficient of variation of exponential gaps is 1.
  const std::vector<double> t = poisson_schedule(50.0, 200.0, 3);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    const double g = t[i] - t[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const double n = static_cast<double>(t.size() - 1);
  const double m = sum / n;
  const double scv = (sum2 / n - m * m) / (m * m);
  EXPECT_NEAR(scv, 1.0, 0.1);
}

class PromptsFromPool : public ::testing::Test {
 protected:
  PromptsFromPool()
      : tokenizer_(serving_tokenizer()),
        corpus_(orinsim::workload::generate_corpus(orinsim::workload::CorpusSpec::wikitext2())),
        pool_(corpus_, tokenizer_) {}

  orinsim::Tokenizer tokenizer_;
  orinsim::workload::Corpus corpus_;
  orinsim::workload::PromptPool pool_;
};

TEST_F(PromptsFromPool, ChatPromptsShareSystemPrefixes) {
  orinsim::workload::ChatWorkloadConfig chat;
  chat.system_tokens = 192;
  chat.user_tokens = 32;
  orinsim::Rng rng(9);
  const std::vector<Prompt> prompts = chat_prompts(pool_, tokenizer_, 200, chat, rng);
  ASSERT_EQ(prompts.size(), 200u);
  std::set<std::vector<TokenId>> systems;
  for (const Prompt& p : prompts) {
    ASSERT_EQ(p.tokens.size(), 224u);
    EXPECT_EQ(tokenizer_.encode(p.text), p.tokens);
    systems.emplace(p.tokens.begin(), p.tokens.begin() + 192);
  }
  EXPECT_LE(systems.size(), chat.system_prompts);
  EXPECT_GE(systems.size(), 2u);
}

}  // namespace
}  // namespace perfbench
