// End-to-end pipeline tests: corpus -> tokenizer -> prompt pool -> readout
// training -> functional inference and perplexity, plus the full simulated
// measurement protocol. These exercise every module boundary at once.
#include <gtest/gtest.h>

#include <cmath>

#include "eval/perplexity.h"
#include "serving/engine.h"
#include "serving/session.h"
#include "sim/inference_sim.h"
#include "train/readout_trainer.h"
#include "workload/corpus.h"
#include "workload/prompt_pool.h"

namespace orinsim {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::CorpusSpec spec = workload::CorpusSpec::wikitext2(101);
    spec.paragraphs = 60;
    corpus_ = new workload::Corpus(workload::generate_corpus(spec));
    tokenizer_ = new Tokenizer(Tokenizer::train(corpus_->text, 500));
    tokens_ = new std::vector<TokenId>(tokenizer_->encode(corpus_->text));
    master_ = new std::shared_ptr<MasterWeights>(MasterWeights::init_random(
        make_nano_config("llama3", tokenizer_->vocab_size()), 202));
    train::TrainConfig tc;
    tc.epochs = 4;
    tc.max_tokens = 10000;
    report_ = new train::TrainReport(train::train_readout(**master_, *tokens_, tc));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete tokenizer_;
    delete tokens_;
    delete master_;
    delete report_;
  }

  static workload::Corpus* corpus_;
  static Tokenizer* tokenizer_;
  static std::vector<TokenId>* tokens_;
  static std::shared_ptr<MasterWeights>* master_;
  static train::TrainReport* report_;
};

workload::Corpus* EndToEndTest::corpus_ = nullptr;
Tokenizer* EndToEndTest::tokenizer_ = nullptr;
std::vector<TokenId>* EndToEndTest::tokens_ = nullptr;
std::shared_ptr<MasterWeights>* EndToEndTest::master_ = nullptr;
train::TrainReport* EndToEndTest::report_ = nullptr;

TEST_F(EndToEndTest, TrainingImprovedTheReadout) {
  EXPECT_LT(report_->final_loss, report_->initial_loss);
}

TEST_F(EndToEndTest, FunctionalGenerationOverTrainedModel) {
  workload::PromptPool pool(*corpus_, *tokenizer_, 128);
  serving::FunctionalSession session(*master_, DType::kF16, pool);
  serving::BatchRequest rq;
  rq.batch = 2;
  rq.seq = workload::SeqConfig{40, 16, 24};
  const serving::BatchResult r = session.run(rq);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.throughput_tps, 0.0);
}

TEST_F(EndToEndTest, PerplexityOrderingOnRealCorpus) {
  std::vector<TokenId> eval_slice(tokens_->begin(), tokens_->begin() + 1200);
  eval::PerplexityConfig pc;
  pc.window = 256;
  pc.stride = 128;
  pc.max_tokens = 400;

  Model f16(*master_, DType::kF16);
  Model i4(*master_, DType::kI4);
  const double ppl_f16 = eval::evaluate_perplexity(f16, eval_slice, pc).perplexity;
  const double ppl_i4 = eval::evaluate_perplexity(i4, eval_slice, pc).perplexity;
  EXPECT_GT(ppl_i4, ppl_f16);
  // Trained model beats the unigram floor on its corpus.
  std::vector<TokenId> head(tokens_->begin(), tokens_->begin() + 10000);
  const double unigram =
      std::exp(train::unigram_cross_entropy(head, tokenizer_->vocab_size()));
  EXPECT_LT(ppl_f16, unigram);
}

TEST(SimulatedEndToEndTest, FullProtocolAcrossCatalog) {
  // One simulated measurement per model at its paper configuration.
  sim::InferenceSim sim;
  for (const auto& m : sim::model_catalog()) {
    sim::SimRequest rq;
    rq.model_key = m.key;
    rq.dtype = m.default_dtype;
    const sim::SimResult r = sim.run(rq);
    ASSERT_FALSE(r.oom) << m.key;
    EXPECT_GT(r.throughput_tps, 1.0) << m.key;
    EXPECT_GT(r.median_power_w, 15.0) << m.key;
    EXPECT_LT(r.median_power_w, 62.5) << m.key;
    EXPECT_GT(r.energy_j, 0.0) << m.key;
  }
}

TEST(SimulatedEndToEndTest, ServingPlannerFindsBatchTradeoff) {
  // The §3.1 trade-off at the request level: larger batches raise achieved
  // throughput under load.
  serving::SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const workload::SeqConfig seq = workload::seq_config_default();
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = 20.0;
  arrivals.total_requests = 64;
  const auto tps = [&](std::size_t max_batch) {
    return serving::StaticBatchPolicy(session, max_batch, seq)
        .run(serving::requests_from_arrivals(arrivals.generate(), seq))
        .throughput_tps();
  };
  EXPECT_GT(tps(32), tps(1) * 4.0);
}

}  // namespace
}  // namespace orinsim
