// Speculative decoding through the request-lifecycle engine. The contract
// under test: serving with a draft model emits exactly the token streams
// plain greedy serving emits — across weight precisions, KV storages,
// serial and lane-pool prefill waves, preemption mid-round, and
// prefix-cache hits — while retiring those tokens in strictly fewer target
// passes.
//
// Every identity comparison runs under scalar kernels (ScopedLevel), the
// reference level. Forward rows are composition-independent at both levels,
// so the chunked verify pass equals the token-at-a-time path either way;
// the native level's served-vs-generate identity is pinned in engine_test.
#include "serving/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/error.h"
#include "sim/speculative_sim.h"
#include "tensor/dtype.h"
#include "tensor/simd.h"
#include "trace/timeline.h"
#include "workload/corpus.h"

#include "lane_pool_run.h"

namespace orinsim::serving {
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

// ---------------------------------------------------------------------------
// Functional backend
// ---------------------------------------------------------------------------

class SpeculativeEngineTest : public ::testing::Test {
 protected:
  SpeculativeEngineTest()
      : corpus_(workload::generate_corpus(workload::CorpusSpec::wikitext2())),
        tokenizer_(Tokenizer::train(corpus_.text, 400)),
        pool_(corpus_, tokenizer_, 256),
        master_(MasterWeights::init_random(
            make_nano_config("llama3", tokenizer_.vocab_size()), 17)) {}

  static FunctionalEngineConfig small_config() {
    FunctionalEngineConfig cfg;
    cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
    cfg.arrivals.rate_rps = 1000.0;  // flood: all requests arrive near t=0
    cfg.arrivals.total_requests = 4;
    cfg.seq = workload::SeqConfig{24, 8, 16};
    cfg.backend.max_lanes = 2;
    cfg.backend.block_tokens = 4;
    return cfg;
  }

  static void expect_same_streams(const EngineResult& got, const EngineResult& want,
                                  const char* label) {
    ASSERT_EQ(got.requests.size(), want.requests.size()) << label;
    for (std::size_t i = 0; i < want.requests.size(); ++i) {
      EXPECT_EQ(got.requests[i].prompt, want.requests[i].prompt)
          << label << " request " << i;
      EXPECT_EQ(got.requests[i].output, want.requests[i].output)
          << label << " request " << i;
    }
  }

  workload::Corpus corpus_;
  Tokenizer tokenizer_;
  workload::PromptPool pool_;
  std::shared_ptr<MasterWeights> master_;
};

// The identity grid: speculation on vs off across every weight precision
// the engine serves and both KV storages, with prefill waves serial and on
// a 4-worker lane pool. One plain baseline per (dtype, storage) cell; the
// speculative runs must reproduce its streams token for token.
TEST_F(SpeculativeEngineTest, BitIdenticalAcrossPrecisionsStoragesAndPools) {
  ScopedLevel scalar(simd::Level::kScalar);
  for (DType dtype : {DType::kF32, DType::kF16, DType::kI8, DType::kI4}) {
    for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
      FunctionalEngineConfig cfg = small_config();
      cfg.backend.kv_storage = storage;
      const EngineResult plain = run_functional_continuous(master_, dtype, pool_, cfg);
      ASSERT_EQ(plain.requests.size(), 4u);
      EXPECT_EQ(plain.speculation.rounds, 0u);

      cfg.backend.speculation.enabled = true;
      cfg.backend.speculation.draft_tokens = 4;
      cfg.backend.speculation.draft_dtype = DType::kI8;
      const EngineResult serial = run_functional_continuous(master_, dtype, pool_, cfg);
      Model model(master_, dtype);
      Model draft(master_, cfg.backend.speculation.draft_dtype);
      ThreadPool lanes(4);
      const EngineResult pooled =
          serve_on_lane_pool(model, cfg, plain.requests, &lanes, &draft);
      for (const EngineResult* run : {&serial, &pooled}) {
        const EngineResult& spec = *run;
        const std::string label = dtype_name(dtype) + "/" +
                                  (storage == KVStorage::kF32 ? "kvf32" : "kvi8") +
                                  (run == &pooled ? "/lane pool" : "/serial");
        expect_same_streams(spec, plain, label.c_str());
        // Self-drafting (same master, quantized) agrees often enough that
        // rounds actually retire multiple tokens — the grid must exercise
        // the accept path, not just the k=0 fallback.
        EXPECT_GT(spec.speculation.rounds, 0u) << label;
        EXPECT_GT(spec.speculation.accepted, 0u) << label;
        EXPECT_LT(spec.decode_steps, plain.decode_steps) << label;
        // Some round drafts at least two lanes, so the grid covers draft
        // steps and verify chunks of several lanes, serial and pooled.
        std::size_t widest_draft = 0;
        for (const trace::StepEvent& ev : spec.timeline.events()) {
          if (ev.phase == trace::Phase::kDraft) widest_draft = std::max(widest_draft, ev.batch);
        }
        EXPECT_GE(widest_draft, 2u) << label;
      }
    }
  }
}

// A speculative request preempted mid-stream must recompute to the exact
// same stream: the draft branch is transient (freed within the step), so
// eviction only ever sees the lane's committed prefix, and greedy recompute
// replays it without re-running the rounds.
TEST_F(SpeculativeEngineTest, PreemptionRecomputeIsLosslessMidSpeculation) {
  ScopedLevel scalar(simd::Level::kScalar);
  FunctionalEngineConfig cfg = small_config();
  cfg.arrivals.total_requests = 6;
  cfg.backend.max_lanes = 3;

  // Baseline: plain greedy, unlimited pool.
  const EngineResult baseline = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  ASSERT_EQ(baseline.requests.size(), 6u);

  // Pressured speculative run: 3 lanes at 24 tokens want 18 blocks plus
  // draft branches; 12 forces eviction while rounds are in flight.
  cfg.backend.kv_blocks = 12;
  cfg.backend.speculation.enabled = true;
  cfg.backend.speculation.draft_tokens = 4;
  const EngineResult spec = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_GT(spec.preemptions, 0u);
  EXPECT_GT(spec.speculation.rounds, 0u);
  expect_same_streams(spec, baseline, "preempted speculative");
  for (const Request& r : spec.requests) EXPECT_EQ(r.generated, 16u);
}

// Prefix-cache hits and speculative admission compose: a request admitted
// onto cached system-prompt blocks forks its draft branch off a lane whose
// prefix is shared with the cache, and both mechanisms keep the stream
// exactly greedy.
TEST_F(SpeculativeEngineTest, ComposesWithPrefixCacheHits) {
  ScopedLevel scalar(simd::Level::kScalar);
  FunctionalEngineConfig cfg;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = 1000.0;
  cfg.arrivals.total_requests = 8;
  cfg.seq = workload::SeqConfig{96, 80, 16};
  cfg.backend.max_lanes = 1;  // one lane: every admission is its own lookup
  cfg.backend.kv_blocks = 64;
  cfg.backend.block_tokens = 16;
  cfg.backend.prefix_cache = true;
  cfg.chat.system_prompts = 2;
  cfg.chat.zipf_s = 1.1;
  cfg.chat.system_tokens = 64;
  cfg.chat.user_tokens = 16;

  const EngineResult plain = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  ASSERT_EQ(plain.requests.size(), 8u);
  EXPECT_GT(plain.prefix_cache.hits, 0u);

  cfg.backend.speculation.enabled = true;
  cfg.backend.speculation.draft_tokens = 4;
  const EngineResult spec = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_GT(spec.prefix_cache.hits, 0u);
  EXPECT_GT(spec.speculation.rounds, 0u);
  expect_same_streams(spec, plain, "prefix-cache + speculation");
}

// Timeline and counter discipline: rounds emit kDraft/kVerify (never a bare
// kDecode for a speculative round), decode_steps counts target passes
// either way, and the per-round accounting identities hold exactly.
TEST_F(SpeculativeEngineTest, EmitsDraftVerifyPhasesWithExactAccounting) {
  ScopedLevel scalar(simd::Level::kScalar);
  FunctionalEngineConfig cfg = small_config();

  const EngineResult plain = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kVerify), 0u);
  EXPECT_EQ(plain.decode_steps, plain.timeline.count(trace::Phase::kDecode));

  cfg.backend.speculation.enabled = true;
  cfg.backend.speculation.draft_tokens = 4;
  const EngineResult spec = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_GT(spec.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_GT(spec.timeline.count(trace::Phase::kVerify), 0u);
  EXPECT_EQ(spec.decode_steps, spec.timeline.count(trace::Phase::kDecode) +
                                   spec.timeline.count(trace::Phase::kVerify));

  const SpeculationStats& s = spec.speculation;
  EXPECT_GT(s.rounds, 0u);
  // Each round emits its accepted prefix plus exactly one target token
  // (corrective or bonus), and verifies at most one losing proposal.
  EXPECT_EQ(s.emitted, s.accepted + s.rounds);
  EXPECT_LE(s.accepted, s.proposed);
  EXPECT_LE(s.proposed, s.accepted + s.rounds);
  // Speculation must not change how much work retires, only how fast.
  std::size_t plain_tokens = 0, spec_tokens = 0;
  for (const Request& r : plain.requests) plain_tokens += r.output.size();
  for (const Request& r : spec.requests) spec_tokens += r.output.size();
  EXPECT_EQ(spec_tokens, plain_tokens);
}

// ---------------------------------------------------------------------------
// Single-sequence pairings
// ---------------------------------------------------------------------------

// One prompt served on one lane, against Model::generate as the plain greedy
// reference. Drafts here share the target's geometry (the backend's draft
// and target read the same paged KV sequences) but not always its weights:
// an unrelated random master is the rejection-heavy extreme.
class SpeculativeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kVocab = 61;

  // d_model 64: a multiple of the INT4 block so quantized drafts work.
  static TransformerConfig spec_config() {
    TransformerConfig c;
    c.vocab = kVocab;
    c.d_model = 64;
    c.n_layers = 2;
    c.n_heads = 4;
    c.n_kv_heads = 2;
    c.d_ff = 128;
    c.max_seq = 128;
    c.validate();
    return c;
  }

  SpeculativeTest()
      : target_master_(MasterWeights::init_random(spec_config(), 5)),
        unrelated_master_(MasterWeights::init_random(spec_config(), 777)) {}

  static FunctionalTokenBackend::Config backend_config(std::size_t prompt,
                                                       std::size_t new_tokens,
                                                       std::size_t k) {
    FunctionalTokenBackend::Config bc;
    bc.max_lanes = 1;
    bc.max_seq = prompt + new_tokens;
    bc.speculation.enabled = true;
    bc.speculation.draft_tokens = k;
    return bc;
  }

  // Serves `prompt` with `draft` proposing k tokens per round; checks the
  // stream against the target's plain greedy decode.
  Request serve(Model& draft, const std::vector<TokenId>& prompt, std::size_t new_tokens,
                std::size_t k) {
    Model target(target_master_, DType::kF32);
    FunctionalTokenBackend backend(target, backend_config(prompt.size(), new_tokens, k),
                                   nullptr, &draft);
    std::vector<Request> request(1);
    request[0].prompt = prompt;
    request[0].prompt_tokens = prompt.size();
    request[0].max_new_tokens = new_tokens;
    Request served = ContinuousPolicy(backend).run(std::move(request)).requests[0];
    EXPECT_EQ(served.output, target.generate({prompt}, new_tokens).outputs[0]);
    return served;
  }

  ScopedLevel scalar_{simd::Level::kScalar};
  std::shared_ptr<MasterWeights> target_master_;
  std::shared_ptr<MasterWeights> unrelated_master_;
};

TEST_F(SpeculativeTest, OutputIdenticalToTargetGreedy) {
  // The defining property: speculative decoding never changes the output.
  Model draft(unrelated_master_, DType::kF32);
  const Request r = serve(draft, {3, 7, 11, 13}, 24, 4);
  EXPECT_EQ(r.output.size(), 24u);
  // The prefill samples the first token; rounds retire the rest, except
  // that a lane owing a single token takes a plain step.
  EXPECT_GT(r.spec.rounds, 0u);
  EXPECT_LE(r.spec.emitted + 1, r.output.size());
}

TEST_F(SpeculativeTest, SelfDraftAcceptsEverything) {
  // Draft == target: every proposal is accepted and rounds retire K + 1.
  Model draft(target_master_, DType::kF32);
  const Request r = serve(draft, {2, 4, 6}, 20, 4);
  EXPECT_DOUBLE_EQ(r.spec.acceptance_rate(), 1.0);
  EXPECT_GE(r.spec.tokens_per_round(), 4.0);  // K accepted + bonus, minus tail
}

TEST_F(SpeculativeTest, RandomDraftStillCorrect) {
  // A draft that disagrees almost always: acceptance near zero, output still
  // exactly the target's (checked in serve()), accounting still exact.
  Model draft(unrelated_master_, DType::kF32);
  const Request r = serve(draft, {1, 2, 3}, 16, 3);
  EXPECT_LT(r.spec.acceptance_rate(), 0.9);
  EXPECT_LE(r.spec.accepted, r.spec.proposed);
  EXPECT_LE(r.spec.proposed, r.spec.accepted + r.spec.rounds);
}

TEST_F(SpeculativeTest, QuantizedDraftOfSameFamily) {
  // A realistic pairing: the INT8-quantized target acts as its own draft.
  // (Untrained logits are nearly flat, so even small quantization noise
  // flips argmax often; INT8 stays close, INT4 would not — trained-model
  // acceptance is measured in bench_ext_speculative.)
  Model draft(target_master_, DType::kI8);
  const Request r = serve(draft, {9, 18, 27}, 20, 4);
  EXPECT_GT(r.spec.acceptance_rate(), 0.5);
}

TEST_F(SpeculativeTest, ProposedCountsOnlyVerifiedDrafts) {
  // A rejection cuts the verify short: the drafts past it were never
  // compared, so they must not count as proposed. Per round the target
  // verifies accepted + (1 if rejected) proposals, so across the run
  // proposed <= accepted + rounds.
  Model unrelated(unrelated_master_, DType::kF32);
  const Request r = serve(unrelated, {1, 2, 3}, 24, 4);
  EXPECT_LE(r.spec.accepted, r.spec.proposed);
  EXPECT_LE(r.spec.proposed, r.spec.accepted + r.spec.rounds);
  // An unrelated draft rejects on nearly every round, so the bound is tight:
  // counting every proposal would make proposed ~4x rounds.
  EXPECT_GT(r.spec.rounds, 1u);

  // Self-draft never rejects: acceptance is exactly 1.0 even though the
  // last round is cut short by max_new_tokens.
  Model self(target_master_, DType::kF32);
  const Request s = serve(self, {2, 4, 6}, 18, 4);
  EXPECT_EQ(s.spec.proposed, s.spec.accepted);
  EXPECT_DOUBLE_EQ(s.spec.acceptance_rate(), 1.0);
}

TEST_F(SpeculativeTest, StatsAreConsistent) {
  Model draft(unrelated_master_, DType::kI8);
  const Request r = serve(draft, {5, 10, 15}, 20, 4);
  EXPECT_LE(r.spec.accepted, r.spec.proposed);
  EXPECT_GE(r.spec.rounds, 1u);
  // Each round retires its accepted prefix plus one target token.
  EXPECT_EQ(r.spec.emitted, r.spec.accepted + r.spec.rounds);
  EXPECT_LE(r.spec.emitted + 1, r.output.size());
  EXPECT_EQ(r.output.size(), 20u);
}

TEST_F(SpeculativeTest, InvalidConfigsRejected) {
  Model target(target_master_, DType::kF32);
  Model draft(unrelated_master_, DType::kF32);
  // Speculation without a draft model.
  EXPECT_THROW(FunctionalTokenBackend(target, backend_config(4, 8, 4)), ContractViolation);
  // K = 0 proposes nothing.
  EXPECT_THROW(FunctionalTokenBackend(target, backend_config(4, 8, 0), nullptr, &draft),
               ContractViolation);
  // A draft with another geometry cannot share the target's KV sequences.
  TransformerConfig small = spec_config();
  small.d_model = 32;
  small.d_ff = 64;
  Model mismatched(MasterWeights::init_random(small, 4), DType::kF32);
  EXPECT_THROW(
      FunctionalTokenBackend(target, backend_config(4, 8, 4), nullptr, &mismatched),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// Simulated backend
// ---------------------------------------------------------------------------

// The sim backend's calibrated acceptance model: long-run tokens per round
// tracks sim::expected_tokens_per_round (the carry makes the average exact,
// minus end-of-request clamping), and the step count shrinks accordingly
// while the same requests retire.
TEST(SimSpeculativeEngineTest, CalibratedAcceptanceMatchesExpectedTokensPerRound) {
  SimTokenBackend::Config bc;
  bc.model_key = "mistral";  // 24B target: drafting with 2.8B phi2 amortizes
  bc.dtype = DType::kF16;
  bc.max_concurrency = 4;
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.total_requests = 16;
  const auto make_requests = [&] {
    return requests_from_arrivals(arrivals.generate(), bc.seq);
  };

  SimTokenBackend plain_backend(bc);
  const EngineResult plain = ContinuousPolicy(plain_backend).run(make_requests());

  bc.speculation.enabled = true;
  bc.speculation.draft_tokens = 4;
  bc.speculation.acceptance = 0.8;
  // A genuinely smaller draft at FP16: the speedup formula needs
  // t_draft << t_target, and on this device INT8 carries the paper's
  // quantization overhead, so F16 is the fast draft precision too.
  bc.speculation.draft_model_key = "phi2";
  bc.speculation.draft_dtype = DType::kF16;
  SimTokenBackend spec_backend(bc);
  const EngineResult spec = ContinuousPolicy(spec_backend).run(make_requests());

  // Same requests retire with the same token totals.
  ASSERT_EQ(spec.latencies_s.size(), plain.latencies_s.size());
  EXPECT_EQ(spec.total_tokens, plain.total_tokens);

  // Rounds emit close to E = (1 - a^(K+1)) / (1 - a); the shortfall is the
  // final round of each request clamping to the tokens it still owes.
  const double expected = sim::expected_tokens_per_round(0.8, 4);
  EXPECT_GT(spec.speculation.rounds, 0u);
  EXPECT_LE(spec.speculation.tokens_per_round(), expected + 1e-9);
  EXPECT_GT(spec.speculation.tokens_per_round(), 0.75 * expected);

  // Fewer target passes, kDraft/kVerify in the trace, legacy trace clean.
  EXPECT_LT(spec.decode_steps, plain.decode_steps);
  EXPECT_GT(spec.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_GT(spec.timeline.count(trace::Phase::kVerify), 0u);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kDraft), 0u);
  EXPECT_EQ(plain.timeline.count(trace::Phase::kVerify), 0u);

  // Speculation speeds the schedule up on the weight-bound device: the
  // verify pass streams the weights once for K+1 positions.
  EXPECT_LT(spec.makespan_s, plain.makespan_s);
}

}  // namespace
}  // namespace orinsim::serving
