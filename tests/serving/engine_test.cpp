// The unified request-lifecycle serving engine: preemption on KV block
// exhaustion, recompute-lossless resumption, occupancy metrics off the
// event stream, and the acceptance run — a 64-request Poisson stream on the
// functional engine with more lanes than the block pool can hold at full
// sequence length.
#include "serving/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "serving/session.h"
#include "tensor/simd.h"
#include "trace/export.h"
#include "workload/corpus.h"

#include "lane_pool_run.h"

namespace orinsim::serving {
namespace {

// ---------------------------------------------------------------------------
// Simulated backend
// ---------------------------------------------------------------------------

std::vector<Request> sim_request_stream(const SimTokenBackend::Config& bc,
                                        const workload::ArrivalConfig& arrivals) {
  return requests_from_arrivals(arrivals.generate(), bc.seq);
}

TEST(EngineSimTest, UnlimitedPoolNeverPreemptsAndKeepsLegacyTraces) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.total_requests = 16;
  SimTokenBackend backend(bc);
  const EngineResult result =
      ContinuousPolicy(backend).run(sim_request_stream(bc, arrivals));

  EXPECT_EQ(result.latencies_s.size(), 16u);
  EXPECT_EQ(result.preemptions, 0u);
  // The unlimited pool reports no occupancy, so exported traces stay
  // byte-identical to the pre-paging simulator's.
  EXPECT_EQ(result.peak_kv_blocks, 0u);
  EXPECT_EQ(result.mean_kv_utilization, 0.0);
  EXPECT_EQ(trace::to_jsonl(result.timeline).find("kv_blocks"), std::string::npos);
}

// Continuous (token-level) batching on the simulated Orin AGX: the
// "dedicated inference engine" regime the paper's conclusion points to.
class ContinuousBatchingTest : public ::testing::Test {
 protected:
  ContinuousBatchingTest() {
    bc_.max_concurrency = 16;
    arrivals_.rate_rps = 2.0;
    arrivals_.total_requests = 32;
  }

  EngineResult run() {
    SimTokenBackend backend(bc_);
    return ContinuousPolicy(backend).run(sim_request_stream(bc_, arrivals_));
  }

  SimTokenBackend::Config bc_;
  workload::ArrivalConfig arrivals_;
};

TEST_F(ContinuousBatchingTest, AllRequestsComplete) {
  const EngineResult r = run();
  EXPECT_EQ(r.latencies_s.size(), 32u);
  for (double l : r.latencies_s) EXPECT_GT(l, 0.0);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GE(r.decode_steps, 64u);  // at least out_tokens steps
}

TEST_F(ContinuousBatchingTest, Deterministic) {
  const EngineResult a = run();
  const EngineResult b = run();
  EXPECT_EQ(a.latencies_s, b.latencies_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST_F(ContinuousBatchingTest, OccupancyBoundedByCap) {
  arrivals_.rate_rps = 100.0;  // flood
  const EngineResult r = run();
  EXPECT_LE(r.mean_active, static_cast<double>(bc_.max_concurrency) + 1e-9);
  EXPECT_GT(r.mean_active, 4.0);  // flood keeps the device busy
}

TEST_F(ContinuousBatchingTest, SingleRequestLatencyNearBsOne) {
  // A lone request should see roughly the bs=1 static latency (prefill +
  // 64 decode steps), with no batching delay.
  arrivals_.total_requests = 1;
  arrivals_.rate_rps = 1.0;
  const EngineResult r = run();
  ASSERT_EQ(r.latencies_s.size(), 1u);
  EXPECT_GT(r.latencies_s[0], 4.0);
  EXPECT_LT(r.latencies_s[0], 9.0);  // paper bs=1: 6.37s minus run overhead
}

TEST_F(ContinuousBatchingTest, BeatsStaticMeanLatencyUnderLoad) {
  // Same arrival process, same concurrency budget: continuous batching must
  // cut mean time-to-last-token (no waiting for batch formation/stragglers).
  arrivals_.rate_rps = 5.0;
  arrivals_.total_requests = 48;
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const EngineResult stat = StaticBatchPolicy(session, 16, bc_.seq)
                                .run(sim_request_stream(bc_, arrivals_));
  const EngineResult cont = run();
  EXPECT_LT(cont.mean_latency_s(), stat.mean_latency_s());
}

TEST_F(ContinuousBatchingTest, EnergyScalesWithWork) {
  const EngineResult small = run();
  arrivals_.total_requests *= 2;
  const EngineResult large = run();
  EXPECT_GT(large.energy_j, small.energy_j * 1.5);
}

TEST_F(ContinuousBatchingTest, MemoryGateEnforced) {
  // The one serving memory gate: deepseek-qwen at FP16 (62 GB) does not
  // fit, llama3 at the same concurrency does.
  const sim::MemoryModel memory;
  EXPECT_FALSE(memory.workload_fits(sim::model_by_key("deepseek-qwen"), DType::kF16,
                                    bc_.max_concurrency, bc_.seq.input, bc_.seq.output));
  EXPECT_TRUE(memory.workload_fits(sim::model_by_key("llama3"), DType::kF16,
                                   bc_.max_concurrency, bc_.seq.input, bc_.seq.output));
  // Weights alone fit at INT8, but 4096 full-length sequences of KV do not.
  EXPECT_FALSE(memory.workload_fits(sim::model_by_key("deepseek-qwen"), DType::kI8,
                                    4096, bc_.seq.input, bc_.seq.output));
}

TEST_F(ContinuousBatchingTest, DegenerateConfigsRejected) {
  arrivals_.total_requests = 0;
  EXPECT_THROW(run(), ContractViolation);
  arrivals_.total_requests = 32;
  bc_.max_concurrency = 0;
  EXPECT_THROW(run(), ContractViolation);
}

TEST(EngineSimTest, BlockExhaustionPreemptsInsteadOfFailing) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  bc.block_tokens = 16;
  // Full capacity would be 8 lanes * 6 blocks = 48; 30 oversubscribes.
  bc.kv_blocks = 30;
  ASSERT_LT(bc.kv_blocks * bc.block_tokens,
            bc.max_concurrency * (bc.seq.input + bc.seq.output));
  SimTokenBackend backend(bc);

  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 8.0;  // heavy load keeps all lanes occupied
  arrivals.total_requests = 32;
  const EngineResult result =
      ContinuousPolicy(backend).run(sim_request_stream(bc, arrivals));

  // Every request completes despite the pool being too small for the lane
  // count — preemption, not OOM.
  EXPECT_EQ(result.latencies_s.size(), 32u);
  for (double lat : result.latencies_s) EXPECT_GT(lat, 0.0);
  EXPECT_GT(result.preemptions, 0u);
  std::size_t request_preemptions = 0;
  for (const Request& r : result.requests) {
    EXPECT_EQ(r.state, RequestState::kFinished);
    EXPECT_EQ(r.generated, bc.seq.output);
    request_preemptions += r.preemptions;
  }
  EXPECT_EQ(request_preemptions, result.preemptions);

  // Occupancy is read off the annotated event stream.
  EXPECT_GT(result.mean_kv_utilization, 0.0);
  EXPECT_LE(result.mean_kv_utilization, 1.0);
  EXPECT_GT(result.peak_kv_blocks, 0u);
  EXPECT_LE(result.peak_kv_blocks, bc.kv_blocks);
  const trace::ExecutionTimeline& tl = result.timeline;
  EXPECT_EQ(tl.request_event_count(trace::RequestEventKind::kPreempt),
            result.preemptions);
  EXPECT_EQ(tl.request_event_count(trace::RequestEventKind::kRetire), 32u);
  // A preempted request is re-admitted, so admits exceed first admissions.
  EXPECT_EQ(tl.request_event_count(trace::RequestEventKind::kAdmit),
            32u + result.preemptions);
}

// ---------------------------------------------------------------------------
// Per-request energy attribution (conservation invariant)
// ---------------------------------------------------------------------------

double attributed_sum_j(const EngineResult& result) {
  double sum = 0.0;
  for (const RequestMetrics& m : result.request_metrics) sum += m.energy_j;
  return sum;
}

TEST(EngineEnergyTest, SimContinuousAttributionConservesEnergy) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.total_requests = 16;
  SimTokenBackend backend(bc);
  const EngineResult result =
      ContinuousPolicy(backend).run(sim_request_stream(bc, arrivals));

  EXPECT_GT(result.energy_j, 0.0);
  ASSERT_EQ(result.request_metrics.size(), 16u);
  EXPECT_NEAR(attributed_sum_j(result), result.energy_j, 1e-9);
  for (const RequestMetrics& m : result.request_metrics) {
    EXPECT_GT(m.energy_j, 0.0);
    EXPECT_GT(m.avg_power_w, 0.0);
    EXPECT_GT(m.energy_per_token_j, 0.0);
  }
  EXPECT_GT(result.energy_per_request_j(), 0.0);
  EXPECT_GT(result.energy_per_token_j(), 0.0);
}

TEST(EngineEnergyTest, AttributionConservesEnergyUnderPreemption) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  bc.block_tokens = 16;
  bc.kv_blocks = 30;  // oversubscribed: forces eviction + recompute
  SimTokenBackend backend(bc);
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 8.0;
  arrivals.total_requests = 32;
  const EngineResult result =
      ContinuousPolicy(backend).run(sim_request_stream(bc, arrivals));

  // Preempted requests pay for their recompute prefills too; the split still
  // conserves the timeline total.
  EXPECT_GT(result.preemptions, 0u);
  EXPECT_NEAR(attributed_sum_j(result), result.energy_j, 1e-9);
}

TEST(EngineEnergyTest, StaticPolicyAttributionConservesEnergy) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 0.5;
  arrivals.total_requests = 12;
  const workload::SeqConfig seq = workload::seq_config_default();
  StaticBatchPolicy policy(session, /*max_batch=*/4, seq);
  const EngineResult result = policy.run(requests_from_arrivals(arrivals.generate(), seq));

  EXPECT_GT(result.energy_j, 0.0);
  ASSERT_EQ(result.request_metrics.size(), 12u);
  EXPECT_NEAR(attributed_sum_j(result), result.energy_j, 1e-9);
  // Batch-mates share the batch event evenly.
  for (const RequestMetrics& m : result.request_metrics) EXPECT_GT(m.energy_j, 0.0);
}

// ---------------------------------------------------------------------------
// Power/thermal governor
// ---------------------------------------------------------------------------

double sim_decode_power_w(const std::string& model_key, DType dtype, std::size_t batch,
                          double ctx, const sim::PowerMode& pm) {
  const sim::InferenceSim sim;
  const sim::ModelSpec& m = sim::model_by_key(model_key);
  const sim::StepBreakdown step = sim.roofline().decode_step(m, dtype, batch, ctx, pm);
  return sim.power_model().decode_power(m, dtype, step, pm).total_w();
}

TEST(EngineGovernorTest, PowerCapStepsDownLadderAndSustainsCap) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  // Cap between mode-A and MaxN decode power at this batch: one ladder step
  // clears the violation.
  const double ctx_hi = static_cast<double>(bc.seq.input + bc.seq.output);
  const double p_maxn = sim_decode_power_w(bc.model_key, bc.dtype, 8,
                                           static_cast<double>(bc.seq.input),
                                           sim::power_mode_maxn());
  const double p_a =
      sim_decode_power_w(bc.model_key, bc.dtype, 8, ctx_hi, sim::power_mode_by_name("A"));
  ASSERT_LT(p_a, p_maxn);
  GovernorConfig gov;
  gov.power_cap_w = 0.5 * (p_a + p_maxn);

  SimTokenBackend backend(bc);
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 1000.0;  // flood: one prefill wave, then pure decode
  arrivals.total_requests = 8;
  const EngineResult result =
      ContinuousPolicy(backend, gov).run(sim_request_stream(bc, arrivals));

  EXPECT_EQ(result.latencies_s.size(), 8u);
  EXPECT_GE(result.governor_step_downs, 1u);
  const trace::ExecutionTimeline& tl = result.timeline;
  EXPECT_GE(tl.governor_event_count(trace::GovernorEventKind::kPowerCapStepDown), 1u);

  // Sustained compliance: every powered step after the last governor action
  // runs at or below the cap.
  const double last_action_t = tl.governor_events().back().t_s;
  std::size_t steps_after = 0;
  for (const trace::StepEvent& e : tl.events()) {
    if (!e.has_power() || e.t_start_s < last_action_t) continue;
    EXPECT_LE(e.power_w, gov.power_cap_w + 1e-9);
    ++steps_after;
  }
  EXPECT_GT(steps_after, 0u);

  // Governor actions reach the exported traces; attribution still conserves.
  EXPECT_NE(trace::to_jsonl(tl).find("\"governor\""), std::string::npos);
  EXPECT_NE(trace::to_chrome_trace_json(tl).find("governor:"), std::string::npos);
  EXPECT_NEAR(attributed_sum_j(result), result.energy_j, 1e-9);
}

TEST(EngineGovernorTest, LadderFloorDefersAdmissionsThenResumes) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 4;
  // Single-rung ladder (the starting mode only): the governor has no DVFS
  // lever, so its only recourse is admission deferral.
  const double ctx_hi = static_cast<double>(bc.seq.input + bc.seq.output);
  const double p_b4 = sim_decode_power_w(bc.model_key, bc.dtype, 4,
                                         static_cast<double>(bc.seq.input),
                                         sim::power_mode_maxn());
  const double p_b2 = sim_decode_power_w(bc.model_key, bc.dtype, 2, ctx_hi,
                                         sim::power_mode_maxn());
  ASSERT_LT(p_b2, p_b4);
  GovernorConfig gov;
  gov.power_cap_w = 0.5 * (p_b2 + p_b4);
  gov.ladder = {sim::power_mode_maxn()};

  SimTokenBackend backend(bc);
  // Flood, staggered lengths: the batch shrinks by attrition while deferral
  // holds, power falls under the cap, admissions resume.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 10; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = 0.0;
    r.prompt_tokens = bc.seq.input;
    r.max_new_tokens = 4 + 6 * i;
    requests.push_back(r);
  }
  const EngineResult result = ContinuousPolicy(backend, gov).run(std::move(requests));

  EXPECT_EQ(result.latencies_s.size(), 10u);
  EXPECT_EQ(result.governor_step_downs, 0u);  // no rung to step to
  const trace::ExecutionTimeline& tl = result.timeline;
  EXPECT_GE(tl.governor_event_count(trace::GovernorEventKind::kAdmitDefer), 1u);
  EXPECT_GE(tl.governor_event_count(trace::GovernorEventKind::kAdmitResume), 1u);
  EXPECT_NEAR(attributed_sum_j(result), result.energy_j, 1e-9);
}

TEST(EngineGovernorTest, ThermalLoopStepsDownWhenHot) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  GovernorConfig gov;
  gov.thermal_enabled = true;
  gov.thermal = sim::ThermalParams::fanless_enclosure();
  // Hot start above the throttle threshold: the first observed step trips
  // the thermal descent.
  gov.initial_temp_c = gov.thermal.throttle_start_c + 5.0;

  SimTokenBackend backend(bc);
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 1000.0;
  arrivals.total_requests = 8;
  const EngineResult result =
      ContinuousPolicy(backend, gov).run(sim_request_stream(bc, arrivals));

  EXPECT_EQ(result.latencies_s.size(), 8u);
  const trace::ExecutionTimeline& tl = result.timeline;
  ASSERT_GE(tl.governor_event_count(trace::GovernorEventKind::kThermalStepDown), 1u);
  for (const trace::GovernorEvent& e : tl.governor_events()) {
    EXPECT_GT(e.temp_c, 0.0);  // thermal runs carry the junction estimate
  }
  EXPECT_GE(result.governor_step_downs, 1u);
}

TEST(EngineGovernorTest, DisabledGovernorLeavesScheduleAndTraceUntouched) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.total_requests = 16;

  SimTokenBackend plain(bc);
  const EngineResult baseline =
      ContinuousPolicy(plain).run(sim_request_stream(bc, arrivals));
  SimTokenBackend gated(bc);
  const EngineResult governed =
      ContinuousPolicy(gated, GovernorConfig{}).run(sim_request_stream(bc, arrivals));

  // Default config = governor off: byte-identical serialization, no events.
  EXPECT_EQ(baseline.governor_step_downs, 0u);
  EXPECT_EQ(governed.governor_step_downs, 0u);
  EXPECT_TRUE(governed.timeline.governor_events().empty());
  const std::string jsonl = trace::to_jsonl(governed.timeline);
  EXPECT_EQ(jsonl.find("governor"), std::string::npos);
  EXPECT_EQ(jsonl, trace::to_jsonl(baseline.timeline));
  EXPECT_EQ(trace::to_chrome_trace_json(governed.timeline),
            trace::to_chrome_trace_json(baseline.timeline));
}

// ---------------------------------------------------------------------------
// Functional backend (real decoding over the paged cache)
// ---------------------------------------------------------------------------

class FunctionalEngineTest : public ::testing::Test {
 protected:
  FunctionalEngineTest()
      : corpus_(workload::generate_corpus(workload::CorpusSpec::wikitext2())),
        tokenizer_(Tokenizer::train(corpus_.text, 400)),
        pool_(corpus_, tokenizer_, 256),
        master_(MasterWeights::init_random(
            make_nano_config("llama3", tokenizer_.vocab_size()), 17)) {}

  workload::Corpus corpus_;
  Tokenizer tokenizer_;
  workload::PromptPool pool_;
  std::shared_ptr<MasterWeights> master_;
};

// Every weight precision, with int8 KV for the quantized ones: a resume's
// one chunked prefill of prompt + output must rebuild the cache exactly as
// prefill and width-1 decode first wrote it.
struct PrecisionCase {
  DType dtype;
  KVStorage kv;
};
constexpr PrecisionCase kPrecisions[] = {{DType::kF32, KVStorage::kF32},
                                         {DType::kF16, KVStorage::kI8},
                                         {DType::kI8, KVStorage::kI8},
                                         {DType::kI4, KVStorage::kI8}};

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

// Both kernel levels: served output under preemption equals the no-pressure
// run and greedy Model::generate bit for bit.
TEST_F(FunctionalEngineTest, PreemptionRecomputeIsLossless) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  for (simd::Level level : levels) {
    ScopedLevel scoped(level);
    for (const PrecisionCase& p : kPrecisions) {
      SCOPED_TRACE(std::string(simd::level_name(level)) + " " + dtype_name(p.dtype));
      FunctionalEngineConfig cfg;
      cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
      cfg.arrivals.rate_rps = 1000.0;  // flood: all requests arrive near t=0
      cfg.arrivals.total_requests = 6;
      cfg.seq = workload::SeqConfig{24, 8, 16};
      cfg.backend.max_lanes = 3;
      cfg.backend.block_tokens = 4;
      cfg.backend.kv_storage = p.kv;

      // Baseline: unlimited pool, no preemption.
      const EngineResult baseline = run_functional_continuous(master_, p.dtype, pool_, cfg);
      EXPECT_EQ(baseline.preemptions, 0u);
      ASSERT_EQ(baseline.requests.size(), 6u);

      // Pressured: 3 lanes at 24 tokens need 18 blocks; 12 forces eviction.
      cfg.backend.kv_blocks = 12;
      const EngineResult pressured = run_functional_continuous(master_, p.dtype, pool_, cfg);
      EXPECT_GT(pressured.preemptions, 0u);
      ASSERT_EQ(pressured.requests.size(), 6u);

      std::vector<std::vector<TokenId>> prompts;
      for (const Request& r : pressured.requests) prompts.push_back(r.prompt);
      Model model(master_, p.dtype, p.kv);
      const Model::GenerateResult want = model.generate(prompts, 16);

      // Greedy decoding makes recompute-on-resume reproduce the interrupted
      // sequence exactly: token streams match the no-pressure run and
      // generate bit for bit.
      for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(pressured.requests[i].prompt, baseline.requests[i].prompt);
        EXPECT_EQ(pressured.requests[i].output, baseline.requests[i].output)
            << "request " << i;
        EXPECT_EQ(pressured.requests[i].output, want.outputs[i]) << "request " << i;
        EXPECT_EQ(pressured.requests[i].generated, 16u);
      }
    }
  }
}

TEST_F(FunctionalEngineTest, ParallelDecodeMatchesSerialUnderPreemption) {
  for (const PrecisionCase& p : kPrecisions) {
    SCOPED_TRACE(dtype_name(p.dtype));
    FunctionalEngineConfig cfg;
    cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
    cfg.arrivals.rate_rps = 1000.0;
    cfg.arrivals.total_requests = 6;
    cfg.seq = workload::SeqConfig{24, 8, 16};
    cfg.backend.max_lanes = 3;
    cfg.backend.block_tokens = 4;
    cfg.backend.kv_blocks = 12;
    cfg.backend.kv_storage = p.kv;

    const EngineResult serial = run_functional_continuous(master_, p.dtype, pool_, cfg);
    // Preemption *counts* are schedule-dependent (measured wall-clock drives
    // admission timing), but under a flooded queue every run must hit
    // pressure.
    EXPECT_GT(serial.preemptions, 0u);
    // A lane pool of 1, 2 and 4 workers shards each prefill wave (at most 3
    // lanes) over fewer shards than lanes, as many, and more.
    Model model(master_, p.dtype);
    for (std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ThreadPool lanes(workers);
      const EngineResult pooled = serve_on_lane_pool(model, cfg, serial.requests, &lanes);
      ASSERT_EQ(pooled.requests.size(), serial.requests.size());
      for (std::size_t i = 0; i < serial.requests.size(); ++i) {
        EXPECT_EQ(pooled.requests[i].output, serial.requests[i].output) << "request " << i;
      }
      EXPECT_GT(pooled.preemptions, 0u);
    }
  }
}

// A wave with more admissions than shards, prefilled in 4-token chunks: six
// requests due at t = 0 take six lanes in one wave, and a 1-worker lane pool
// (2 shards) hands them out from its shared counter, so both shards run
// chunked prefill at once (the TSan coverage of concurrent chunked
// prefill). Pooled, serial and generate agree bit for bit.
TEST_F(FunctionalEngineTest, PooledChunkedPrefillWaveMatchesSerial) {
  constexpr std::size_t kLanes = 6;
  FunctionalEngineConfig cfg;
  cfg.seq = workload::SeqConfig{24, 14, 10};
  cfg.backend.max_lanes = kLanes;
  cfg.backend.block_tokens = 4;
  Rng rng(9);
  const std::vector<std::vector<TokenId>> prompts =
      pool_.sample_batch(kLanes, cfg.seq.input, rng);
  std::vector<Request> requests(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    requests[i].prompt = prompts[i];
    requests[i].prompt_tokens = prompts[i].size();
    requests[i].max_new_tokens = cfg.seq.output;
  }

  for (const PrecisionCase& p : kPrecisions) {
    SCOPED_TRACE(dtype_name(p.dtype));
    cfg.backend.kv_storage = p.kv;
    Model model(master_, p.dtype, p.kv);
    model.set_prefill_chunk(4);
    const Model::GenerateResult want = model.generate(prompts, cfg.seq.output);
    const EngineResult serial = serve_on_lane_pool(model, cfg, requests, nullptr);
    ThreadPool lanes(1);
    const EngineResult pooled = serve_on_lane_pool(model, cfg, requests, &lanes);

    std::size_t first_wave = 0;
    for (const trace::StepEvent& ev : pooled.timeline.events()) {
      if (ev.phase == trace::Phase::kPrefill) {
        first_wave = ev.batch;
        break;
      }
    }
    EXPECT_EQ(first_wave, kLanes);
    ASSERT_GT(first_wave, lanes.shard_count());
    ASSERT_EQ(pooled.requests.size(), kLanes);
    ASSERT_EQ(serial.requests.size(), kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      EXPECT_EQ(pooled.requests[i].output, serial.requests[i].output) << "request " << i;
      EXPECT_EQ(pooled.requests[i].output, want.outputs[i]) << "request " << i;
    }
  }
}

// The served engine and Model::generate decode through the same step: eight
// prompts on eight lanes (full pool, no prefix cache) come out of
// ContinuousPolicy exactly as generate's greedy batch, at the active kernel
// level.
TEST_F(FunctionalEngineTest, ServedDecodeMatchesGenerate) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kNewTokens = 12;
  Rng rng(5);
  const std::vector<std::vector<TokenId>> prompts = pool_.sample_batch(kLanes, 20, rng);
  for (const PrecisionCase& p : {PrecisionCase{DType::kF32, KVStorage::kF32},
                                 PrecisionCase{DType::kI4, KVStorage::kI8}}) {
    SCOPED_TRACE(dtype_name(p.dtype));
    Model model(master_, p.dtype, p.kv);
    const Model::GenerateResult want = model.generate(prompts, kNewTokens);

    FunctionalTokenBackend::Config bc;
    bc.max_lanes = kLanes;
    bc.max_seq = 20 + kNewTokens;
    bc.kv_storage = p.kv;
    FunctionalTokenBackend backend(model, bc);
    std::vector<Request> requests(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      requests[i].prompt = prompts[i];
      requests[i].prompt_tokens = prompts[i].size();
      requests[i].max_new_tokens = kNewTokens;
    }
    const EngineResult served = ContinuousPolicy(backend).run(std::move(requests));
    ASSERT_EQ(served.requests.size(), kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      EXPECT_EQ(served.requests[i].output, want.outputs[i]) << "prompt " << i;
    }
  }
}

TEST_F(FunctionalEngineTest, PowerProxyAttributesEnergyAndConservesUnderPreemption) {
  FunctionalEngineConfig cfg;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = 1000.0;
  cfg.arrivals.total_requests = 6;
  cfg.seq = workload::SeqConfig{24, 8, 16};
  cfg.backend.max_lanes = 3;
  cfg.backend.block_tokens = 4;
  cfg.backend.kv_blocks = 12;  // oversubscribed: preemption under the proxy too

  // Without the proxy the measured engine has no board sensor: zero energy,
  // zero attribution, legacy serialization.
  const EngineResult plain = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_EQ(plain.energy_j, 0.0);
  for (const RequestMetrics& m : plain.request_metrics) EXPECT_EQ(m.energy_j, 0.0);
  // Legacy serialization: no sensor, every step exports "power_w":null.
  EXPECT_NE(trace::to_jsonl(plain.timeline).find("\"power_w\":null"), std::string::npos);

  // With the proxy every measured step carries the modeled wattage for the
  // paper-scale model; served traffic now has a conserved energy account.
  cfg.backend.power_proxy_model = "llama3";
  const EngineResult proxied = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  EXPECT_GT(proxied.preemptions, 0u);
  EXPECT_GT(proxied.energy_j, 0.0);
  ASSERT_EQ(proxied.request_metrics.size(), 6u);
  EXPECT_NEAR(attributed_sum_j(proxied), proxied.energy_j, 1e-9);
  for (const RequestMetrics& m : proxied.request_metrics) {
    EXPECT_GT(m.energy_j, 0.0);
    EXPECT_GT(m.energy_per_token_j, 0.0);
  }
  // The proxy only annotates: token streams stay bit-identical.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(proxied.requests[i].output, plain.requests[i].output) << "request " << i;
  }
  // The proxied signal feeds the jtop sampling pipeline.
  const telemetry::PowerSignal signal = proxied.timeline.power_signal();
  EXPECT_GT(signal.duration_s(), 0.0);
  EXPECT_NEAR(signal.exact_energy_j(), proxied.energy_j, 1e-9 * proxied.energy_j + 1e-12);
}

// The acceptance run: a 64-request Poisson stream on the real engine, lane
// count above what the block pool sustains at full sequence length, every
// request finishing via preemption + lossless resume, latencies and
// occupancy read off the one timeline.
TEST_F(FunctionalEngineTest, SixtyFourRequestPoissonRunWithOversubscribedPool) {
  FunctionalEngineConfig cfg;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = 1000.0;
  cfg.arrivals.total_requests = 64;
  cfg.seq = workload::SeqConfig{16, 8, 8};
  cfg.backend.max_lanes = 6;
  cfg.backend.block_tokens = 4;
  cfg.backend.kv_blocks = 16;  // holds only 4 full 16-token sequences

  // max_lanes exceeds the number of full sequences the pool holds —
  // reserving max_seq rows per lane up front could not even admit this
  // lane count.
  ASSERT_GT(cfg.backend.max_lanes, cfg.backend.kv_blocks * cfg.backend.block_tokens /
                                       (cfg.seq.input + cfg.seq.output));

  const EngineResult result = run_functional_continuous(master_, DType::kF32, pool_, cfg);

  ASSERT_EQ(result.latencies_s.size(), 64u);
  for (double lat : result.latencies_s) EXPECT_GT(lat, 0.0);
  EXPECT_GT(result.preemptions, 0u);
  for (const Request& r : result.requests) {
    EXPECT_EQ(r.state, RequestState::kFinished);
    EXPECT_EQ(r.output.size(), 8u);
  }
  EXPECT_GT(result.total_tokens, 0u);
  EXPECT_GT(result.throughput_tps(), 0.0);
  EXPECT_GT(result.mean_latency_s(), 0.0);
  EXPECT_GE(result.p95_latency_s(), result.mean_latency_s());

  // KV occupancy comes from the annotated StepEvents.
  EXPECT_GT(result.mean_kv_utilization, 0.0);
  EXPECT_LE(result.peak_kv_blocks, cfg.backend.kv_blocks);
  EXPECT_GT(result.peak_kv_blocks, 0u);
  EXPECT_GT(result.peak_kv_bytes, 0u);
  EXPECT_EQ(result.peak_kv_bytes % result.peak_kv_blocks, 0u);  // blocks * block_bytes
  EXPECT_NE(trace::to_jsonl(result.timeline).find("\"kv_blocks_used\""), std::string::npos);
  EXPECT_EQ(result.timeline.request_event_count(trace::RequestEventKind::kRetire), 64u);
  EXPECT_EQ(result.timeline.request_event_count(trace::RequestEventKind::kPreempt),
            result.preemptions);
}

// ---------------------------------------------------------------------------
// Steppable engine: submit/step/drain over the same scheduler core
// ---------------------------------------------------------------------------

TEST(EngineSteppableTest, StepLoopReproducesRunToCompletionExactly) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 8;
  bc.block_tokens = 16;
  bc.kv_blocks = 30;  // oversubscribed: schedule includes preemptions
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 8.0;
  arrivals.total_requests = 32;

  SimTokenBackend policy_backend(bc);
  const EngineResult via_policy =
      ContinuousPolicy(policy_backend).run(sim_request_stream(bc, arrivals));

  SimTokenBackend engine_backend(bc);
  ContinuousEngine engine(engine_backend);
  std::vector<Request> stream = sim_request_stream(bc, arrivals);
  for (Request& r : stream) engine.submit(std::move(r));
  std::size_t steps = 0;
  while (engine.step() == ContinuousEngine::Step::kWorked) ++steps;
  EXPECT_GT(steps, 0u);
  EXPECT_TRUE(engine.idle());
  const EngineResult via_steps = engine.finish();

  // Same scheduler core, two drivers: the executed schedules serialize to
  // byte-identical traces and the derived metrics agree exactly.
  EXPECT_EQ(trace::to_jsonl(via_steps.timeline), trace::to_jsonl(via_policy.timeline));
  EXPECT_EQ(via_steps.preemptions, via_policy.preemptions);
  EXPECT_DOUBLE_EQ(via_steps.makespan_s, via_policy.makespan_s);
  EXPECT_DOUBLE_EQ(via_steps.energy_j, via_policy.energy_j);
  ASSERT_EQ(via_steps.latencies_s.size(), via_policy.latencies_s.size());
  for (std::size_t i = 0; i < via_steps.latencies_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_steps.latencies_s[i], via_policy.latencies_s[i]);
  }
}

TEST(EngineSteppableTest, DrainRejectsNewWorkAndRetiresInFlight) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 4;
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.total_requests = 8;
  SimTokenBackend backend(bc);
  ContinuousEngine engine(backend);
  std::vector<Request> stream = sim_request_stream(bc, arrivals);
  for (Request& r : stream) engine.submit(std::move(r));

  // Let part of the work through, then drain mid-flight.
  for (int i = 0; i < 3; ++i) engine.step();
  EXPECT_GT(engine.active_count() + engine.queue_depth(), 0u);
  engine.drain();
  EXPECT_TRUE(engine.draining());
  EXPECT_FALSE(engine.drained());

  // No admissions past the drain point...
  Request late;
  late.prompt_tokens = bc.seq.input;
  late.max_new_tokens = bc.seq.output;
  EXPECT_EQ(engine.submit(std::move(late)), ContinuousEngine::kRejected);
  EXPECT_EQ(engine.submitted_count(), 8u);

  // ...but everything in flight runs to retirement: zero dropped requests.
  while (engine.step() == ContinuousEngine::Step::kWorked) {
  }
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.retired_count(), 8u);

  const EngineResult result = engine.finish();
  ASSERT_EQ(result.requests.size(), 8u);
  for (const Request& r : result.requests) {
    EXPECT_EQ(r.state, RequestState::kFinished);
  }
  // Energy attribution still conserves over the drained schedule.
  EXPECT_GT(result.energy_j, 0.0);
  EXPECT_NEAR(attributed_sum_j(result), result.energy_j, 1e-9);
}

TEST(EngineSteppableTest, SecondDrainIsANoOp) {
  SimTokenBackend::Config bc;
  bc.max_concurrency = 4;
  workload::ArrivalConfig arrivals;
  arrivals.total_requests = 4;
  SimTokenBackend backend(bc);
  ContinuousEngine engine(backend);
  std::vector<Request> stream = sim_request_stream(bc, arrivals);
  for (Request& r : stream) engine.submit(std::move(r));

  engine.drain();
  engine.drain();  // idempotent
  while (engine.step() == ContinuousEngine::Step::kWorked) {
  }
  EXPECT_TRUE(engine.drained());
  engine.drain();  // still a no-op after the queue emptied
  EXPECT_TRUE(engine.drained());
  EXPECT_EQ(engine.retired_count(), 4u);
  EXPECT_EQ(engine.step(), ContinuousEngine::Step::kIdle);
}

TEST_F(FunctionalEngineTest, StreamCallbacksDeliverEveryTokenOnceUnderPreemption) {
  // Same pressured setup as PreemptionRecomputeIsLossless: recompute waves
  // regenerate recorded tokens internally, but the streamed sequence must
  // contain each token exactly once, in order, with on_finish after the
  // last on_token.
  Rng rng(99);
  const std::vector<std::vector<TokenId>> prompts = pool_.sample_batch(6, 24, rng);
  Model model(master_, DType::kF32);
  FunctionalTokenBackend::Config bc;
  bc.max_lanes = 3;
  bc.max_seq = 40;
  bc.block_tokens = 4;
  bc.kv_blocks = 12;
  FunctionalTokenBackend backend(model, bc);

  ContinuousEngine engine(backend);
  std::vector<std::vector<TokenId>> streamed(6);
  std::vector<std::size_t> finishes(6, 0);
  for (std::size_t i = 0; i < 6; ++i) {
    Request r;
    r.prompt = prompts[i];
    r.prompt_tokens = prompts[i].size();
    r.max_new_tokens = 16;
    StreamCallbacks cb;
    cb.on_token = [&streamed, i](const Request&, TokenId token) {
      streamed[i].push_back(token);
    };
    cb.on_finish = [&streamed, &finishes, i](const Request& req) {
      ++finishes[i];
      EXPECT_EQ(streamed[i].size(), req.generated);  // after the last token
    };
    engine.submit(std::move(r), std::move(cb));
  }
  while (engine.step() == ContinuousEngine::Step::kWorked) {
  }
  const EngineResult result = engine.finish();

  EXPECT_GT(result.preemptions, 0u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(finishes[i], 1u);
    EXPECT_EQ(streamed[i], result.requests[i].output) << "request " << i;
    EXPECT_EQ(streamed[i].size(), 16u);
  }
}

// What a request's callbacks own (a served request's stream) is freed when
// the request retires, not when the engine is destroyed: a daemon's memory
// must not grow with every finished request's stream. The short request
// retires while the long one still runs.
TEST_F(FunctionalEngineTest, RetiredRequestCallbacksAreReleased) {
  Rng rng(3);
  const std::vector<std::vector<TokenId>> prompts = pool_.sample_batch(2, 12, rng);
  Model model(master_, DType::kF32);
  FunctionalTokenBackend::Config bc;
  bc.max_lanes = 2;
  bc.max_seq = 24;
  FunctionalTokenBackend backend(model, bc);
  ContinuousEngine engine(backend);

  const std::size_t max_new[] = {2, 8};
  std::vector<std::shared_ptr<int>> sentinels;  // each counts its tokens
  std::vector<int> finished_after = {-1, -1};     // tokens seen at on_finish
  for (std::size_t i = 0; i < 2; ++i) {
    sentinels.push_back(std::make_shared<int>(0));
    Request r;
    r.prompt = prompts[i];
    r.prompt_tokens = prompts[i].size();
    r.max_new_tokens = max_new[i];
    StreamCallbacks cb;
    cb.on_token = [sentinel = sentinels[i]](const Request&, TokenId) { ++*sentinel; };
    cb.on_finish = [sentinel = sentinels[i], &finished_after, i](const Request&) {
      finished_after[i] = *sentinel;
    };
    engine.submit(std::move(r), std::move(cb));
    EXPECT_EQ(sentinels[i].use_count(), 3);  // the test plus both callbacks
  }
  while (finished_after[0] < 0) {
    ASSERT_EQ(engine.step(), ContinuousEngine::Step::kWorked);
  }
  EXPECT_EQ(finished_after[1], -1);
  EXPECT_EQ(sentinels[0].use_count(), 1);
  EXPECT_EQ(sentinels[1].use_count(), 3);
  while (engine.step() == ContinuousEngine::Step::kWorked) {
  }
  EXPECT_EQ(sentinels[1].use_count(), 1);
  EXPECT_EQ(finished_after[0], 2);
  EXPECT_EQ(finished_after[1], 8);
  engine.finish();
}

}  // namespace
}  // namespace orinsim::serving
