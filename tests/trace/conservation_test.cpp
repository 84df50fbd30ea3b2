// Trace-conservation properties: every metric the simulators report must be
// re-derivable from their StepEvent stream, and the stream itself must be
// gap-free (durations sum to the makespan). These are the invariants that
// make the timeline the single source of truth.
#include <gtest/gtest.h>

#include <algorithm>

#include "serving/engine.h"
#include "sim/inference_sim.h"
#include "sim/speculative_sim.h"
#include "trace/timeline.h"

namespace orinsim {
namespace {

constexpr double kRelTol = 1e-9;

void expect_near_rel(double actual, double expected) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * kRelTol + 1e-12);
}

std::vector<serving::Request> deterministic_stream(double rps, std::size_t count) {
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = rps;
  arrivals.total_requests = count;
  return serving::requests_from_arrivals(arrivals.generate(),
                                         workload::seq_config_default());
}

serving::EngineResult run_static(std::size_t max_batch, double rps, std::size_t count,
                                 serving::StaticBatchPolicy::Offload offload = {}) {
  serving::SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  return serving::StaticBatchPolicy(session, max_batch, workload::seq_config_default(),
                                    offload)
      .run(deterministic_stream(rps, count));
}

TEST(TraceConservationTest, SimRunDurationsSumToLatency) {
  sim::InferenceSim simulator;
  sim::SimRequest rq;
  rq.model_key = "llama3";
  rq.dtype = DType::kF16;
  rq.batch = 32;
  rq.noise_sigma = 0.0;  // exact mode: reported latency == modeled schedule
  rq.runs = 1;
  const sim::SimResult r = simulator.run(rq);
  ASSERT_FALSE(r.oom);
  const trace::ExecutionTimeline& tl = r.timeline;
  // setup + prefill + one event per output token
  EXPECT_EQ(tl.events().size(), 2u + rq.out_tokens);
  // Sequential, gap-free: durations sum to the makespan.
  expect_near_rel(tl.duration_sum_s(), tl.makespan_s());
  // Every event is powered, so the power signal spans the whole run and the
  // reported exact-mode latency equals the event-duration sum.
  EXPECT_DOUBLE_EQ(tl.power_signal().duration_s(), tl.duration_sum_s());
  EXPECT_DOUBLE_EQ(r.latency_s, tl.duration_sum_s());
  // Timeline energy == exact integral of the derived power signal.
  expect_near_rel(tl.total_energy_j(), tl.power_signal().exact_energy_j());
  // Phase view: prefill time + decode time + setup time == latency.
  expect_near_rel(tl.phase_time_s(trace::Phase::kSetup) +
                      tl.phase_time_s(trace::Phase::kPrefill) +
                      tl.phase_time_s(trace::Phase::kDecode),
                  r.latency_s);
}

TEST(TraceConservationTest, SchedulerMetricsMatchTimeline) {
  const serving::EngineResult r = run_static(8, 4.0, 32);
  const trace::ExecutionTimeline& tl = r.timeline;

  // Gap-free device schedule: stalls + batches tile the makespan.
  expect_near_rel(tl.duration_sum_s(), r.makespan_s);
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), r.energy_j);
  EXPECT_EQ(tl.count(trace::Phase::kDecode), r.decode_steps);

  // Request bookkeeping is consistent between views.
  ASSERT_EQ(tl.requests().size(), r.requests.size());
  ASSERT_EQ(r.latencies_s.size(), r.requests.size());
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(tl.requests()[i].latency_s(), r.latencies_s[i]);
  }
  const trace::LatencySummary summary = tl.latency_summary();
  EXPECT_DOUBLE_EQ(summary.mean_s, r.mean_latency_s());
  EXPECT_DOUBLE_EQ(summary.p95_s, r.p95_latency_s());
}

TEST(TraceConservationTest, ContinuousMetricsMatchTimeline) {
  serving::SimTokenBackend::Config bc;
  bc.max_concurrency = 16;
  serving::SimTokenBackend backend(bc);
  const serving::EngineResult r =
      serving::ContinuousPolicy(backend).run(deterministic_stream(2.0, 32));
  const trace::ExecutionTimeline& tl = r.timeline;

  expect_near_rel(tl.duration_sum_s(), r.makespan_s);
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), r.energy_j);
  expect_near_rel(tl.total_energy_j(), tl.power_signal().exact_energy_j());
  EXPECT_EQ(tl.count(trace::Phase::kDecode), r.decode_steps);
  EXPECT_DOUBLE_EQ(tl.time_weighted_batch(), r.mean_active);
  ASSERT_EQ(tl.request_latencies().size(), r.latencies_s.size());
}

TEST(TraceConservationTest, HybridEdgeOnlyMatchesStaticScheduler) {
  // Offload routing that never fires must reproduce plain static batching
  // exactly: kEdgeOnly, a queue-depth threshold above any queue, and an SLO
  // no batch can miss all emit the same event stream.
  const serving::EngineResult stat = run_static(16, 4.0, 48);
  serving::StaticBatchPolicy::Offload quiet_queue;
  quiet_queue.policy = serving::OffloadPolicy::kQueueDepth;
  quiet_queue.queue_threshold = 48;
  serving::StaticBatchPolicy::Offload quiet_slo;
  quiet_slo.policy = serving::OffloadPolicy::kLatencyThreshold;
  quiet_slo.latency_slo_s = 1e9;
  for (const auto& offload :
       {serving::StaticBatchPolicy::Offload{}, quiet_queue, quiet_slo}) {
    const serving::EngineResult hybrid = run_static(16, 4.0, 48, offload);
    EXPECT_EQ(hybrid.timeline.count(trace::Phase::kOffload), 0u);
    EXPECT_EQ(hybrid.latencies_s, stat.latencies_s);
    EXPECT_EQ(hybrid.energy_j, stat.energy_j);
    EXPECT_EQ(hybrid.makespan_s, stat.makespan_s);
    EXPECT_EQ(hybrid.decode_steps, stat.decode_steps);
  }
}

TEST(TraceConservationTest, HybridCloudEventsOverlapOffDevice) {
  serving::StaticBatchPolicy::Offload offload;
  offload.policy = serving::OffloadPolicy::kQueueDepth;
  offload.queue_threshold = 4;
  const serving::EngineResult r = run_static(16, 50.0, 48, offload);  // flood -> spill
  const trace::ExecutionTimeline& tl = r.timeline;

  const std::size_t cloud = tl.count(trace::Phase::kOffload);
  ASSERT_GT(cloud, 0u);
  EXPECT_EQ(r.latencies_s.size(), 48u);
  // Offload events carry no power: the edge energy is the powered subset.
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), r.energy_j);
  double cloud_end = 0.0;
  for (const auto& e : tl.events()) {
    if (e.phase != trace::Phase::kOffload) continue;
    EXPECT_FALSE(e.has_power());
    cloud_end = std::max(cloud_end, e.t_end_s());
  }
  // Cloud work overlaps the device: it sits off the sequential cursor, so
  // the event durations exceed the makespan, and the makespan covers both
  // tracks.
  EXPECT_GT(tl.duration_sum_s(), r.makespan_s);
  EXPECT_GE(r.makespan_s, tl.now());
  EXPECT_GE(r.makespan_s, cloud_end);
  EXPECT_EQ(r.makespan_s, tl.makespan_s());
}

TEST(TraceConservationTest, SpeculativeRoundTimelineSumsToRoundCost) {
  const std::size_t draft_tokens = 4;
  const sim::SpeculativeEstimate est = sim::estimate_speculative_speedup(
      sim::model_by_key("llama3"), DType::kF16, sim::model_by_key("phi2"),
      DType::kF16, draft_tokens, 0.7);
  const trace::ExecutionTimeline& tl = est.round_timeline;
  EXPECT_EQ(tl.count(trace::Phase::kDraft), draft_tokens);
  EXPECT_EQ(tl.count(trace::Phase::kVerify), 1u);
  expect_near_rel(tl.duration_sum_s(), est.round_cost_s);
}

TEST(TraceConservationTest, FunctionalBackendEmitsUnpoweredEvents) {
  // The functional engine measures wall-clock steps; it has no power sensor,
  // so its events must never claim energy.
  workload::CorpusSpec spec = workload::CorpusSpec::wikitext2(77);
  spec.paragraphs = 20;
  const workload::Corpus corpus = workload::generate_corpus(spec);
  const Tokenizer tok = Tokenizer::train(corpus.text, 400);
  const auto master = MasterWeights::init_random(
      make_nano_config("llama3", tok.vocab_size()), 303);
  workload::PromptPool pool(corpus, tok, 16);
  serving::FunctionalSession session(master, DType::kF32, pool);

  trace::ExecutionTimeline tl;
  serving::BatchRequest rq;
  rq.batch = 2;
  rq.seq.input = 8;
  rq.seq.output = 4;
  rq.seq.total = 12;
  const serving::BatchResult r = session.run(rq, &tl);
  ASSERT_FALSE(r.oom);
  EXPECT_EQ(tl.count(trace::Phase::kPrefill), 1u);
  EXPECT_EQ(tl.count(trace::Phase::kDecode), rq.seq.output);
  EXPECT_DOUBLE_EQ(tl.total_energy_j(), 0.0);
  for (const auto& e : tl.events()) EXPECT_FALSE(e.has_power());
  // Measured wall-clock events cover real time.
  EXPECT_GT(tl.duration_sum_s(), 0.0);
  EXPECT_LE(tl.duration_sum_s(), r.latency_s + 1e-3);
}

}  // namespace
}  // namespace orinsim
