// The paper's static batching through StaticBatchPolicy, and the edge-cloud
// offload routing it carries (serving/offload.h).
#include <gtest/gtest.h>

#include "serving/engine.h"
#include "workload/arrivals.h"

namespace orinsim::serving {
namespace {

const workload::SeqConfig kSeq = workload::seq_config_default();

std::vector<Request> stream(double rps, std::size_t count) {
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = rps;
  arrivals.total_requests = count;
  return requests_from_arrivals(arrivals.generate(), kSeq);
}

EngineResult run_static(InferenceBackend& backend, std::size_t max_batch,
                        std::vector<Request> requests,
                        StaticBatchPolicy::Offload offload = {}) {
  return StaticBatchPolicy(backend, max_batch, kSeq, offload).run(std::move(requests));
}

std::size_t cloud_requests(const EngineResult& r) {
  return r.timeline.count(trace::Phase::kOffload);
}

TEST(BatchSchedulerTest, AllRequestsServed) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const EngineResult r = run_static(session, 8, stream(4.0, 32));
  ASSERT_EQ(r.timeline.requests().size(), 32u);
  for (const trace::RequestRecord& rec : r.timeline.requests()) {
    EXPECT_GE(rec.start_s, rec.arrival_s);
    EXPECT_GT(rec.finish_s, rec.start_s);
  }
  for (const Request& rq : r.requests) EXPECT_EQ(rq.state, RequestState::kFinished);
  EXPECT_GT(r.decode_steps, 0u);
  EXPECT_GT(r.energy_j, 0.0);
}

TEST(BatchSchedulerTest, LargerMaxBatchFewerBatches) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const EngineResult small = run_static(session, 2, stream(4.0, 32));
  const EngineResult large = run_static(session, 16, stream(4.0, 32));
  EXPECT_GT(small.decode_steps, large.decode_steps);
}

TEST(BatchSchedulerTest, HigherArrivalRateRaisesOccupancy) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  // Trickle: batches mostly run singly. Flood: batches fill to max.
  const EngineResult slow = run_static(session, 8, stream(0.05, 32));
  const EngineResult fast = run_static(session, 8, stream(50.0, 32));
  EXPECT_GT(fast.timeline.mean_batch(trace::Phase::kDecode),
            slow.timeline.mean_batch(trace::Phase::kDecode));
}

TEST(BatchSchedulerTest, LatencyStatsOrdered) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const EngineResult r = run_static(session, 8, stream(4.0, 32));
  EXPECT_GT(r.mean_latency_s(), 0.0);
  EXPECT_GE(r.p95_latency_s(), r.mean_latency_s() * 0.5);
  EXPECT_GT(r.throughput_tps(), 0.0);
}

TEST(BatchSchedulerTest, InvalidConfigsRejected) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  EXPECT_THROW(run_static(session, 0, stream(4.0, 32)), ContractViolation);
  EXPECT_THROW(run_static(session, 8, {}), ContractViolation);
}

TEST(BatchSchedulerTest, OomConfigRejected) {
  SimSession session("deepseek-qwen", DType::kF16, workload::Dataset::kWikiText2);
  EXPECT_THROW(run_static(session, 8, stream(4.0, 32)), ContractViolation);
}

// The policy numbers requests by position: caller ids that are not 0..n-1
// in order must not re-attribute latencies or per-request energy.
TEST(BatchSchedulerTest, CallerIdsDoNotReorderAttribution) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const EngineResult indexed = run_static(session, 4, stream(2.0, 8));
  std::vector<Request> reversed = stream(2.0, 8);
  for (std::size_t i = 0; i < reversed.size(); ++i) {
    reversed[i].id = reversed.size() - 1 - i;
  }
  const EngineResult r = run_static(session, 4, std::move(reversed));

  EXPECT_EQ(r.latencies_s, indexed.latencies_s);
  EXPECT_EQ(r.p95_latency_s(), indexed.p95_latency_s());
  ASSERT_EQ(r.request_metrics.size(), indexed.request_metrics.size());
  for (std::size_t i = 0; i < r.request_metrics.size(); ++i) {
    EXPECT_EQ(r.request_metrics[i].energy_j, indexed.request_metrics[i].energy_j) << i;
    EXPECT_EQ(r.request_metrics[i].avg_power_w, indexed.request_metrics[i].avg_power_w)
        << i;
    EXPECT_EQ(r.requests[i].id, i);
  }
}

TEST(BatchSchedulerArrivalsTest, PoissonStreamServed) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  workload::ArrivalSpec spec;
  spec.kind = workload::ArrivalKind::kPoisson;
  spec.rate_rps = 4.0;
  const auto arrivals = workload::generate_arrivals(spec, 32);
  const EngineResult r = run_static(session, 8, requests_from_arrivals(arrivals, kSeq));
  ASSERT_EQ(r.timeline.requests().size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    const trace::RequestRecord& rec = r.timeline.requests()[i];
    EXPECT_DOUBLE_EQ(rec.arrival_s, arrivals[i]);
    EXPECT_GE(rec.start_s, rec.arrival_s);
  }
}

TEST(BatchSchedulerArrivalsTest, BurstyTailWorseThanDeterministic) {
  // Same mean rate: the bursty stream's p95 latency must be no better than
  // the evenly spaced one (queueing theory's basic lesson).
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  const EngineResult even = run_static(session, 8, stream(3.0, 64));

  workload::ArrivalSpec spec;
  spec.kind = workload::ArrivalKind::kBursty;
  spec.rate_rps = 3.0;
  spec.burst_factor = 8.0;
  const EngineResult bursty = run_static(
      session, 8, requests_from_arrivals(workload::generate_arrivals(spec, 64), kSeq));
  EXPECT_GE(bursty.p95_latency_s(), even.p95_latency_s() * 0.9);
}

TEST(BatchSchedulerArrivalsTest, DecreasingArrivalsRejected) {
  SimSession session("llama3", DType::kF16, workload::Dataset::kWikiText2);
  EXPECT_THROW(run_static(session, 32, requests_from_arrivals({1.0, 0.5}, kSeq)),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Edge-cloud offload
// ---------------------------------------------------------------------------

class OffloadTest : public ::testing::Test {
 protected:
  OffloadTest() : session_("llama3", DType::kF16, workload::Dataset::kWikiText2) {}

  EngineResult run(OffloadPolicy policy, double rps = 4.0) {
    offload_.policy = policy;
    return run_static(session_, 16, stream(rps, 48), offload_);
  }

  SimSession session_;
  StaticBatchPolicy::Offload offload_;
};

TEST_F(OffloadTest, CloudEndpointLatencyComposition) {
  CloudEndpoint ep;
  const double latency = ep.request_latency_s(32, 64);
  // At least RTT + provider queue + decode time.
  EXPECT_GT(latency, ep.rtt_s + ep.provider_queue_s + 64.0 / ep.decode_tps - 1e-9);
  EXPECT_LT(latency, 5.0);
}

TEST_F(OffloadTest, CloudCostPerToken) {
  CloudEndpoint ep;
  ep.usd_per_1k_tokens = 0.02;
  EXPECT_NEAR(ep.request_cost_usd(500, 500), 0.02, 1e-12);
}

TEST_F(OffloadTest, EdgeOnlyUsesNoCloud) {
  const EngineResult r = run(OffloadPolicy::kEdgeOnly);
  EXPECT_EQ(cloud_requests(r), 0u);
  EXPECT_EQ(r.latencies_s.size(), 48u);
  EXPECT_GT(r.energy_j, 0.0);
}

TEST_F(OffloadTest, CloudOnlyUsesNoEdge) {
  const EngineResult r = run(OffloadPolicy::kCloudOnly);
  EXPECT_EQ(r.decode_steps, 0u);
  EXPECT_EQ(cloud_requests(r), 48u);
  EXPECT_EQ(r.energy_j, 0.0);
  EXPECT_EQ(r.latencies_s.size(), 48u);
}

TEST_F(OffloadTest, QueueDepthSpillsUnderLoad) {
  offload_.queue_threshold = 4;
  const EngineResult r = run(OffloadPolicy::kQueueDepth, /*rps=*/50.0);  // flood
  EXPECT_GT(cloud_requests(r), 0u);
  EXPECT_GT(r.decode_steps, 0u);
  EXPECT_EQ(r.latencies_s.size(), 48u);
}

TEST_F(OffloadTest, QueueDepthIdleStaysOnEdge) {
  offload_.queue_threshold = 16;
  const EngineResult r = run(OffloadPolicy::kQueueDepth, /*rps=*/0.05);  // trickle
  EXPECT_EQ(cloud_requests(r), 0u);
}

TEST_F(OffloadTest, HybridImprovesTailLatencyUnderLoad) {
  const EngineResult edge = run(OffloadPolicy::kEdgeOnly, 20.0);
  offload_.queue_threshold = 8;
  const EngineResult hybrid = run(OffloadPolicy::kQueueDepth, 20.0);
  EXPECT_LT(hybrid.p95_latency_s(), edge.p95_latency_s());
  EXPECT_GT(cloud_requests(hybrid), 0u);
}

TEST_F(OffloadTest, LatencyThresholdRoutesWhenSloUnreachable) {
  offload_.latency_slo_s = 1.0;  // unreachable on the edge (batch takes ~10s)
  const EngineResult r = run(OffloadPolicy::kLatencyThreshold);
  EXPECT_EQ(r.decode_steps, 0u);
  EXPECT_EQ(cloud_requests(r), 48u);
}

TEST_F(OffloadTest, LatencyThresholdKeepsEdgeWhenRelaxed) {
  offload_.latency_slo_s = 1e6;
  const EngineResult r = run(OffloadPolicy::kLatencyThreshold);
  EXPECT_EQ(cloud_requests(r), 0u);
}

TEST_F(OffloadTest, PolicyNames) {
  EXPECT_EQ(offload_policy_name(OffloadPolicy::kEdgeOnly), "edge-only");
  EXPECT_EQ(offload_policy_name(OffloadPolicy::kQueueDepth), "queue-depth");
}

}  // namespace
}  // namespace orinsim::serving
