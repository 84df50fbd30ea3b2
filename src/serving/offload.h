// Edge-cloud offload: the coupling of edge inferencing with cloud endpoints
// that the paper's conclusion points to as future work.
//
// A CloudEndpoint models a hosted LLM API (network RTT + uplink transfer +
// provider queue + prefill/decode service rates + per-token price). The
// routing itself is part of the static-batching policy
// (StaticBatchPolicy::Offload in serving/engine.h): at each dispatch an
// OffloadPolicy may send requests to the cloud instead of the edge batch,
//
//   kEdgeOnly / kCloudOnly : baselines
//   kQueueDepth            : overflow to the cloud when more than
//                            `queue_threshold` requests are waiting
//   kLatencyThreshold      : route to the cloud when the predicted edge
//                            completion time exceeds `latency_slo_s`
//
// and the run's EngineResult keeps edge energy (joules) separate from
// cloud work (unpowered kOffload events), so the trade-off the paper
// motivates — privacy/cost vs latency — is quantified per policy.
#pragma once

#include <cstddef>
#include <string>

namespace orinsim::serving {

struct CloudEndpoint {
  std::string name = "hosted-llm-api";
  double rtt_s = 0.08;                  // network round trip
  double uplink_mbps = 20.0;            // edge uplink for the prompt payload
  double provider_queue_s = 0.2;        // queuing/admission on the provider side
  double prefill_tps = 8000.0;          // prompt tokens/s
  double decode_tps = 60.0;             // generated tokens/s per stream
  double usd_per_1k_tokens = 0.02;      // blended in+out price
  double bytes_per_token = 4.0;         // prompt wire size

  // End-to-end latency and cost of one request (in prompt tokens, out
  // generated tokens). Cloud capacity is modeled as elastic (no edge-side
  // queueing for cloud requests).
  double request_latency_s(std::size_t in_tokens, std::size_t out_tokens) const;
  double request_cost_usd(std::size_t in_tokens, std::size_t out_tokens) const;
};

enum class OffloadPolicy { kEdgeOnly, kCloudOnly, kQueueDepth, kLatencyThreshold };

std::string offload_policy_name(OffloadPolicy policy);

}  // namespace orinsim::serving
