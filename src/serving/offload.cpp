#include "serving/offload.h"

namespace orinsim::serving {

double CloudEndpoint::request_latency_s(std::size_t in_tokens,
                                        std::size_t out_tokens) const {
  const double upload_bits = static_cast<double>(in_tokens) * bytes_per_token * 8.0;
  const double upload_s = upload_bits / (uplink_mbps * 1e6);
  const double prefill_s = static_cast<double>(in_tokens) / prefill_tps;
  const double decode_s = static_cast<double>(out_tokens) / decode_tps;
  return rtt_s + upload_s + provider_queue_s + prefill_s + decode_s;
}

double CloudEndpoint::request_cost_usd(std::size_t in_tokens,
                                       std::size_t out_tokens) const {
  return static_cast<double>(in_tokens + out_tokens) / 1000.0 * usd_per_1k_tokens;
}

std::string offload_policy_name(OffloadPolicy policy) {
  switch (policy) {
    case OffloadPolicy::kEdgeOnly:
      return "edge-only";
    case OffloadPolicy::kCloudOnly:
      return "cloud-only";
    case OffloadPolicy::kQueueDepth:
      return "queue-depth";
    case OffloadPolicy::kLatencyThreshold:
      return "latency-threshold";
  }
  return "?";
}

}  // namespace orinsim::serving
