// Per-layer metrics of a traced run, from the TimingBackend records and
// (for served workloads) the client's own timestamps joined per request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "driver/load_gen.h"
#include "driver/report.h"
#include "driver/timing_backend.h"

namespace perfbench {

struct LayerInputs {
  const TimingBackend::Records* records = nullptr;
  // Served runs: the client's records and the token hash of the prompt each
  // one sent (same order). Empty for in-process runs.
  const std::vector<ClientRecord>* client = nullptr;
  std::vector<std::uint64_t> client_prompt_hash;
  std::size_t rejected = 0;     // 429/503 responses
  std::size_t conn_errors = 0;  // socket errors
  double wall_s = 0.0;          // measured window the engine was offered work in
  std::size_t weight_bytes = 0;  // Model::weight_bytes()
  std::size_t block_tokens = 0;  // KV block size in tokens
};

struct LayerReport {
  JsonObject metrics;        // every per-layer metric, by name
  JsonObject decomposition;  // TTFT parts vs the client's TTFT (served only)
  // For each tail metric, its sample count and the percentile it reports:
  // the named one, or the highest below it that the samples support.
  JsonObject tails;
};

LayerReport layer_metrics(const LayerInputs& in);

}  // namespace perfbench
