// Shared helper for the pooled == serial pins of the serving tests. A
// prefill lane pool enters the engine in one place, the
// FunctionalTokenBackend constructor; this serves a run's requests through
// that constructor under ContinuousPolicy, as perfbench's offline workload
// does.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "model/transformer.h"
#include "serving/engine.h"

namespace orinsim::serving {

// Serves fresh copies of `like` (arrival times, prompts, lengths) through
// FunctionalTokenBackend(model, config.backend, lanes, draft), max_seq set
// as run_functional_continuous sets it. `lanes` nullptr: serial prefill
// waves. `draft` is required iff config.backend.speculation.enabled.
inline EngineResult serve_on_lane_pool(Model& model, const FunctionalEngineConfig& config,
                                       const std::vector<Request>& like, ThreadPool* lanes,
                                       Model* draft = nullptr) {
  FunctionalTokenBackend::Config bc = config.backend;
  bc.max_seq = config.seq.input + config.seq.output;
  FunctionalTokenBackend backend(model, bc, lanes, draft);
  std::vector<Request> requests(like.size());
  for (std::size_t i = 0; i < like.size(); ++i) {
    requests[i].arrival_s = like[i].arrival_s;
    requests[i].prompt = like[i].prompt;
    requests[i].prompt_tokens = like[i].prompt_tokens;
    requests[i].max_new_tokens = like[i].max_new_tokens;
  }
  return ContinuousPolicy(backend, config.governor).run(std::move(requests));
}

}  // namespace orinsim::serving
