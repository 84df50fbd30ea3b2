// Inference sessions: one uniform interface over the two execution backends.
//
//  - SimSession runs paper-scale models (2.7B-32.8B) on the calibrated Orin
//    AGX simulator and reports the paper's metrics (latency, throughput,
//    incremental memory, median power, energy).
//  - FunctionalSession runs nano-scale models on the real C++ engine and
//    reports genuinely measured wall-clock metrics (no power: this host has
//    no board sensor; the simulator owns power).
//
// Both consume workload::PromptPool batches so experiments share one
// workload definition.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "model/transformer.h"
#include "sim/inference_sim.h"
#include "trace/timeline.h"
#include "workload/corpus.h"
#include "workload/prompt_pool.h"

namespace orinsim::serving {

struct BatchRequest {
  std::size_t batch = 32;
  workload::SeqConfig seq = workload::seq_config_default();
};

struct BatchResult {
  bool oom = false;
  double latency_s = 0.0;
  double throughput_tps = 0.0;
  double incremental_ram_gb = 0.0;
  double total_ram_gb = 0.0;
  double median_power_w = 0.0;  // simulator only
  double energy_j = 0.0;        // simulator only
};

// The polymorphic execution backend the serving/harness/bench layers program
// against: run one batch, optionally emitting its StepEvents (t = 0-based)
// into a caller-provided timeline. SimSession emits modeled events with
// power; FunctionalSession emits measured wall-clock events with power unset.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  virtual BatchResult execute(const BatchRequest& request,
                              trace::ExecutionTimeline* timeline = nullptr) = 0;
  virtual std::string backend_name() const = 0;
};

// Dataset-level latency factor: the paper measures LongBench ~4% faster than
// WikiText2 on identical configs (Tables 4 vs 5) and attributes it to
// dataset/model-specific factors and measurement variation.
double dataset_latency_scale(workload::Dataset dataset);

class SimSession : public InferenceBackend {
 public:
  SimSession(std::string model_key, DType dtype, workload::Dataset dataset,
             sim::PowerMode power_mode = sim::power_mode_maxn(), std::uint64_t seed = 7);

  // If `timeline` is non-null, the run's modeled event stream (setup,
  // prefill, per-token decode, with power) is appended to it.
  BatchResult run(const BatchRequest& request,
                  trace::ExecutionTimeline* timeline = nullptr) const;

  BatchResult execute(const BatchRequest& request,
                      trace::ExecutionTimeline* timeline = nullptr) override {
    return run(request, timeline);
  }
  std::string backend_name() const override { return "sim:" + model_key_; }

  const sim::ModelSpec& model() const;
  DType dtype() const noexcept { return dtype_; }

 private:
  std::string model_key_;
  DType dtype_;
  workload::Dataset dataset_;
  sim::PowerMode power_mode_;
  std::uint64_t seed_;
  sim::InferenceSim sim_;
};

class FunctionalSession : public InferenceBackend {
 public:
  // The session owns a Model view of `master` at `dtype` and samples prompts
  // from `pool` (both must outlive the session); generation runs serially,
  // with the kernels' rows fanned out on kernel_pool().
  FunctionalSession(std::shared_ptr<const MasterWeights> master, DType dtype,
                    const workload::PromptPool& pool, std::uint64_t seed = 11);

  // Runs one real batched generation and measures wall-clock metrics. A
  // non-null `timeline` receives measured StepEvents (power unset).
  BatchResult run(const BatchRequest& request,
                  trace::ExecutionTimeline* timeline = nullptr);

  BatchResult execute(const BatchRequest& request,
                      trace::ExecutionTimeline* timeline = nullptr) override {
    return run(request, timeline);
  }
  std::string backend_name() const override { return "functional"; }

  Model& model() noexcept { return model_; }

 private:
  Model model_;
  const workload::PromptPool& pool_;
  Rng rng_;
};

}  // namespace orinsim::serving
