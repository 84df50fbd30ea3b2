#include "serving/session.h"

#include "core/error.h"
#include "core/stopwatch.h"
#include "serving/metrics.h"

namespace orinsim::serving {

double dataset_latency_scale(workload::Dataset dataset) {
  return dataset == workload::Dataset::kLongBench ? 0.96 : 1.0;
}

SimSession::SimSession(std::string model_key, DType dtype, workload::Dataset dataset,
                       sim::PowerMode power_mode, std::uint64_t seed)
    : model_key_(std::move(model_key)),
      dtype_(dtype),
      dataset_(dataset),
      power_mode_(std::move(power_mode)),
      seed_(seed) {}

const sim::ModelSpec& SimSession::model() const { return sim::model_by_key(model_key_); }

BatchResult SimSession::run(const BatchRequest& request,
                            trace::ExecutionTimeline* timeline) const {
  sim::SimRequest sr;
  sr.model_key = model_key_;
  sr.dtype = dtype_;
  sr.batch = request.batch;
  sr.in_tokens = request.seq.input;
  sr.out_tokens = request.seq.output;
  sr.power_mode = power_mode_;
  sr.latency_scale = dataset_latency_scale(dataset_);
  sr.seed = seed_ ^ (request.batch * 0x9e37ULL) ^ (request.seq.total << 20);

  const sim::SimResult r = sim_.run(sr);
  BatchResult out;
  out.oom = r.oom;
  if (r.oom) return out;
  if (timeline != nullptr) {
    for (const auto& e : r.timeline.events()) {
      timeline->emit(e.phase, e.duration_s, e.batch, e.ctx, e.power_w, e.breakdown);
    }
  }
  out.latency_s = r.latency_s;
  out.throughput_tps = r.throughput_tps;
  out.incremental_ram_gb = r.memory.incremental_gb();
  out.total_ram_gb = r.memory.total_gb();
  out.median_power_w = r.median_power_w;
  out.energy_j = r.energy_j;
  return out;
}

FunctionalSession::FunctionalSession(std::shared_ptr<const MasterWeights> master,
                                     DType dtype, const workload::PromptPool& pool,
                                     std::uint64_t seed)
    : model_(std::move(master), dtype), pool_(pool), rng_(seed) {}

BatchResult FunctionalSession::run(const BatchRequest& request,
                                   trace::ExecutionTimeline* timeline) {
  ORINSIM_CHECK(request.seq.total <= model_.config().max_seq,
                "sequence exceeds functional model max_seq");
  const auto prompts = pool_.sample_batch(request.batch, request.seq.input, rng_);

  Stopwatch watch;
  const Model::GenerateResult gen = model_.generate(prompts, request.seq.output, nullptr,
                                                    timeline);
  const double latency = watch.elapsed_s();

  BatchResult out;
  out.latency_s = latency;
  out.throughput_tps =
      token_throughput_tps(gen.input_tokens + gen.output_tokens, latency);
  // Functional memory: weights + KV cache for this batch (host RAM).
  const double kv_gb = static_cast<double>(request.batch) *
                       static_cast<double>(request.seq.total) *
                       static_cast<double>(model_.config().kv_bytes_per_token()) / 1e9;
  out.incremental_ram_gb = kv_gb;
  out.total_ram_gb = static_cast<double>(model_.weight_bytes()) / 1e9 + kv_gb;
  return out;
}

}  // namespace orinsim::serving
