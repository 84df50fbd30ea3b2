#include "serving/serving_device.h"

#include <utility>

#include "core/error.h"
#include "sim/device_catalog.h"

namespace orinsim::serving {

namespace {

// The governor ladder for a simulated device: the device-scaled
// GPU-frequency descent, truncated to start at the configured mode (the
// governor contract requires ladder[0] == the backend's configured mode).
// A configured mode off the GPU ladder (e.g. Table 2 "C", a CPU-axis mode)
// heads the ladder itself, followed by the scaled modes with strictly lower
// GPU clocks — stepping down still reduces modeled power.
std::vector<sim::PowerMode> ladder_from(const sim::DeviceSpec& spec,
                                        const sim::PowerMode& start) {
  std::vector<sim::PowerMode> full = sim::device_gpu_frequency_ladder(spec);
  std::vector<sim::PowerMode> ladder;
  for (const sim::PowerMode& pm : full) {
    if (!ladder.empty() || pm.name == start.name) ladder.push_back(pm);
  }
  if (ladder.empty()) {
    ladder.push_back(start);
    for (const sim::PowerMode& pm : full) {
      if (pm.gpu_freq_mhz < start.gpu_freq_mhz) ladder.push_back(pm);
    }
  }
  return ladder;
}

}  // namespace

ServingDevice::ServingDevice(const SimConfig& config)
    : name_(config.name.empty() ? config.device_key : config.name),
      governor_(config.governor) {
  const sim::DeviceEntry& entry = sim::device_by_key(config.device_key);

  SimTokenBackend::Config backend;
  backend.model_key = config.model_key;
  backend.dtype = config.dtype;
  backend.max_concurrency = config.max_concurrency;
  backend.seq = config.seq;
  backend.power_mode = sim::scaled_power_mode(entry.spec, config.power_mode);
  backend.device = entry.spec;
  backend.kv_blocks = config.kv_blocks;
  backend.block_tokens = config.block_tokens;
  backend.speculation = config.speculation;
  sim_backend_ = std::make_unique<SimTokenBackend>(backend);
  backend_ = sim_backend_.get();

  if (governor_.enabled() && governor_.ladder.empty()) {
    governor_.ladder = ladder_from(entry.spec, backend.power_mode);
  }
  engine_ = std::make_unique<ContinuousEngine>(*backend_, governor_);
}

ServingDevice::ServingDevice(Model& model, const FunctionalTokenBackend::Config& config,
                             GovernorConfig governor, std::string name, Model* draft)
    : name_(std::move(name)), governor_(std::move(governor)) {
  fn_backend_ = std::make_unique<FunctionalTokenBackend>(model, config, nullptr, draft);
  backend_ = fn_backend_.get();
  engine_ = std::make_unique<ContinuousEngine>(*backend_, governor_);
}

ServingDevice::~ServingDevice() = default;

std::size_t ServingDevice::submit(Request req, StreamCallbacks callbacks) {
  return engine_->submit(std::move(req), std::move(callbacks));
}

ContinuousEngine::Step ServingDevice::step() { return engine_->step(); }

bool ServingDevice::idle() const { return engine_->idle(); }

bool ServingDevice::pending_arrivals() const { return engine_->pending_arrivals(); }

double ServingDevice::now() const { return engine_->timeline().now(); }

std::size_t ServingDevice::queue_depth() const { return engine_->queue_depth(); }

std::size_t ServingDevice::active_count() const { return engine_->active_count(); }

const trace::ExecutionTimeline& ServingDevice::timeline() const {
  return engine_->timeline();
}

void ServingDevice::set_device_id(std::size_t id) { engine_->set_device_id(id); }

bool ServingDevice::governor_deferring() const { return engine_->governor_deferring(); }

double ServingDevice::mean_power_w() const {
  const trace::ExecutionTimeline& tl = engine_->timeline();
  return tl.now() > 0.0 ? tl.total_energy_j() / tl.now() : 0.0;
}

EngineResult ServingDevice::finish() { return engine_->finish(); }

EngineResult ServingDevice::run(std::vector<Request> requests) {
  ORINSIM_CHECK(!requests.empty() && backend_->max_lanes() > 0,
                "serving_device: degenerate run");
  for (Request& r : requests) engine_->submit(std::move(r));
  while (engine_->step() == ContinuousEngine::Step::kWorked) {
  }
  return engine_->finish();
}

}  // namespace orinsim::serving
