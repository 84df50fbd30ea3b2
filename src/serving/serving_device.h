// A device as a first-class serving unit: one token backend, one
// ContinuousEngine, and the power governor bundled behind a single object,
// so fleet routers, planners and benches stop hand-assembling the trio.
//
// Two construction paths mirror the two backends:
//  - SimConfig builds a simulated device from a sim/device_catalog entry and
//    a Table 2 power-mode name (scaled to the device's own clock maxima via
//    sim::scaled_power_mode), so heterogeneous fleets get roofline-consistent
//    per-device step costs from one catalog key.
//  - The functional constructor wraps a real Model behind
//    FunctionalTokenBackend (paged KV, optional prefix cache, serial
//    prefill waves), for fleets
//    that decode actual tokens.
//
// The device exposes exactly the stepping surface the fleet router needs
// (submit/step/idle/now/queue_depth/...) plus run(), the offline
// submit-all + step-until-idle + finish loop — the same loop body as
// ContinuousPolicy::run, so offline planning and fleet serving share one
// source of truth for admission/preemption/retirement semantics.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "serving/engine.h"

namespace orinsim::serving {

class ServingDevice {
 public:
  // Simulated device from a sim/device_catalog entry.
  struct SimConfig {
    std::string name;                        // report/trace tag; empty: device_key
    std::string device_key = "orin-agx-64";  // sim/device_catalog key
    // Table 2 power-mode name, translated to the device via
    // sim::scaled_power_mode (identity on the paper's Orin AGX 64GB).
    std::string power_mode = "MaxN";
    std::string model_key = "llama3";
    DType dtype = DType::kF16;
    std::size_t max_concurrency = 8;
    workload::SeqConfig seq = workload::seq_config_default();
    // Block pool (0 blocks = capacity for max_concurrency full sequences).
    std::size_t kv_blocks = 0;
    std::size_t block_tokens = kDefaultKVBlockTokens;
    // Governor (off by default). When enabled with an empty ladder, the
    // ladder is filled with the device-scaled GPU-frequency descent starting
    // at the configured power mode, so a throttled Nano steps down its own
    // clocks rather than Orin-absolute frequencies.
    GovernorConfig governor;
    // Speculative decoding (off by default): pass-through to
    // SimTokenBackend::Config::speculation.
    SpeculationConfig speculation;
  };

  // Builds backend + engine from the catalog entry. Throws on unknown
  // device/power-mode/model keys.
  explicit ServingDevice(const SimConfig& config);

  // Functional device over a real model, prefill waves run serially.
  // `model` must outlive the device; `draft` is required iff
  // config.speculation.enabled (see FunctionalTokenBackend) and must outlive
  // the device too.
  ServingDevice(Model& model, const FunctionalTokenBackend::Config& config,
                GovernorConfig governor = {}, std::string name = "functional",
                Model* draft = nullptr);

  ServingDevice(const ServingDevice&) = delete;
  ServingDevice& operator=(const ServingDevice&) = delete;
  ~ServingDevice();

  const std::string& name() const noexcept { return name_; }
  TokenBackend& backend() noexcept { return *backend_; }
  ContinuousEngine& engine() noexcept { return *engine_; }
  const ContinuousEngine& engine() const noexcept { return *engine_; }

  // --- engine stepping surface (forwarders) -----------------------------
  std::size_t submit(Request req, StreamCallbacks callbacks = {});
  ContinuousEngine::Step step();
  bool idle() const;
  bool pending_arrivals() const;
  double now() const;  // engine virtual clock (timeline cursor)
  std::size_t queue_depth() const;
  std::size_t active_count() const;
  // Waiting + running load, the join-shortest-queue routing signal.
  std::size_t load() const { return queue_depth() + active_count(); }
  const trace::ExecutionTimeline& timeline() const;
  // Tags every exported trace event with the owning device (fleet only;
  // single-device callers never set it, keeping serialization untouched).
  void set_device_id(std::size_t id);

  // --- power/energy routing signals -------------------------------------
  // True while the governor holds admissions at the power-mode ladder floor.
  bool governor_deferring() const;
  // The governor actually installed (ladder auto-fill applied).
  const GovernorConfig& governor() const noexcept { return governor_; }
  double power_cap_w() const noexcept { return governor_.power_cap_w; }
  // Mean draw so far: attributed energy over elapsed virtual time (0 before
  // the first powered step). The power-headroom policy routes on
  // power_cap_w() - mean_power_w().
  double mean_power_w() const;

  // Consumes the engine: EngineResult off the event stream. Requires idle.
  EngineResult finish();
  // Offline one-call run: submit everything, step until idle, finish.
  EngineResult run(std::vector<Request> requests);

 private:
  std::string name_;
  GovernorConfig governor_;
  std::unique_ptr<SimTokenBackend> sim_backend_;        // SimConfig path
  std::unique_ptr<FunctionalTokenBackend> fn_backend_;  // functional path
  TokenBackend* backend_ = nullptr;
  std::unique_ptr<ContinuousEngine> engine_;
};

}  // namespace orinsim::serving
