// The unified request-lifecycle serving engine.
//
// One scheduler spine runs every serving experiment in the repo:
//
//   Policy                             Execution
//   ------                             ---------
//   StaticBatchPolicy                  InferenceBackend (whole batches), with
//                                      optional edge-cloud offload routing
//   ContinuousPolicy          x        SimTokenBackend     (roofline + power)
//                                      FunctionalTokenBackend (real decode
//                                                         over a paged KVCache)
//
// Both policies return EngineResult. Policies own the clock and the queue:
// they admit requests, charge step costs into a trace::ExecutionTimeline
// (StepEvents plus per-request admit/preempt/retire RequestEvents), and
// preempt on KV block exhaustion.
// Backends own the work: claim KV capacity, run/charge a prefill wave or a
// decode step, release capacity. Every metric the engine reports — latency
// percentiles, makespan, energy, occupancy, KV-block utilization — is read
// off the one event stream, never accumulated on the side.
//
// Preemption contract: when a running request cannot extend its KV
// allocation by one token, the policy evicts the *youngest* active request
// (releasing all its blocks) and re-queues it at the front of the waiting
// queue. Eviction repeats until the survivors fit; a request that cannot
// run alone is a configuration error (throws). Preempted requests resume by
// recomputation: the functional backend re-prefills prompt + recorded
// output in one chunked prefill, whose rows equal the steps that first
// produced them, so under greedy decoding preemption changes latency but
// never tokens.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "model/transformer.h"
#include "serving/offload.h"
#include "serving/prefix_cache.h"
#include "serving/request.h"
#include "serving/session.h"
#include "sim/device.h"
#include "sim/inference_sim.h"
#include "sim/thermal.h"
#include "trace/timeline.h"
#include "workload/arrivals.h"
#include "workload/prompt_pool.h"

namespace orinsim::serving {

// Cost of one engine step (a prefill wave or a decode step), as reported by
// the backend and charged into the timeline by the policy. Simulated
// backends fill power/breakdown; the functional backend measures wall-clock
// and leaves power unset (no board sensor on this host).
struct StepCost {
  double seconds = 0.0;
  double power_w = trace::kPowerUnset;
  trace::StepBreakdown breakdown;
  double ctx = 0.0;  // context annotation for the StepEvent

  // Optional decomposition of the step into distinct trace phases. Empty
  // (the default) keeps the legacy single-event emission, so every existing
  // backend's traces stay byte-identical. A speculative decode step returns
  // one kDraft and one kVerify sub-step instead of a kDecode event; the
  // policy emits them in order, each with its own participants.
  struct SubStep {
    trace::Phase phase = trace::Phase::kDecode;
    double seconds = 0.0;
    std::size_t batch = 0;  // 0: the active-set size
    double ctx = 0.0;
    double power_w = trace::kPowerUnset;
    trace::StepBreakdown breakdown;
    std::vector<std::size_t> participants;  // request ids; empty: all active
  };
  std::vector<SubStep> phases;
};

// Speculative serving: the backend runs greedy draft/verify rounds inside
// each decode step, retiring up to draft_tokens+1 tokens per target pass
// while emitting exactly what plain greedy decoding would (the speculative
// contract; pinned bit-identical by test under scalar kernels). Off by
// default: the engine's schedule and traces are untouched.
struct SpeculationConfig {
  bool enabled = false;
  std::size_t draft_tokens = 4;  // K: proposals per round
  // Simulated backends only — calibrated per-token acceptance rate feeding
  // sim::expected_tokens_per_round (the functional backend measures its own).
  double acceptance = 0.8;
  // Simulated draft model (device_catalog key). Empty: the target model
  // quantized to draft_dtype acts as its own draft (self-draft pairing).
  std::string draft_model_key;
  DType draft_dtype = DType::kI8;
};

// Token-level execution backend: the engine advances admitted requests one
// decode step at a time through this interface.
class TokenBackend {
 public:
  struct KVUsage {
    std::size_t used_blocks = 0;
    std::size_t total_blocks = 0;  // 0: backend tracks no block pool
    std::size_t block_bytes = 0;
  };

  virtual ~TokenBackend() = default;

  // Concurrency cap (lanes the backend can decode together).
  virtual std::size_t max_lanes() const = 0;
  // Claims a lane plus KV blocks for the request's current context (prompt,
  // plus recorded output when resuming after preemption). All-or-nothing;
  // false leaves the backend unchanged.
  virtual bool try_admit(Request& req) = 0;
  // Runs/charges one prefill wave over the just-admitted requests.
  // `active_after` is the running-set size after admission (the concurrency
  // the device sustains during the wave). The functional backend also
  // samples each fresh request's first token here (generated becomes 1).
  virtual StepCost prefill(const std::vector<Request*>& admitted,
                           std::size_t active_after) = 0;
  // Reserves KV room for one more token. Idempotent until the token is
  // produced; false is the policy's preemption trigger.
  virtual bool try_extend(Request& req) = 0;
  // Runs/charges one decode step over the active set, appending one token to
  // every request (callers guarantee try_extend succeeded for each).
  virtual StepCost decode_step(const std::vector<Request*>& active) = 0;
  // Releases the request's lane and KV blocks (retirement or preemption).
  virtual void release(Request& req) = 0;

  virtual KVUsage kv_usage() const { return {}; }
  virtual std::string name() const = 0;

  // Power-mode control for the governor. A backend that models DVFS applies
  // the mode to its subsequent per-step cost/power estimates and returns
  // true; backends without a power model ignore the request (false), which
  // tells the governor mode-stepping cannot help and admission deferral is
  // its only lever.
  virtual bool set_power_mode(const sim::PowerMode& mode) {
    (void)mode;
    return false;
  }
  // Board idle draw (W) the governor's thermal loop charges during stalls;
  // 0 when the backend attaches no power.
  virtual double idle_power_w() const { return 0.0; }

  // Cross-request prefix cache, when the backend runs one: the policy gates
  // hit/miss/insert/evict timeline emission on prefix_cache_enabled() so
  // cache-free runs keep byte-identical traces, and delta-snapshots the
  // stats around backend calls to attribute insertions and evictions.
  virtual bool prefix_cache_enabled() const { return false; }
  virtual PrefixCacheStats prefix_cache_stats() const { return {}; }

  // True when decode_step runs speculative draft/verify rounds (and thus may
  // retire several tokens per step and emit kDraft/kVerify sub-steps).
  virtual bool speculation_enabled() const { return false; }
};

// Power/thermal governor for ContinuousPolicy. Observes every powered step
// the policy emits; when the board power cap is exceeded or the thermal RC
// loop crosses the throttle threshold, it steps the backend's power mode
// down `ladder` (Table 2's GPU-frequency descent by default) and, once the
// ladder floor is reached, defers new admissions until the violation clears.
// Every action lands in the timeline as a GovernorEvent. Default-constructed
// config = governor off: the policy's schedule and trace are untouched.
struct GovernorConfig {
  double power_cap_w = 0.0;     // board power cap; 0 disables the cap
  bool thermal_enabled = false; // run the RC loop over step timestamps
  sim::ThermalParams thermal;
  double initial_temp_c = -1.0; // <0: start at ambient
  // Descending power-mode ladder; index 0 must be the backend's configured
  // mode. Empty selects sim::gpu_frequency_ladder() (MaxN -> A -> B).
  std::vector<sim::PowerMode> ladder;
  bool defer_admissions = true; // throttle admissions at the ladder floor

  bool enabled() const { return power_cap_w > 0.0 || thermal_enabled; }
};

// Everything a serving run produces, derived from the event stream.
struct EngineResult {
  std::vector<Request> requests;      // final states, outputs included
  std::vector<double> latencies_s;    // completed requests, retirement order
  double makespan_s = 0.0;
  double energy_j = 0.0;              // 0 when the backend reports no power
  double mean_active = 0.0;           // time-weighted concurrent sequences
  std::size_t decode_steps = 0;
  std::size_t total_tokens = 0;       // prompt + generated across requests
  std::size_t preemptions = 0;
  double mean_kv_utilization = 0.0;   // 0 when the backend tracks no pool
  std::size_t peak_kv_blocks = 0;
  std::size_t peak_kv_bytes = 0;

  // Prefix-cache behaviour, derived from the timeline's PrefixCacheEvents
  // (all zero when the backend ran no cache). Conservation invariants,
  // pinned by tests: hits + misses == lookups (one lookup per fresh
  // admission), and bytes_saved is exactly the hit tokens' KV footprint.
  struct PrefixCacheSummary {
    std::size_t lookups = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t hit_tokens = 0;
    std::size_t bytes_saved = 0;
    std::size_t inserted_blocks = 0;
    std::size_t evicted_blocks = 0;

    double hit_rate() const {
      return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    }
  };
  PrefixCacheSummary prefix_cache;

  // Speculative draft/verify behaviour, summed over the requests' per-round
  // counters (all zero when the backend ran no speculation). decode_steps
  // counts kDecode + kVerify events, so a speculative run's step count stays
  // comparable to its plain counterpart (one target pass per step either
  // way).
  SpeculationStats speculation;

  // Per-request energy attribution, indexed by request id. Sums to energy_j
  // (the conservation invariant, pinned by test): every powered step's
  // energy is split across the requests active in that step.
  std::vector<RequestMetrics> request_metrics;
  // Power-mode step-downs the governor performed (0: governor off/quiet).
  std::size_t governor_step_downs = 0;

  // The full event stream the metrics above are derived from.
  trace::ExecutionTimeline timeline;

  double mean_latency_s() const;
  double p95_latency_s() const;
  double throughput_tps() const;
  // Mean attributed energy per request / per token (0 without power).
  double energy_per_request_j() const;
  double energy_per_token_j() const;
};

// One request per arrival time (ids 0..n-1, seq.input prompt tokens,
// seq.output tokens to generate): the request list both policies consume.
std::vector<Request> requests_from_arrivals(const std::vector<double>& arrival_times,
                                            const workload::SeqConfig& seq);

// Per-request streaming hooks, fired by ContinuousEngine as the backend
// produces tokens. on_token fires once per *newly generated* token in
// generation order (a preempted request's recompute replays silently — the
// delivered stream never repeats or reorders); on_finish fires at
// retirement, after the request's last on_token. Only backends that record
// real tokens (FunctionalTokenBackend) drive on_token; the sim backend
// counts tokens without materializing them. Callbacks run on the thread
// calling step() — keep them cheap (hand off to a queue for slow I/O).
struct StreamCallbacks {
  std::function<void(const Request&, TokenId)> on_token;
  std::function<void(const Request&)> on_finish;
};

// The continuous scheduler as an incrementally-steppable object: submit
// requests at any time, advance the schedule one engine iteration per
// step(), poll request state, stream tokens through StreamCallbacks, drain
// for graceful shutdown. ContinuousPolicy::run is exactly submit-all +
// step-until-idle + finish, so the offline path and the serving daemon
// execute the same loop body (one source of truth for admission, preemption
// and retirement semantics).
//
// Not thread-safe: every method must be called from one thread (the server
// wraps it in server::EngineHost, which owns that thread). Two clocks:
//  - offline (default): virtual time. Arrivals are taken from
//    Request::arrival_s (non-decreasing, checked); when the engine goes idle
//    with future arrivals pending, step() stalls the clock forward to the
//    next arrival — bit-identical behaviour to the pre-steppable run loop.
//  - real_time: the wall clock. submit() stamps arrival_s with the current
//    engine time; before each working step the clock is stalled up to the
//    wall-clock elapsed time, so idle gaps between bursts appear as explicit
//    kStall events and latencies/energy integrate over real time.
class ContinuousEngine {
 public:
  // submit() result when the engine is draining and admits no new work.
  static constexpr std::size_t kRejected = static_cast<std::size_t>(-1);

  enum class Step { kIdle, kWorked };

  ContinuousEngine(TokenBackend& backend, GovernorConfig governor = {},
                   bool real_time = false);
  ~ContinuousEngine();

  ContinuousEngine(const ContinuousEngine&) = delete;
  ContinuousEngine& operator=(const ContinuousEngine&) = delete;

  // Registers a request and returns its id (its index; Request::id is
  // overwritten). Offline: arrival_s must be >= the previous submission's.
  // Real-time: arrival_s is stamped with the engine clock. Returns kRejected
  // after drain() — the caller owes the client a "shutting down" response.
  std::size_t submit(Request req, StreamCallbacks callbacks = {});

  // One engine iteration: admit what fits, run a prefill wave for fresh
  // admissions, grow every active sequence (preempting the youngest on KV
  // exhaustion), one decode step, retire finished requests. kIdle = nothing
  // to do (no waiting or active work, and offline no future arrivals).
  Step step();

  // True when no request is waiting or active (step() would return kIdle,
  // except for offline future arrivals — see pending_arrivals).
  bool idle() const;
  // Offline: submitted requests whose arrival_s is still in the future.
  bool pending_arrivals() const;

  // Requests submitted but not yet admitted to a lane (the 429 backpressure
  // signal at the serving boundary).
  std::size_t queue_depth() const;
  std::size_t active_count() const;
  std::size_t submitted_count() const;
  std::size_t retired_count() const;

  // Graceful shutdown: every subsequent submit() is rejected; everything
  // already submitted (queued or active) still runs to retirement. Calling
  // drain() again is a no-op.
  void drain();
  bool draining() const;
  // True once drain() was called and every submitted request retired.
  bool drained() const;

  // Poll access to a submitted request's current state (valid until
  // finish()).
  const Request& request(std::size_t id) const;
  const trace::ExecutionTimeline& timeline() const;

  // Live speculative-decoding counters (sum over submitted requests; all
  // zero when the backend runs no speculation). The serving daemon's
  // /metrics reads this without waiting for finish().
  SpeculationStats speculation() const;

  // Fleet integration. set_device_id tags the engine's timeline (and thus
  // every exported event) with the owning device; single-device callers
  // never set it, keeping their trace serialization untouched.
  // governor_deferring is the router's throttle signal: true while the
  // governor holds admissions at the power-mode ladder floor.
  void set_device_id(std::size_t id);
  bool governor_deferring() const;

  // Consumes the engine: derives EngineResult off the event stream. Requires
  // idle() with no pending arrivals (everything submitted has retired).
  EngineResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Token-level admit/retire scheduling (Orca/vLLM style) over any
// TokenBackend, with preemption on KV block exhaustion: submit-all +
// step-until-idle + finish over a ContinuousEngine.
class ContinuousPolicy {
 public:
  explicit ContinuousPolicy(TokenBackend& backend, GovernorConfig governor = {})
      : backend_(backend), governor_(std::move(governor)) {}

  EngineResult run(std::vector<Request> requests);

 private:
  TokenBackend& backend_;
  GovernorConfig governor_;
};

// The paper's static batching: wait for arrivals, take up to max_batch, run
// the whole batch to completion through an InferenceBackend, repeat. Each
// batch is one kDecode event on the device cursor. Request ids are assigned
// by position (requests[i].id = i), so the timeline, latencies and
// per-request energy always index the caller's order.
//
// Edge-cloud offload (the paper's "coupling edge inferencing with cloud
// endpoints" future work) is a routing decision taken at each dispatch:
//
//   kEdgeOnly (default)     : plain static batching, nothing leaves the edge
//   kCloudOnly              : every request goes to the cloud
//   kQueueDepth             : when more than `queue_threshold` requests wait,
//                             run one full batch on the edge and send the
//                             newer overflow to the cloud
//   kLatencyThreshold       : send the whole batch to the cloud when its
//                             oldest member would miss `latency_slo_s`
//
// A cloud request is an unpowered kOffload event placed at its arrival,
// off the device cursor (cloud capacity is elastic and its joules are not
// the board's). EngineResult::makespan_s covers both tracks; energy_j stays
// edge-only; cloud cost is timeline.count(kOffload) x
// cloud.request_cost_usd(seq.input, seq.output).
class StaticBatchPolicy {
 public:
  struct Offload {
    CloudEndpoint cloud;
    OffloadPolicy policy = OffloadPolicy::kEdgeOnly;
    std::size_t queue_threshold = 16;  // kQueueDepth
    double latency_slo_s = 30.0;       // kLatencyThreshold
  };

  StaticBatchPolicy(InferenceBackend& backend, std::size_t max_batch,
                    workload::SeqConfig seq, Offload offload)
      : backend_(backend), max_batch_(max_batch), seq_(seq), offload_(offload) {}
  StaticBatchPolicy(InferenceBackend& backend, std::size_t max_batch,
                    workload::SeqConfig seq)
      : StaticBatchPolicy(backend, max_batch, seq, Offload{}) {}

  EngineResult run(std::vector<Request> requests);

 private:
  InferenceBackend& backend_;
  std::size_t max_batch_ = 32;
  workload::SeqConfig seq_;
  Offload offload_;
};

// Roofline + power-model backend: charges one roofline prefill wave per
// admission and one roofline decode step per active set, with the power
// model's wattage, plus block accounting so preemption studies run without
// the functional engine. Resume-after-
// preemption recharges prefill at the prompt length (the simulator does not
// model partial-context recompute).
class SimTokenBackend : public TokenBackend {
 public:
  struct Config {
    std::string model_key = "llama3";
    DType dtype = DType::kF16;
    std::size_t max_concurrency = 32;
    workload::SeqConfig seq = workload::seq_config_default();
    sim::PowerMode power_mode = sim::power_mode_maxn();
    // Hardware the roofline/memory/power models run on: any device_catalog
    // entry's spec. Defaults to the paper's Orin AGX 64GB, so existing
    // configs keep their exact cost model; a fleet assigns heterogeneous
    // specs so each device yields its own roofline-consistent step costs.
    sim::DeviceSpec device = sim::orin_agx_64gb();
    // Block pool. 0 blocks = capacity for max_concurrency full sequences
    // (never exhausts; the run reports no KV occupancy).
    std::size_t kv_blocks = 0;
    std::size_t block_tokens = kDefaultKVBlockTokens;
    // Speculative decoding: each decode step becomes one draft/verify round
    // charged as K draft steps (draft model roofline) plus one verification
    // pass (target roofline at batch x (K+1) positions), retiring the
    // calibrated sim::expected_tokens_per_round(acceptance, K) tokens per
    // lane via a fractional carry. Off: exact legacy behaviour.
    SpeculationConfig speculation;
  };

  explicit SimTokenBackend(const Config& config);

  std::size_t max_lanes() const override { return config_.max_concurrency; }
  bool try_admit(Request& req) override;
  StepCost prefill(const std::vector<Request*>& admitted,
                   std::size_t active_after) override;
  bool try_extend(Request& req) override;
  StepCost decode_step(const std::vector<Request*>& active) override;
  void release(Request& req) override;
  KVUsage kv_usage() const override;
  std::string name() const override { return "sim:" + config_.model_key; }
  // Governor hook: subsequent roofline/power estimates use the new mode.
  bool set_power_mode(const sim::PowerMode& mode) override;
  double idle_power_w() const override;
  bool speculation_enabled() const override { return config_.speculation.enabled; }

  const Config& config() const noexcept { return config_; }

 private:
  bool reserve_blocks(std::size_t lane, std::size_t tokens);
  StepCost speculative_decode_step(const std::vector<Request*>& active);

  Config config_;
  sim::InferenceSim sim_;
  BlockAllocator allocator_;
  std::vector<std::size_t> free_lanes_;              // LIFO, deterministic
  std::vector<std::vector<std::size_t>> lane_blocks_;  // held block ids
  // Fractional expected-tokens-per-round carry per lane (speculation only):
  // a round retires floor(carry) tokens and keeps the remainder, so the
  // long-run rate matches the acceptance model exactly.
  std::vector<double> spec_carry_;
};

// Real token-by-token decoding over a paged KVCache: each step runs the
// active lanes as rows of one Model::decode (the step Model::generate
// takes, split over kernel_pool()), greedy argmax sampling (deterministic,
// so preemption recompute is lossless) replayed serially in active order,
// and measured wall-clock costs. The constructor's optional ThreadPool is
// the one place a prefill lane pool enters the engine: it shards the lanes
// of a prefill wave, one workspace per shard. Outputs are bit-identical for
// any worker count, and a preempted request resumes with one chunked
// prefill of its history.
class FunctionalTokenBackend : public TokenBackend {
 public:
  struct Config {
    std::size_t max_lanes = 4;
    std::size_t max_seq = 0;  // 0: model max_seq
    // Block pool across all lanes. 0 = full capacity (never exhausts);
    // smaller pools oversubscribe lanes and trigger preemption.
    std::size_t kv_blocks = 0;
    std::size_t block_tokens = kDefaultKVBlockTokens;
    KVStorage kv_storage = KVStorage::kF32;
    // Calibrated power proxy: when non-empty, every measured prefill/decode
    // step carries the PowerModel estimate for this paper-scale model at the
    // step's batch and context under `power_mode` — served functional
    // traffic then feeds the same energy / PowerSignal / PowerSampler
    // pipeline as the simulator (this host has no board sensor, so wattage
    // is modeled even though durations are measured). Empty: power unset,
    // trace serialization identical to the proxy-free engine.
    std::string power_proxy_model;
    DType power_proxy_dtype = DType::kF16;
    sim::PowerMode power_mode = sim::power_mode_maxn();
    // Cross-request prefix cache (serving/prefix_cache.h): fresh admissions
    // attach the longest cached prefix of their prompt and prefill only the
    // suffix; retirements insert their prompt's full-block prefix; allocator
    // exhaustion evicts cached-but-unreferenced blocks LRU-first, before the
    // policy preempts anything. Matches cover whole blocks and are capped at
    // prompt-1 tokens; greedy outputs stay bit-identical to a cache-free run
    // (pinned by test). Off by default: the engine's schedule and traces are
    // untouched.
    bool prefix_cache = false;
    // Cap on tree residency in blocks (0: bounded only by the pool).
    std::size_t prefix_cache_blocks = 0;
    // Speculative decoding (enabled/draft_tokens; the acceptance fields are
    // sim-only — this backend measures real acceptance). Requires a draft
    // model at construction. Each lane's draft branch is a copy-on-write
    // fork of its KV sequence (sequence lane + max_lanes), rolled back with
    // truncate() after verification; accepted proposals are verified in one
    // K+1-row chunk forward.
    SpeculationConfig speculation;
  };

  // `model` must outlive the backend; `pool` may be null (serial prefill
  // waves). A non-null pool costs one workspace per shard; measured on
  // offline_quant it pays for itself in TTFT and tok/s (DESIGN.md,
  // "Threading model").
  // `draft` is required iff config.speculation.enabled: it must share the
  // target's geometry (layers, heads, d_model, vocab) so draft and target
  // can read the same paged KV sequences — the same-master quantized
  // self-draft pairing the speculative bench measures.
  FunctionalTokenBackend(Model& model, const Config& config, ThreadPool* pool = nullptr,
                         Model* draft = nullptr);

  std::size_t max_lanes() const override { return config_.max_lanes; }
  bool try_admit(Request& req) override;
  StepCost prefill(const std::vector<Request*>& admitted,
                   std::size_t active_after) override;
  bool try_extend(Request& req) override;
  StepCost decode_step(const std::vector<Request*>& active) override;
  void release(Request& req) override;
  KVUsage kv_usage() const override;
  std::string name() const override { return "functional"; }
  // Governor hooks; no-ops (false / 0) unless the power proxy is configured.
  bool set_power_mode(const sim::PowerMode& mode) override;
  double idle_power_w() const override;

  bool prefix_cache_enabled() const override { return prefix_cache_ != nullptr; }
  PrefixCacheStats prefix_cache_stats() const override;
  bool speculation_enabled() const override { return draft_ != nullptr; }

  const KVCache& cache() const noexcept { return cache_; }
  const PrefixCache* prefix_cache() const noexcept { return prefix_cache_.get(); }

 private:
  // try_reserve with the cache's exhaustion hook: cached-but-unreferenced
  // blocks are reclaimed (LRU leaves first) before failure is reported, so
  // the policy only preempts once the cache has nothing left to give.
  bool reserve_with_evict(std::size_t lane, std::size_t tokens);
  // Rows [begin, begin + rows) of logits_.
  std::span<float> logits_rows(std::size_t begin, std::size_t rows);
  bool has_power_proxy() const { return !config_.power_proxy_model.empty(); }
  double proxy_prefill_power_w() const;
  double proxy_decode_power_w(std::size_t batch, double mean_ctx) const;
  std::size_t branch_of(std::size_t lane) const { return lane + config_.max_lanes; }

  Model& model_;
  Config config_;
  KVCache cache_;
  std::unique_ptr<PrefixCache> prefix_cache_;   // null: cache disabled
  ThreadPool* pool_ = nullptr;
  std::vector<InferenceWorkspace> workspaces_;  // one per prefill shard; decode uses [0]
  std::vector<std::size_t> free_lanes_;         // LIFO, deterministic
  // [lanes, vocab]: prefill writes row `lane`, a decode step row i for its
  // i-th row (step_tokens_[i] fed to sequence step_seqs_[i]).
  std::vector<float> logits_;
  std::vector<TokenId> step_tokens_;
  std::vector<std::size_t> step_seqs_;
  std::vector<std::size_t> plan_k_;  // proposals this step, per lane (0: plain)
  sim::InferenceSim proxy_sim_;                 // power proxy estimates
  sim::PowerMode proxy_mode_;                   // governor-adjustable

  // Speculative state (sized only when a draft model is attached).
  Model* draft_ = nullptr;
  std::optional<InferenceWorkspace> draft_ws_;
  // Speculating lanes in verify order (k descending), and each lane's
  // first slot: a lane owns slots [plan_slot_, plan_slot_ + k] of
  // proposals_ (the fed token, then its proposals) and the same rows of
  // verify_logits_.
  std::vector<std::size_t> verify_lanes_;
  std::vector<std::size_t> plan_slot_;
  std::vector<TokenId> proposals_;    // [lanes * (K+1)]
  std::vector<float> verify_logits_;  // [lanes * (K+1), vocab]
};

// One-call functional continuous-batching run: builds requests from the
// arrival model and prompt pool, runs ContinuousPolicy over a
// FunctionalTokenBackend, returns the executed schedule. This is the
// "dedicated inference engine" counterpart the paper's conclusion points
// to, measured on the real engine rather than the roofline model. Prefill
// waves run serially; a caller that shards them builds the backend with
// its own pool.
struct FunctionalEngineConfig {
  workload::ArrivalConfig arrivals;
  workload::SeqConfig seq = workload::seq_config_default();
  // Lanes, KV pool, power proxy, prefix cache and speculation; max_seq is
  // overwritten with seq.input + seq.output. With speculation enabled, the
  // run builds a draft Model from the same master quantized to
  // speculation.draft_dtype (the self-draft pairing).
  FunctionalTokenBackend::Config backend;
  std::uint64_t prompt_seed = 11;
  // Governor over the continuous policy (off by default).
  GovernorConfig governor;
  // Chat-style traffic: when enabled(), prompts come from sample_chat_batch
  // (Zipfian shared system prompts + per-user suffixes) and must satisfy
  // chat.prompt_tokens() == seq.input; otherwise sample_batch as before.
  workload::ChatWorkloadConfig chat;
};

EngineResult run_functional_continuous(std::shared_ptr<const MasterWeights> master,
                                       DType dtype, const workload::PromptPool& pool,
                                       const FunctionalEngineConfig& config);

}  // namespace orinsim::serving
