#include "serving/engine.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "core/error.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "sim/speculative_sim.h"

namespace orinsim::serving {

namespace {

std::size_t blocks_for(std::size_t tokens, std::size_t block_tokens) {
  return (tokens + block_tokens - 1) / block_tokens;
}

// Pool occupancy annotation: only backends that track a block pool get
// kv_blocks fields on their events (legacy traces stay byte-identical).
void annotate_kv(trace::ExecutionTimeline& timeline, std::size_t event_id,
                 const TokenBackend& backend) {
  const TokenBackend::KVUsage usage = backend.kv_usage();
  if (usage.total_blocks > 0) {
    timeline.set_kv_blocks(event_id, usage.used_blocks, usage.total_blocks);
  }
}

// Shared tail: every policy's result is read off the event stream.
void finalize(EngineResult& result, std::vector<Request> requests,
              const TokenBackend* backend) {
  const trace::ExecutionTimeline& timeline = result.timeline;
  result.latencies_s = timeline.request_latencies();
  // End of the last event on any track: the device cursor, or an offloaded
  // request still running in the cloud.
  result.makespan_s = timeline.makespan_s();
  result.energy_j = timeline.total_energy_j();
  result.mean_active = timeline.time_weighted_batch();
  // A speculative round's target pass lands as kVerify instead of kDecode;
  // counting both keeps decode_steps comparable across the two modes (one
  // target pass per step either way).
  result.decode_steps =
      timeline.count(trace::Phase::kDecode) + timeline.count(trace::Phase::kVerify);
  result.total_tokens = 0;
  for (const Request& r : requests) {
    result.total_tokens += r.prompt_tokens + r.generated;
    result.speculation += r.spec;
  }
  result.mean_kv_utilization = timeline.mean_kv_utilization();
  result.peak_kv_blocks = timeline.peak_kv_blocks();
  if (backend != nullptr) {
    result.peak_kv_bytes = result.peak_kv_blocks * backend->kv_usage().block_bytes;
  }
  result.governor_step_downs =
      timeline.governor_event_count(trace::GovernorEventKind::kPowerCapStepDown) +
      timeline.governor_event_count(trace::GovernorEventKind::kThermalStepDown);
  // Prefix-cache behaviour, read off the same event stream as every other
  // metric — the counters and the exported trace cannot disagree.
  for (const auto& e : timeline.prefix_cache_events()) {
    switch (e.kind) {
      case trace::PrefixCacheEventKind::kHit:
        ++result.prefix_cache.lookups;
        ++result.prefix_cache.hits;
        result.prefix_cache.hit_tokens += e.tokens;
        result.prefix_cache.bytes_saved += e.bytes_saved;
        break;
      case trace::PrefixCacheEventKind::kMiss:
        ++result.prefix_cache.lookups;
        ++result.prefix_cache.misses;
        break;
      case trace::PrefixCacheEventKind::kInsert:
        result.prefix_cache.inserted_blocks += e.blocks;
        break;
      case trace::PrefixCacheEventKind::kEvict:
        result.prefix_cache.evicted_blocks += e.blocks;
        break;
    }
  }
  // Per-request attribution off the participant-annotated event stream. The
  // engine indexes requests by id (requests[i].id == i, the same invariant
  // the timeline bookkeeping relies on).
  const std::vector<double> per_request = timeline.per_request_energy_j();
  result.request_metrics.assign(per_request.size(), RequestMetrics{});
  for (std::size_t i = 0; i < per_request.size(); ++i) {
    RequestMetrics& m = result.request_metrics[i];
    m.energy_j = per_request[i];
    const trace::RequestRecord& rec = timeline.requests()[i];
    if (rec.completed && rec.finish_s > rec.start_s) {
      m.avg_power_w = m.energy_j / (rec.finish_s - rec.start_s);
    }
    const std::size_t tokens = requests[i].prompt_tokens + requests[i].generated;
    if (tokens > 0) m.energy_per_token_j = m.energy_j / static_cast<double>(tokens);
  }
  result.requests = std::move(requests);
}

// Runs the board power cap and the thermal RC loop over the policy's step
// stream; owned by one ContinuousPolicy::run call. Monotone descent: modes
// only step down within a run (no re-promotion chatter), admissions resume
// as soon as the violation clears.
class PowerGovernor {
 public:
  PowerGovernor(const GovernorConfig& config, TokenBackend& backend,
                trace::ExecutionTimeline& timeline)
      : config_(config),
        backend_(backend),
        timeline_(timeline),
        thermal_(config.thermal),
        temp_(config.initial_temp_c < 0.0 ? config.thermal.ambient_c
                                          : config.initial_temp_c) {
    if (config_.enabled() && config_.ladder.empty()) {
      config_.ladder = sim::gpu_frequency_ladder();
    }
  }

  bool defer_admissions() const { return deferring_; }

  // Device idle (stall): the junction cools toward the idle equilibrium.
  void observe_idle(double duration_s) {
    if (!config_.thermal_enabled || duration_s <= 0.0) return;
    temp_ = thermal_.step_temperature(temp_, backend_.idle_power_w(), duration_s);
  }

  // One emitted prefill/decode step. Called after the event lands, so
  // timeline_.now() is the event end — the timestamp actions carry.
  void observe_step(double power_w, double duration_s) {
    if (!config_.enabled()) return;
    const bool powered = power_w >= 0.0;
    if (config_.thermal_enabled) {
      temp_ = thermal_.step_temperature(
          temp_, powered ? power_w : backend_.idle_power_w(), duration_s);
    }
    const bool over_cap =
        config_.power_cap_w > 0.0 && powered && power_w > config_.power_cap_w;
    const bool over_temp =
        config_.thermal_enabled && temp_ >= config_.thermal.throttle_start_c;
    const double temp_out = config_.thermal_enabled ? temp_ : 0.0;
    if (over_cap || over_temp) {
      if (next_mode_ < config_.ladder.size() &&
          backend_.set_power_mode(config_.ladder[next_mode_])) {
        timeline_.governor_event(over_cap
                                     ? trace::GovernorEventKind::kPowerCapStepDown
                                     : trace::GovernorEventKind::kThermalStepDown,
                                 timeline_.now(), config_.ladder[next_mode_].name,
                                 power_w, temp_out);
        ++next_mode_;
      } else if (config_.defer_admissions && !deferring_) {
        // Ladder floor (or a backend without DVFS): shrink the batch instead.
        deferring_ = true;
        timeline_.governor_event(trace::GovernorEventKind::kAdmitDefer,
                                 timeline_.now(), mode_name(), power_w, temp_out);
      }
    } else if (deferring_) {
      deferring_ = false;
      timeline_.governor_event(trace::GovernorEventKind::kAdmitResume,
                               timeline_.now(), mode_name(), power_w, temp_out);
    }
  }

 private:
  std::string mode_name() const {
    if (config_.ladder.empty()) return "?";
    return config_.ladder[next_mode_ > 0 ? next_mode_ - 1 : 0].name;
  }

  GovernorConfig config_;
  TokenBackend& backend_;
  trace::ExecutionTimeline& timeline_;
  sim::ThermalModel thermal_;
  double temp_;
  std::size_t next_mode_ = 1;  // ladder[0] is the backend's starting mode
  bool deferring_ = false;
};

std::vector<std::size_t> descending_lane_list(std::size_t lanes) {
  // Descending so pop_back hands out lane 0 first (deterministic order).
  std::vector<std::size_t> free;
  free.reserve(lanes);
  for (std::size_t i = lanes; i > 0; --i) free.push_back(i - 1);
  return free;
}

}  // namespace

std::vector<Request> requests_from_arrivals(const std::vector<double>& arrival_times,
                                            const workload::SeqConfig& seq) {
  std::vector<Request> requests(arrival_times.size());
  for (std::size_t i = 0; i < arrival_times.size(); ++i) {
    requests[i].id = i;
    requests[i].arrival_s = arrival_times[i];
    requests[i].prompt_tokens = seq.input;
    requests[i].max_new_tokens = seq.output;
  }
  return requests;
}

double EngineResult::mean_latency_s() const {
  return trace::LatencySummary::from(latencies_s).mean_s;
}

double EngineResult::p95_latency_s() const {
  return trace::LatencySummary::from(latencies_s).p95_s;
}

double EngineResult::throughput_tps() const {
  if (makespan_s <= 0.0) return 0.0;
  return static_cast<double>(total_tokens) / makespan_s;
}

double EngineResult::energy_per_request_j() const {
  if (requests.empty()) return 0.0;
  return energy_j / static_cast<double>(requests.size());
}

double EngineResult::energy_per_token_j() const {
  if (total_tokens == 0) return 0.0;
  return energy_j / static_cast<double>(total_tokens);
}

// ---------------------------------------------------------------------------
// ContinuousEngine
// ---------------------------------------------------------------------------

// The steppable continuous scheduler. One Impl instance owns the loop state
// the old run-to-completion implementation kept on its stack; step() is one
// iteration of that loop, byte-identical in offline mode (the existing
// legacy-parity and trace-byte-identity tests pin this).
struct ContinuousEngine::Impl {
  Impl(TokenBackend& backend_in, GovernorConfig governor_config, bool real_time_in)
      : backend(backend_in),
        real_time(real_time_in),
        governor(governor_config, backend_in, result.timeline),
        pc(backend_in.prefix_cache_enabled()),
        pc_block_tokens(pc ? backend_in.prefix_cache_stats().block_tokens : 0),
        pc_block_bytes(pc ? backend_in.kv_usage().block_bytes : 0) {
    ORINSIM_CHECK(backend.max_lanes() > 0, "engine: backend needs at least one lane");
    active.reserve(backend.max_lanes());
  }

  TokenBackend& backend;
  bool real_time = false;
  EngineResult result;  // timeline accumulates here; finish() derives the rest
  PowerGovernor governor;

  std::vector<Request> requests;
  std::vector<StreamCallbacks> callbacks;
  std::vector<std::size_t> streamed;  // tokens already delivered per request
  std::deque<std::size_t> waiting;
  std::vector<std::size_t> active;
  std::size_t arrived = 0;  // requests moved from the arrival stream to waiting
  std::size_t retired = 0;
  bool draining = false;
  bool finished_taken = false;
  Stopwatch wall;  // real-time clock reference (construction = engine start)

  // Prefix-cache event emission, gated on the backend actually running a
  // cache so cache-free runs keep byte-identical traces. Insertions and
  // evictions happen inside backend calls; delta-snapshotting the monotonic
  // counters around those calls attributes them to the right instant.
  const bool pc;
  const std::size_t pc_block_tokens;
  const std::size_t pc_block_bytes;

  trace::ExecutionTimeline& timeline() { return result.timeline; }

  template <typename Member>
  std::size_t pc_counter(Member member) const {
    return pc ? backend.prefix_cache_stats().*member : 0;
  }

  void pc_emit_evictions(std::size_t evicted_before) {
    if (!pc) return;
    const std::size_t d = pc_counter(&PrefixCacheStats::evicted_blocks) - evicted_before;
    if (d > 0) {
      timeline().prefix_cache_event(trace::PrefixCacheEventKind::kEvict,
                                    timeline().now(), 0, d * pc_block_tokens, d, 0);
    }
  }

  void admit_arrivals() {
    while (arrived < requests.size() &&
           requests[arrived].arrival_s <= timeline().now()) {
      waiting.push_back(arrived);
      ++arrived;
    }
  }

  // Delivers tokens generated since the last flush. Recompute-after-
  // preemption replays recorded tokens without growing output beyond
  // `streamed`, so the delivered stream never repeats.
  void flush_tokens(const Request& r) {
    StreamCallbacks& cb = callbacks[r.id];
    if (!cb.on_token) {
      streamed[r.id] = r.output.size();
      return;
    }
    while (streamed[r.id] < r.output.size()) {
      cb.on_token(r, r.output[streamed[r.id]]);
      ++streamed[r.id];
    }
  }

  Step step() {
    ORINSIM_CHECK(!finished_taken, "engine: step after finish");
    if (real_time) {
      // Bring the engine clock up to the wall before admission checks so
      // wall-stamped arrivals become visible and idle gaps land in the trace
      // as explicit stalls. Skipped when there is no work at all, so a
      // polling host does not grow the trace while the engine sits idle.
      const bool work_pending =
          !active.empty() || !waiting.empty() || arrived < requests.size();
      const double now_wall = wall.elapsed_s();
      if (work_pending && now_wall > timeline().now()) {
        const double idle_from = timeline().now();
        timeline().stall_until(now_wall);
        governor.observe_idle(timeline().now() - idle_from);
      }
    }
    admit_arrivals();

    if (active.empty() && waiting.empty()) {
      // Offline: jump to the next arrival (an explicit stall event keeps the
      // trace gap-free). Real-time / fully drained: nothing to do.
      if (real_time || arrived >= requests.size()) return Step::kIdle;
      const double idle_from = timeline().now();
      timeline().stall_until(requests[arrived].arrival_s);
      governor.observe_idle(timeline().now() - idle_from);
      admit_arrivals();
    }

    // Admit FIFO up to the lane cap, stopping at the first request the
    // backend cannot hold (no queue jumping; a preempted request re-queued
    // at the front resumes before younger work). A deferring governor blocks
    // admissions while work is in flight — the batch shrinks by attrition
    // until power recovers — but never starves an idle backend.
    std::vector<Request*> admitted;
    const bool defer = governor.defer_admissions() && !active.empty();
    const std::size_t evicted_pre_admit = pc_counter(&PrefixCacheStats::evicted_blocks);
    while (!defer && !waiting.empty() && active.size() < backend.max_lanes()) {
      Request& req = requests[waiting.front()];
      if (!backend.try_admit(req)) {
        ORINSIM_CHECK(!active.empty(),
                      "engine: request does not fit even on an idle backend");
        break;
      }
      waiting.pop_front();
      req.state = RequestState::kPrefilling;
      const bool fresh = !timeline().requests()[req.id].started;
      if (fresh) {
        timeline().start_request(req.id, timeline().now());
      }
      timeline().request_event(req.id, trace::RequestEventKind::kAdmit, timeline().now());
      // One lookup per fresh admission: hit with the attached token count, or
      // miss. Resumed (preempted) requests recompute without a lookup.
      if (pc && fresh) {
        if (req.prefix_cached > 0) {
          const std::size_t blocks = req.prefix_cached / pc_block_tokens;
          timeline().prefix_cache_event(trace::PrefixCacheEventKind::kHit,
                                        timeline().now(), req.id, req.prefix_cached,
                                        blocks, blocks * pc_block_bytes);
        } else {
          timeline().prefix_cache_event(trace::PrefixCacheEventKind::kMiss,
                                        timeline().now(), req.id, 0, 0, 0);
        }
      }
      active.push_back(req.id);
      admitted.push_back(&req);
    }
    pc_emit_evictions(evicted_pre_admit);
    if (!admitted.empty()) {
      const StepCost cost = backend.prefill(admitted, active.size());
      // Batch carries the post-admission active count: the concurrency
      // integral weighs the prefill at the level the device now sustains.
      const std::size_t eid =
          timeline().emit(trace::Phase::kPrefill, cost.seconds, active.size(), cost.ctx,
                          cost.power_w, cost.breakdown);
      annotate_kv(timeline(), eid, backend);
      timeline().set_participants(eid, active);
      governor.observe_step(cost.power_w, cost.seconds);
      for (Request* r : admitted) {
        r->state = RequestState::kDecoding;
        flush_tokens(*r);  // the prefill wave sampled fresh first tokens
      }
    }

    // Every active request must be able to grow by one token before the
    // step runs. On exhaustion, evict the youngest (recompute-on-resume)
    // until the survivors fit. A prefix-cache-running backend reclaims
    // cached-but-unreferenced blocks inside try_extend before failing, so
    // request preemption is strictly the last resort.
    const std::size_t evicted_pre_extend = pc_counter(&PrefixCacheStats::evicted_blocks);
    while (true) {
      bool all_fit = true;
      for (std::size_t id : active) {
        if (!backend.try_extend(requests[id])) {
          all_fit = false;
          break;
        }
      }
      if (all_fit) break;
      ORINSIM_CHECK(active.size() > 1,
                    "engine: a lone request cannot grow its KV allocation");
      const std::size_t victim = active.back();
      active.pop_back();
      Request& evicted = requests[victim];
      backend.release(evicted);
      evicted.state = RequestState::kPreempted;
      ++evicted.preemptions;
      ++result.preemptions;
      waiting.push_front(victim);
      timeline().request_event(victim, trace::RequestEventKind::kPreempt,
                               timeline().now());
    }
    pc_emit_evictions(evicted_pre_extend);

    // One decode step for the active set. A backend that decomposes the step
    // into phases (speculative draft/verify) gets one event per sub-step,
    // each with its own participants; the empty-phases path is byte-for-byte
    // the legacy single-kDecode emission.
    std::vector<Request*> stepping;
    stepping.reserve(active.size());
    for (std::size_t id : active) stepping.push_back(&requests[id]);
    const StepCost cost = backend.decode_step(stepping);
    if (cost.phases.empty()) {
      const std::size_t eid = timeline().emit(trace::Phase::kDecode, cost.seconds,
                                              active.size(), cost.ctx, cost.power_w,
                                              cost.breakdown);
      annotate_kv(timeline(), eid, backend);
      timeline().set_participants(eid, active);
      governor.observe_step(cost.power_w, cost.seconds);
    } else {
      for (const StepCost::SubStep& sub : cost.phases) {
        const std::size_t eid = timeline().emit(
            sub.phase, sub.seconds, sub.batch > 0 ? sub.batch : active.size(),
            sub.ctx, sub.power_w, sub.breakdown);
        annotate_kv(timeline(), eid, backend);
        timeline().set_participants(eid,
                                    sub.participants.empty() ? active : sub.participants);
        governor.observe_step(sub.power_w, sub.seconds);
      }
    }
    for (std::size_t id : active) flush_tokens(requests[id]);

    // Retire finished sequences in active-list order.
    for (auto it = active.begin(); it != active.end();) {
      Request& r = requests[*it];
      if (r.done()) {
        timeline().finish_request(r.id, timeline().now());
        timeline().request_event(r.id, trace::RequestEventKind::kRetire,
                                 timeline().now());
        const std::size_t ins0 = pc_counter(&PrefixCacheStats::inserted_blocks);
        backend.release(r);  // insert-on-retire happens in here
        if (pc) {
          const std::size_t d = pc_counter(&PrefixCacheStats::inserted_blocks) - ins0;
          if (d > 0) {
            timeline().prefix_cache_event(trace::PrefixCacheEventKind::kInsert,
                                          timeline().now(), r.id, d * pc_block_tokens,
                                          d, 0);
          }
        }
        r.state = RequestState::kFinished;
        ++retired;
        it = active.erase(it);
        // The callbacks leave the table here and die after on_finish: what
        // they own (a served request's stream) is freed at retirement.
        const StreamCallbacks cb = std::exchange(callbacks[r.id], {});
        if (cb.on_finish) cb.on_finish(r);
      } else {
        ++it;
      }
    }
    return Step::kWorked;
  }
};

ContinuousEngine::ContinuousEngine(TokenBackend& backend, GovernorConfig governor,
                                   bool real_time)
    : impl_(std::make_unique<Impl>(backend, std::move(governor), real_time)) {}

ContinuousEngine::~ContinuousEngine() = default;

std::size_t ContinuousEngine::submit(Request req, StreamCallbacks callbacks) {
  ORINSIM_CHECK(!impl_->finished_taken, "engine: submit after finish");
  if (impl_->draining) return kRejected;
  if (impl_->real_time) {
    // Stamp with the wall clock so queue wait measures from actual
    // submission, even when the engine's virtual clock lags behind.
    req.arrival_s = impl_->wall.elapsed_s();
  } else if (!impl_->requests.empty()) {
    ORINSIM_CHECK(req.arrival_s >= impl_->requests.back().arrival_s,
                  "engine: arrivals must be non-decreasing");
  }
  req.id = impl_->requests.size();
  impl_->timeline().begin_request(req.arrival_s);
  impl_->requests.push_back(std::move(req));
  impl_->callbacks.push_back(std::move(callbacks));
  impl_->streamed.push_back(0);
  return impl_->requests.size() - 1;
}

ContinuousEngine::Step ContinuousEngine::step() { return impl_->step(); }

bool ContinuousEngine::idle() const {
  return impl_->active.empty() && impl_->waiting.empty() &&
         impl_->arrived >= impl_->requests.size();
}

bool ContinuousEngine::pending_arrivals() const {
  return impl_->arrived < impl_->requests.size();
}

std::size_t ContinuousEngine::queue_depth() const {
  return impl_->waiting.size() + (impl_->requests.size() - impl_->arrived);
}

std::size_t ContinuousEngine::active_count() const { return impl_->active.size(); }

std::size_t ContinuousEngine::submitted_count() const { return impl_->requests.size(); }

std::size_t ContinuousEngine::retired_count() const { return impl_->retired; }

void ContinuousEngine::drain() { impl_->draining = true; }

bool ContinuousEngine::draining() const { return impl_->draining; }

bool ContinuousEngine::drained() const {
  return impl_->draining && impl_->retired == impl_->requests.size();
}

const Request& ContinuousEngine::request(std::size_t id) const {
  ORINSIM_CHECK(id < impl_->requests.size(), "engine: request id out of range");
  return impl_->requests[id];
}

const trace::ExecutionTimeline& ContinuousEngine::timeline() const {
  return impl_->result.timeline;
}

SpeculationStats ContinuousEngine::speculation() const {
  SpeculationStats s;
  for (const Request& r : impl_->requests) s += r.spec;
  return s;
}

void ContinuousEngine::set_device_id(std::size_t id) {
  impl_->timeline().set_device_id(id);
}

bool ContinuousEngine::governor_deferring() const {
  return impl_->governor.defer_admissions();
}

EngineResult ContinuousEngine::finish() {
  ORINSIM_CHECK(!impl_->finished_taken, "engine: finish called twice");
  ORINSIM_CHECK(idle(), "engine: finish with unretired requests");
  impl_->finished_taken = true;
  EngineResult result = std::move(impl_->result);
  finalize(result, std::move(impl_->requests), &impl_->backend);
  return result;
}

// ---------------------------------------------------------------------------
// ContinuousPolicy
// ---------------------------------------------------------------------------

EngineResult ContinuousPolicy::run(std::vector<Request> requests) {
  ORINSIM_CHECK(!requests.empty() && backend_.max_lanes() > 0,
                "engine: degenerate continuous run");
  ContinuousEngine engine(backend_, governor_);
  for (Request& r : requests) engine.submit(std::move(r));
  while (engine.step() == ContinuousEngine::Step::kWorked) {
  }
  return engine.finish();
}

// ---------------------------------------------------------------------------
// StaticBatchPolicy
// ---------------------------------------------------------------------------

EngineResult StaticBatchPolicy::run(std::vector<Request> requests) {
  ORINSIM_CHECK(max_batch_ > 0, "static policy: max_batch must be positive");
  ORINSIM_CHECK(!requests.empty(), "static policy: no requests");
  for (std::size_t i = 1; i < requests.size(); ++i) {
    ORINSIM_CHECK(requests[i].arrival_s >= requests[i - 1].arrival_s,
                  "static policy: arrivals must be non-decreasing");
  }

  EngineResult result;
  trace::ExecutionTimeline& timeline = result.timeline;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i;  // the timeline indexes requests by position
    timeline.begin_request(requests[i].arrival_s);
  }

  // Cache batch latencies/energies per occupancy (latency depends only on
  // the batch size for fixed sequence config).
  std::vector<double> latency_by_bs(max_batch_ + 1, -1.0);
  std::vector<double> energy_by_bs(max_batch_ + 1, 0.0);
  auto batch_cost = [&](std::size_t bs) {
    if (latency_by_bs[bs] < 0.0) {
      BatchRequest br;
      br.batch = bs;
      br.seq = seq_;
      const BatchResult r = backend_.execute(br);
      ORINSIM_CHECK(!r.oom, "static policy: batch config OOMs on device");
      latency_by_bs[bs] = r.latency_s;
      energy_by_bs[bs] = r.energy_j;
    }
    return latency_by_bs[bs];
  };

  // Runs requests [first, first + take) as one batch dispatched at `at`.
  auto run_on_edge = [&](std::size_t first, std::size_t take, double at) {
    timeline.stall_until(at);
    const double latency = batch_cost(take);
    // One batch-granularity event; mean power reproduces the backend-reported
    // batch energy exactly (power * duration == energy).
    const double power =
        latency > 0.0 ? energy_by_bs[take] / latency : trace::kPowerUnset;
    const std::size_t eid = timeline.emit(trace::Phase::kDecode, latency, take,
                                          static_cast<double>(seq_.total), power);
    std::vector<std::size_t> batch_ids(take);
    std::iota(batch_ids.begin(), batch_ids.end(), first);
    timeline.set_participants(eid, batch_ids);
    for (std::size_t id = first; id < first + take; ++id) {
      timeline.start_request(id, at);
      timeline.request_event(id, trace::RequestEventKind::kAdmit, at);
      timeline.finish_request(id, timeline.now());
      timeline.request_event(id, trace::RequestEventKind::kRetire, timeline.now());
      requests[id].state = RequestState::kFinished;
      requests[id].generated = requests[id].max_new_tokens;  // runs to completion
    }
  };

  // Cloud work overlaps the edge device: the event is pinned at the arrival
  // instant, off the sequential cursor, with power unset.
  auto run_in_cloud = [&](std::size_t id) {
    const double arrival = requests[id].arrival_s;
    const double latency = offload_.cloud.request_latency_s(seq_.input, seq_.output);
    timeline.append_at(arrival, trace::Phase::kOffload, latency, 1,
                       static_cast<double>(seq_.total));
    timeline.start_request(id, arrival);
    timeline.finish_request(id, arrival + latency);
    requests[id].state = RequestState::kFinished;
    requests[id].generated = requests[id].max_new_tokens;
  };

  const std::size_t total = requests.size();
  std::size_t next = 0;  // first unscheduled request
  while (next < total) {
    if (offload_.policy == OffloadPolicy::kCloudOnly) {
      run_in_cloud(next++);
      continue;
    }
    // Dispatch when the device frees up, or at the next arrival if idle;
    // everything arrived by then is waiting.
    const double at = std::max(requests[next].arrival_s, timeline.now());
    std::size_t waiting = 0;
    while (next + waiting < total && requests[next + waiting].arrival_s <= at) ++waiting;
    const std::size_t take = std::min(waiting, max_batch_);

    if (offload_.policy == OffloadPolicy::kQueueDepth &&
        waiting > offload_.queue_threshold) {
      // One full batch stays on the edge; the newer overflow goes out.
      for (std::size_t i = take; i < waiting; ++i) run_in_cloud(next + i);
      run_on_edge(next, take, at);
      next += waiting;
      continue;
    }
    if (offload_.policy == OffloadPolicy::kLatencyThreshold &&
        at + batch_cost(take) - requests[next].arrival_s > offload_.latency_slo_s) {
      // The edge would miss the SLO for the batch's oldest member.
      for (std::size_t i = 0; i < take; ++i) run_in_cloud(next + i);
      next += take;
      continue;
    }
    run_on_edge(next, take, at);
    next += take;
  }

  finalize(result, std::move(requests), nullptr);
  return result;
}

// ---------------------------------------------------------------------------
// SimTokenBackend
// ---------------------------------------------------------------------------

namespace {

std::size_t sim_pool_blocks(const SimTokenBackend::Config& c) {
  if (c.kv_blocks > 0) return c.kv_blocks;
  // Capacity for every lane at the full sequence length: never exhausts,
  // reproducing the original (paging-free) continuous simulator.
  return c.max_concurrency * blocks_for(c.seq.input + c.seq.output, c.block_tokens);
}

std::size_t sim_block_bytes(const SimTokenBackend::Config& c) {
  const sim::ModelSpec& m = sim::model_by_key(c.model_key);
  const double per_token = m.kv_bytes_per_token(/*int8_cache=*/false);
  return static_cast<std::size_t>(per_token * static_cast<double>(c.block_tokens));
}

}  // namespace

SimTokenBackend::SimTokenBackend(const Config& config)
    : config_(config),
      sim_(config.device),
      allocator_(sim_pool_blocks(config), sim_block_bytes(config)),
      free_lanes_(descending_lane_list(config.max_concurrency)),
      lane_blocks_(config.max_concurrency),
      spec_carry_(config.max_concurrency, 0.0) {
  ORINSIM_CHECK(config_.max_concurrency > 0, "sim backend: need at least one lane");
  if (config_.speculation.enabled) {
    ORINSIM_CHECK(config_.speculation.draft_tokens >= 1,
                  "sim backend: speculation needs at least one draft token");
    ORINSIM_CHECK(config_.speculation.acceptance >= 0.0 &&
                      config_.speculation.acceptance <= 1.0,
                  "sim backend: acceptance rate must be in [0, 1]");
  }
}

bool SimTokenBackend::reserve_blocks(std::size_t lane, std::size_t tokens) {
  const std::size_t target = blocks_for(tokens, config_.block_tokens);
  std::vector<std::size_t>& held = lane_blocks_[lane];
  if (target <= held.size()) return true;
  return allocator_.alloc_many(target - held.size(), held);
}

bool SimTokenBackend::try_admit(Request& req) {
  if (free_lanes_.empty()) return false;
  const std::size_t lane = free_lanes_.back();
  if (!reserve_blocks(lane, req.context())) return false;
  free_lanes_.pop_back();
  req.lane = lane;
  spec_carry_[lane] = 0.0;  // a (re)admitted request starts its rounds fresh
  return true;
}

StepCost SimTokenBackend::prefill(const std::vector<Request*>& admitted,
                                                   std::size_t active_after) {
  const sim::ModelSpec& model = sim::model_by_key(config_.model_key);
  StepCost cost;
  // Resumed requests recharge the same prompt-length prefill: the roofline
  // model does not distinguish recompute from first compute.
  cost.seconds = sim_.roofline().prefill_s(model, config_.dtype, admitted.size(),
                                           config_.seq.input, config_.power_mode);
  cost.power_w =
      sim_.power_model().prefill_power(model, config_.dtype, config_.power_mode).total_w();
  cost.ctx = static_cast<double>(config_.seq.input);
  (void)active_after;
  return cost;
}

bool SimTokenBackend::try_extend(Request& req) {
  ORINSIM_CHECK(req.lane != Request::kNoLane, "sim backend: extend on unadmitted request");
  return reserve_blocks(req.lane, req.context() + 1);
}

StepCost SimTokenBackend::decode_step(const std::vector<Request*>& active) {
  ORINSIM_CHECK(!active.empty(), "sim backend: decode over empty set");
  if (config_.speculation.enabled) return speculative_decode_step(active);
  const sim::ModelSpec& model = sim::model_by_key(config_.model_key);
  double mean_ctx = 0.0;
  for (const Request* r : active) mean_ctx += static_cast<double>(r->context());
  mean_ctx /= static_cast<double>(active.size());
  const sim::StepBreakdown step = sim_.roofline().decode_step(
      model, config_.dtype, active.size(), mean_ctx, config_.power_mode);
  StepCost cost;
  cost.seconds = step.total_s();
  cost.power_w =
      sim_.power_model().decode_power(model, config_.dtype, step, config_.power_mode).total_w();
  cost.breakdown = step;
  cost.ctx = mean_ctx;
  for (Request* r : active) ++r->generated;
  return cost;
}

StepCost SimTokenBackend::speculative_decode_step(const std::vector<Request*>& active) {
  const SpeculationConfig& spec = config_.speculation;
  const std::size_t k = spec.draft_tokens;
  const sim::ModelSpec& target = sim::model_by_key(config_.model_key);
  const sim::ModelSpec& draft = sim::model_by_key(
      spec.draft_model_key.empty() ? config_.model_key : spec.draft_model_key);
  double mean_ctx = 0.0;
  for (const Request* r : active) mean_ctx += static_cast<double>(r->context());
  mean_ctx /= static_cast<double>(active.size());

  // One round = K lane-batched draft steps plus one target verification pass
  // over K+1 positions per lane (decode is weight-bound, so the verify pass
  // streams the weights once for all positions — the speculative win).
  const sim::StepBreakdown draft_step = sim_.roofline().decode_step(
      draft, spec.draft_dtype, active.size(), mean_ctx, config_.power_mode);
  const sim::StepBreakdown verify_step = sim_.roofline().decode_step(
      target, config_.dtype, active.size() * (k + 1), mean_ctx, config_.power_mode);
  const double draft_power =
      sim_.power_model()
          .decode_power(draft, spec.draft_dtype, draft_step, config_.power_mode)
          .total_w();
  const double verify_power =
      sim_.power_model()
          .decode_power(target, config_.dtype, verify_step, config_.power_mode)
          .total_w();

  // Token advance: the calibrated acceptance model retires
  // E = expected_tokens_per_round(a, K) tokens per round on average; a
  // per-lane fractional carry keeps each round an integer while the long-run
  // rate matches E exactly.
  const double e = sim::expected_tokens_per_round(spec.acceptance, k);
  for (Request* r : active) {
    const std::size_t remaining = r->max_new_tokens - r->generated;
    spec_carry_[r->lane] += e;
    std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(spec_carry_[r->lane]));
    n = std::min(n, std::min(remaining, k + 1));
    // The engine's try_extend covered one token; reserve the rest, shrinking
    // the round if the pool cannot hold it (n == 1 never fails).
    while (n > 1 && !reserve_blocks(r->lane, r->context() + n)) --n;
    spec_carry_[r->lane] -= static_cast<double>(n);
    r->generated += n;
    ++r->spec.rounds;
    r->spec.accepted += n - 1;
    // The target compared the accepted drafts plus one rejected proposal on
    // rounds that stopped short of the bonus token.
    r->spec.proposed += (n - 1) + (n - 1 < k ? 1 : 0);
    r->spec.emitted += n;
  }

  auto scaled = [](const trace::StepBreakdown& b, double s) {
    trace::StepBreakdown out = b;
    out.weight_s *= s;
    out.kv_s *= s;
    out.compute_s *= s;
    out.launch_s *= s;
    out.quant_extra_s *= s;
    out.cpu_stretch_s *= s;
    return out;
  };

  StepCost cost;
  StepCost::SubStep d;
  d.phase = trace::Phase::kDraft;
  d.seconds = draft_step.total_s() * static_cast<double>(k);
  d.ctx = mean_ctx;
  d.power_w = draft_power;
  d.breakdown = scaled(draft_step, static_cast<double>(k));
  StepCost::SubStep v;
  v.phase = trace::Phase::kVerify;
  v.seconds = verify_step.total_s();
  v.ctx = mean_ctx;
  v.power_w = verify_power;
  v.breakdown = verify_step;
  cost.phases = {std::move(d), std::move(v)};
  cost.seconds = cost.phases[0].seconds + cost.phases[1].seconds;
  cost.ctx = mean_ctx;
  return cost;
}

void SimTokenBackend::release(Request& req) {
  ORINSIM_CHECK(req.lane != Request::kNoLane, "sim backend: release on unadmitted request");
  for (std::size_t id : lane_blocks_[req.lane]) allocator_.release(id);
  lane_blocks_[req.lane].clear();
  free_lanes_.push_back(req.lane);
  req.lane = Request::kNoLane;
}

bool SimTokenBackend::set_power_mode(const sim::PowerMode& mode) {
  config_.power_mode = mode;
  return true;
}

double SimTokenBackend::idle_power_w() const { return sim_.power_model().idle_w(); }

SimTokenBackend::KVUsage SimTokenBackend::kv_usage() const {
  // Only report occupancy when an explicit pool was configured: the
  // unlimited default reproduces the legacy simulator, whose traces must
  // keep serializing byte-identically (no kv fields).
  if (config_.kv_blocks == 0) return {};
  return KVUsage{allocator_.blocks_in_use(), allocator_.total_blocks(),
                 allocator_.block_bytes()};
}

// ---------------------------------------------------------------------------
// FunctionalTokenBackend
// ---------------------------------------------------------------------------

namespace {

KVCacheOptions functional_cache_options(const FunctionalTokenBackend::Config& c) {
  KVCacheOptions o;
  o.storage = c.kv_storage;
  o.block_tokens = c.block_tokens;
  o.max_blocks = c.kv_blocks;
  return o;
}

}  // namespace

FunctionalTokenBackend::FunctionalTokenBackend(Model& model, const Config& config,
                                               ThreadPool* pool, Model* draft)
    : model_(model),
      config_(config),
      // Speculation doubles the sequence count: sequence lane + max_lanes is
      // lane's draft branch, live only inside one decode step.
      cache_(model.config(),
             config.speculation.enabled ? config.max_lanes * 2 : config.max_lanes,
             config.max_seq > 0 ? std::min(config.max_seq, model.config().max_seq)
                                : model.config().max_seq,
             functional_cache_options(config)),
      pool_(pool),
      free_lanes_(descending_lane_list(config.max_lanes)),
      proxy_mode_(config.power_mode) {
  ORINSIM_CHECK(config_.max_lanes > 0, "functional backend: need at least one lane");
  if (config_.prefix_cache) {
    prefix_cache_ = std::make_unique<PrefixCache>(cache_, config_.prefix_cache_blocks);
  }
  const std::size_t shards = pool_ != nullptr ? pool_->shard_count() : 1;
  workspaces_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) workspaces_.emplace_back(model_.config());
  logits_.resize(config_.max_lanes * model_.config().vocab);
  step_tokens_.reserve(config_.max_lanes);
  step_seqs_.reserve(config_.max_lanes);
  plan_k_.assign(config_.max_lanes, 0);
  if (config_.speculation.enabled) {
    ORINSIM_CHECK(draft != nullptr, "functional backend: speculation needs a draft model");
    ORINSIM_CHECK(config_.speculation.draft_tokens >= 1,
                  "functional backend: speculation needs at least one draft token");
    const TransformerConfig& t = model_.config();
    const TransformerConfig& d = draft->config();
    // Draft and target read/write the same paged KV sequences, so the KV
    // geometry (and thus the whole attention shape) must match — the
    // same-master quantized self-draft pairing.
    ORINSIM_CHECK(d.vocab == t.vocab && d.n_layers == t.n_layers &&
                      d.d_model == t.d_model && d.n_heads == t.n_heads &&
                      d.n_kv_heads == t.n_kv_heads,
                  "functional backend: draft must share the target's geometry");
    ORINSIM_CHECK(d.max_seq >= cache_.max_seq(),
                  "functional backend: draft max_seq shorter than the serving cache");
    draft_ = draft;
    const std::size_t k = config_.speculation.draft_tokens;
    draft_ws_.emplace(d);
    // Every lane's verify chunk can run at once through workspace 0.
    workspaces_[0].ensure_rows(t, config_.max_lanes * (k + 1));
    plan_slot_.assign(config_.max_lanes, 0);
    verify_lanes_.reserve(config_.max_lanes);
    proposals_.resize(config_.max_lanes * (k + 1));
    verify_logits_.resize(config_.max_lanes * (k + 1) * t.vocab);
  }
}

std::span<float> FunctionalTokenBackend::logits_rows(std::size_t begin, std::size_t rows) {
  const std::size_t vocab = model_.config().vocab;
  return std::span<float>(logits_.data() + begin * vocab, rows * vocab);
}

bool FunctionalTokenBackend::reserve_with_evict(std::size_t lane, std::size_t tokens) {
  if (cache_.try_reserve(lane, tokens)) return true;
  if (prefix_cache_ == nullptr) return false;
  // A max_seq refusal cannot be fixed by freeing blocks; don't drain the
  // cache for it.
  if (cache_.seq_len(lane) + tokens > cache_.max_seq()) return false;
  while (prefix_cache_->evict_lru_leaf()) {
    if (cache_.try_reserve(lane, tokens)) return true;
  }
  return false;
}

bool FunctionalTokenBackend::try_admit(Request& req) {
  ORINSIM_CHECK(!req.prompt.empty() && req.prompt.size() == req.prompt_tokens,
                "functional backend: request needs real prompt tokens");
  if (free_lanes_.empty()) return false;
  const std::size_t lane = free_lanes_.back();
  // Resume recomputes prompt + recorded output except the last token (the
  // next decode step feeds that one).
  const std::size_t history =
      req.prompt.size() + (req.generated > 0 ? req.generated - 1 : 0);
  if (prefix_cache_ != nullptr && req.generated == 0) {
    // Fresh admission: attach the longest cached prefix and reserve room for
    // the rest. Matches are capped at prompt-1 so at least one prompt token
    // always runs to produce the first-token logits.
    const PrefixMatch match = prefix_cache_->match_and_retain(req.prompt, req.prompt.size() - 1);
    if (match.hit()) {
      cache_.attach_prefix(lane, match.blocks, match.tokens);
      if (reserve_with_evict(lane, history - match.tokens)) {
        free_lanes_.pop_back();
        req.lane = lane;
        req.prefix_cached = match.tokens;
        return true;
      }
      // Not even the suffix fits: hand the adopted references back (the tree
      // still holds the blocks) and report the admission failure.
      cache_.free_sequence(lane);
      return false;
    }
  }
  if (!reserve_with_evict(lane, history)) return false;
  free_lanes_.pop_back();
  req.lane = lane;
  return true;
}

StepCost FunctionalTokenBackend::prefill(
    const std::vector<Request*>& admitted, std::size_t active_after) {
  (void)active_after;
  Stopwatch watch;
  // Whole lanes shard across the pool, one workspace per shard.
  auto prefill_one = [&](InferenceWorkspace& ws, Request& r) {
    if (r.generated == 0) {
      // A prefix-cache hit attached seq_len(lane) prompt tokens as ready-made
      // KV blocks; only the suffix is prefilled. Forward rows do not depend
      // on the chunk they land in, so this equals a from-scratch prefill
      // bit-for-bit (pinned).
      const std::size_t attached = cache_.seq_len(r.lane);
      model_.prefill(std::span<const TokenId>(r.prompt).subspan(attached), r.lane,
                     cache_, ws.hidden, ws);
      model_.logits_from_hidden(ws.hidden, logits_rows(r.lane, 1));
    } else {
      // Resume: one chunked prefill of prompt + output[0..n-2] rebuilds the
      // pre-preemption cache bit-exactly (forward rows equal the decode
      // steps that first wrote them). The last output token is not fed: the
      // next decode step feeds it.
      std::vector<TokenId> history(r.prompt);
      history.insert(history.end(), r.output.begin(), r.output.end() - 1);
      model_.prefill(history, r.lane, cache_, {}, ws);
    }
  };
  if (pool_ != nullptr && admitted.size() > 1) {
    pool_->parallel_for(0, admitted.size(), [&](std::size_t shard, std::size_t i) {
      prefill_one(workspaces_[shard], *admitted[i]);
    });
  } else {
    for (Request* r : admitted) prefill_one(workspaces_[0], *r);
  }
  // First-token sampling replays serially in admission order (bit-identical
  // for any worker count). Greedy argmax: deterministic, so a preempted
  // request's recompute reproduces its interrupted output exactly.
  double mean_prompt = 0.0;
  for (Request* r : admitted) {
    if (r->generated == 0) {
      r->output.push_back(static_cast<TokenId>(kernels::argmax(logits_rows(r->lane, 1))));
      r->generated = 1;
    }
    mean_prompt += static_cast<double>(r->prompt_tokens);
  }
  mean_prompt /= static_cast<double>(admitted.size());
  StepCost cost;
  cost.seconds = watch.elapsed_s();
  cost.ctx = mean_prompt;
  if (has_power_proxy()) cost.power_w = proxy_prefill_power_w();
  return cost;
}

bool FunctionalTokenBackend::try_extend(Request& req) {
  ORINSIM_CHECK(req.lane != Request::kNoLane,
                "functional backend: extend on unadmitted request");
  return reserve_with_evict(req.lane, 1);
}

// One decode step over the active set: a draft/verify round when a draft
// model is attached, in which every lane the round cannot speculate on —
// all of them without a draft model — takes one plain step. Phase discipline
// keeps the parallel sections allocation-free: every block the round can
// touch is reserved — and every shared tail copy-on-written — in the serial
// setup, so the paged pool is only ever exercised where a failure can
// downgrade the request to a plain step instead of throwing mid-flight.
StepCost FunctionalTokenBackend::decode_step(const std::vector<Request*>& active) {
  ORINSIM_CHECK(!active.empty(), "functional backend: decode over empty set");
  const std::size_t cap = config_.speculation.draft_tokens;
  const std::size_t d_model = model_.config().d_model;
  const std::size_t vocab = model_.config().vocab;
  double mean_ctx = 0.0;
  for (const Request* r : active) mean_ctx += static_cast<double>(r->context());
  mean_ctx /= static_cast<double>(active.size());

  // Serial setup: plan each lane's round. A request on its final token (or
  // one the pool cannot cover) runs the plain single-token step its
  // try_extend already guaranteed.
  Stopwatch draft_watch;
  verify_lanes_.clear();
  for (Request* r : active) {
    const std::size_t remaining = r->max_new_tokens - r->generated;
    std::size_t k = draft_ != nullptr ? std::min(cap, remaining > 0 ? remaining - 1 : 0) : 0;
    // The verify chunk appends k+1 positions to the lane.
    if (k > 0 && !reserve_with_evict(r->lane, k + 1)) k = 0;
    if (k > 0) {
      const std::size_t branch = branch_of(r->lane);
      cache_.fork_sequence(r->lane, branch);
      // Drop the reservation blocks the fork inherited (they belong to the
      // lane), then pre-copy the shared partial tail and reserve the draft
      // room — after this the branch's appends cannot allocate or
      // copy-on-write, so the parallel draft phase cannot hit the pool.
      cache_.truncate(branch, cache_.seq_len(branch));
      if (!cache_.try_unshare_tail(branch) || !cache_.try_reserve(branch, k)) {
        cache_.free_sequence(branch);
        k = 0;
      }
    }
    plan_k_[r->lane] = k;
    if (k > 0) verify_lanes_.push_back(r->lane);
  }

  // Verify layout: the speculating lanes ordered by k descending (then by
  // lane), each owning k+1 consecutive proposal slots from plan_slot_ (slot
  // 0 the fed token, then its proposals) and the verify logits rows at the
  // same offsets. The lanes still drafting at step i are then a prefix of
  // the order, and the lanes of equal k one contiguous verify chunk.
  std::sort(verify_lanes_.begin(), verify_lanes_.end(), [&](std::size_t a, std::size_t b) {
    return plan_k_[a] != plan_k_[b] ? plan_k_[a] > plan_k_[b] : a < b;
  });
  std::size_t slots = 0;
  for (const std::size_t lane : verify_lanes_) {
    plan_slot_[lane] = slots;
    slots += plan_k_[lane] + 1;
  }
  for (const Request* r : active) {
    if (plan_k_[r->lane] > 0) proposals_[plan_slot_[r->lane]] = r->output.back();
  }

  // Lane-batched draft: step i feeds every lane still drafting (k > i) its
  // slot i on its branch and greedily samples slot i+1. Lane rows are
  // composition-independent: proposals equal width-1 draft steps.
  step_seqs_.clear();
  for (const std::size_t lane : verify_lanes_) step_seqs_.push_back(branch_of(lane));
  for (std::size_t i = 0; i < cap; ++i) {
    step_tokens_.clear();
    for (const std::size_t lane : verify_lanes_) {
      if (plan_k_[lane] <= i) break;
      step_tokens_.push_back(proposals_[plan_slot_[lane] + i]);
    }
    const std::size_t rows = step_tokens_.size();
    if (rows == 0) break;
    draft_->decode(step_tokens_, std::span<const std::size_t>(step_seqs_).first(rows), cache_,
                   logits_rows(0, rows), *draft_ws_);
    for (std::size_t j = 0; j < rows; ++j) {
      proposals_[plan_slot_[verify_lanes_[j]] + i + 1] =
          static_cast<TokenId>(kernels::argmax(logits_rows(j, 1)));
    }
  }

  // Release the branches before the target pass: the lane's shared tail
  // becomes private again, so the verify appends cannot copy-on-write.
  for (const std::size_t lane : verify_lanes_) cache_.free_sequence(branch_of(lane));
  const double draft_s = draft_watch.elapsed_s();

  // Verify: plain lanes take one lane-batched target step; the speculating
  // lanes of each k run one multi-sequence chunk over their slots, k+1 rows
  // per lane (see Model::forward for its kernels and bit contract).
  Stopwatch verify_watch;
  step_tokens_.clear();
  step_seqs_.clear();
  for (const Request* r : active) {
    if (plan_k_[r->lane] > 0) continue;
    step_tokens_.push_back(r->output.back());
    step_seqs_.push_back(r->lane);
  }
  InferenceWorkspace& ws = workspaces_[0];
  if (!step_tokens_.empty()) {
    model_.decode(step_tokens_, step_seqs_, cache_, logits_rows(0, step_tokens_.size()), ws);
  }
  for (std::size_t j0 = 0; j0 < verify_lanes_.size();) {
    const std::size_t k = plan_k_[verify_lanes_[j0]];
    std::size_t j1 = j0 + 1;
    while (j1 < verify_lanes_.size() && plan_k_[verify_lanes_[j1]] == k) ++j1;
    const std::size_t begin = plan_slot_[verify_lanes_[j0]];
    const std::size_t rows = (j1 - j0) * (k + 1);
    ws.ensure_rows(model_.config(), rows);
    const std::span<float> hidden(ws.hidden_rows.data(), rows * d_model);
    model_.forward(std::span<const TokenId>(proposals_.data() + begin, rows),
                   std::span<const std::size_t>(verify_lanes_.data() + j0, j1 - j0), cache_,
                   hidden, ws);
    model_.logits_from_hidden_rows(
        hidden, std::span<float>(verify_logits_.data() + begin * vocab, rows * vocab), rows);
    j0 = j1;
  }

  // Serial acceptance, in active order: keep the longest agreeing prefix,
  // emit the target's corrective token on the first disagreement (or its
  // bonus token after a clean sweep), then roll the lane's KV back to
  // exactly the emitted context — rejected draft positions leave through
  // truncate's decref path, never a raw free.
  std::size_t plain_row = 0;
  for (Request* r : active) {
    const std::size_t k = plan_k_[r->lane];
    if (k == 0) {
      r->output.push_back(static_cast<TokenId>(kernels::argmax(logits_rows(plain_row++, 1))));
      ++r->generated;
      continue;
    }
    const std::size_t slot = plan_slot_[r->lane];
    const float* rows = verify_logits_.data() + slot * vocab;
    const std::size_t start_len = cache_.seq_len(r->lane) - (k + 1);
    std::size_t m = 0;
    for (;;) {
      const TokenId c = static_cast<TokenId>(
          kernels::argmax(std::span<const float>(rows + m * vocab, vocab)));
      if (m < k && c == proposals_[slot + 1 + m]) {
        r->output.push_back(c);
        ++m;
        continue;
      }
      r->output.push_back(c);  // corrective (m < k) or bonus (m == k) token
      break;
    }
    r->generated += m + 1;
    // Keep KV for the fed token plus the m accepted proposals; the
    // corrective/bonus token is the new output.back(), fed next step.
    cache_.truncate(r->lane, start_len + 1 + m);
    ++r->spec.rounds;
    r->spec.accepted += m;
    r->spec.proposed += m + (m < k ? 1 : 0);
    r->spec.emitted += m + 1;
  }
  const double verify_s = verify_watch.elapsed_s();

  StepCost cost;
  cost.seconds = draft_s + verify_s;
  cost.ctx = mean_ctx;
  if (verify_lanes_.empty()) {
    // Every lane ran plain (no draft model, or all on their final token).
    if (has_power_proxy()) cost.power_w = proxy_decode_power_w(active.size(), mean_ctx);
    return cost;
  }
  StepCost::SubStep d;
  d.phase = trace::Phase::kDraft;
  d.seconds = draft_s;
  d.batch = verify_lanes_.size();
  d.ctx = mean_ctx;
  d.participants.reserve(d.batch);
  for (const Request* r : active) {
    if (plan_k_[r->lane] > 0) d.participants.push_back(r->id);
  }
  if (has_power_proxy()) d.power_w = proxy_decode_power_w(d.batch, mean_ctx);
  StepCost::SubStep v;
  v.phase = trace::Phase::kVerify;
  v.seconds = verify_s;
  v.ctx = mean_ctx;
  if (has_power_proxy()) v.power_w = proxy_decode_power_w(active.size(), mean_ctx);
  cost.phases = {std::move(d), std::move(v)};
  return cost;
}

double FunctionalTokenBackend::proxy_prefill_power_w() const {
  const sim::ModelSpec& model = sim::model_by_key(config_.power_proxy_model);
  return proxy_sim_.power_model()
      .prefill_power(model, config_.power_proxy_dtype, proxy_mode_)
      .total_w();
}

double FunctionalTokenBackend::proxy_decode_power_w(std::size_t batch,
                                                    double mean_ctx) const {
  const sim::ModelSpec& model = sim::model_by_key(config_.power_proxy_model);
  const sim::StepBreakdown step = proxy_sim_.roofline().decode_step(
      model, config_.power_proxy_dtype, batch, mean_ctx, proxy_mode_);
  return proxy_sim_.power_model()
      .decode_power(model, config_.power_proxy_dtype, step, proxy_mode_)
      .total_w();
}

bool FunctionalTokenBackend::set_power_mode(const sim::PowerMode& mode) {
  // Without the proxy there is no power model to apply the mode to; telling
  // the governor so keeps it from logging step-downs that change nothing.
  if (!has_power_proxy()) return false;
  proxy_mode_ = mode;
  return true;
}

double FunctionalTokenBackend::idle_power_w() const {
  return has_power_proxy() ? proxy_sim_.power_model().idle_w() : 0.0;
}

void FunctionalTokenBackend::release(Request& req) {
  ORINSIM_CHECK(req.lane != Request::kNoLane,
                "functional backend: release on unadmitted request");
  // Insert-on-retire: the tree retains the prompt's full-block prefix before
  // the lane's references go, so the KV state survives free_sequence. A
  // preempted request (not done) recomputes on resume instead — its partial
  // state may be released mid-block and is not worth caching.
  if (prefix_cache_ != nullptr && req.done()) {
    prefix_cache_->insert(req.prompt, cache_.block_table(req.lane));
  }
  cache_.free_sequence(req.lane);
  free_lanes_.push_back(req.lane);
  req.lane = Request::kNoLane;
}

PrefixCacheStats FunctionalTokenBackend::prefix_cache_stats() const {
  return prefix_cache_ != nullptr ? prefix_cache_->stats() : PrefixCacheStats{};
}

FunctionalTokenBackend::KVUsage FunctionalTokenBackend::kv_usage() const {
  return KVUsage{cache_.blocks_in_use(), cache_.total_blocks(), cache_.block_bytes()};
}

// ---------------------------------------------------------------------------
// run_functional_continuous
// ---------------------------------------------------------------------------

EngineResult run_functional_continuous(std::shared_ptr<const MasterWeights> master,
                                       DType dtype, const workload::PromptPool& pool,
                                       const FunctionalEngineConfig& config) {
  ORINSIM_CHECK(config.arrivals.total_requests > 0 && config.arrivals.rate_rps > 0 &&
                    config.backend.max_lanes > 0,
                "functional engine: degenerate config");
  ORINSIM_CHECK(config.seq.input + config.seq.output <= master->config.max_seq,
                "functional engine: sequence exceeds model max_seq");

  if (config.chat.enabled()) {
    ORINSIM_CHECK(config.chat.prompt_tokens() == config.seq.input,
                  "functional engine: chat system+user tokens must equal seq.input");
  }

  const std::vector<double> arrivals = config.arrivals.generate();
  Rng rng(config.prompt_seed);
  const std::vector<std::vector<TokenId>> prompts =
      config.chat.enabled()
          ? pool.sample_chat_batch(arrivals.size(), config.chat, rng)
          : pool.sample_batch(arrivals.size(), config.seq.input, rng);

  std::vector<Request> requests = requests_from_arrivals(arrivals, config.seq);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].prompt = prompts[i];
    requests[i].prompt_tokens = prompts[i].size();
  }

  Model model(master, dtype);
  // The self-draft pairing: the same master quantized to the draft precision
  // proposes, the target verifies (output provably unchanged).
  std::unique_ptr<Model> draft;
  if (config.backend.speculation.enabled) {
    draft = std::make_unique<Model>(master, config.backend.speculation.draft_dtype);
  }
  FunctionalTokenBackend::Config bc = config.backend;
  bc.max_seq = config.seq.input + config.seq.output;
  FunctionalTokenBackend backend(model, bc, nullptr, draft.get());

  ContinuousPolicy policy(backend, config.governor);
  return policy.run(std::move(requests));
}

}  // namespace orinsim::serving
