#include "fleet/router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/error.h"
#include "core/stats.h"
#include "trace/export.h"

namespace orinsim::fleet {

namespace {

// FNV-1a over the little-endian bytes of a token-id prefix: the stable
// request key prefix_affinity hashes. Stable across platforms (no
// pointer/locale input), so routing decisions are reproducible.
std::uint64_t fnv1a_prefix(const std::vector<TokenId>& tokens, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::uint32_t>(tokens[i]);
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// SplitMix64 finalizer: the rendezvous weight mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// End-of-first-prefill time per request id (the first-token instant), or
// < 0 for requests that never reached a prefill wave. Walks the admit
// events in chronological order with a monotone cursor into the step
// stream: a request's first token materializes at the end of the first
// kPrefill event starting at (or after) its first admission — admissions
// sharing a timestamp share that wave.
std::vector<double> first_token_times(const serving::EngineResult& result) {
  const trace::ExecutionTimeline& tl = result.timeline;
  const auto& steps = tl.events();
  std::vector<double> first_token(tl.requests().size(), -1.0);
  std::vector<bool> seen(tl.requests().size(), false);
  std::size_t cursor = 0;
  for (const trace::RequestEvent& ev : tl.request_events()) {
    if (ev.kind != trace::RequestEventKind::kAdmit) continue;
    if (ev.request_id >= seen.size() || seen[ev.request_id]) continue;
    seen[ev.request_id] = true;
    while (cursor < steps.size() &&
           !(steps[cursor].phase == trace::Phase::kPrefill &&
             steps[cursor].t_start_s >= ev.t_s - 1e-12)) {
      ++cursor;
    }
    if (cursor < steps.size()) {
      first_token[ev.request_id] =
          steps[cursor].t_start_s + steps[cursor].duration_s;
    }
  }
  return first_token;
}

}  // namespace

std::string route_policy_name(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return "round_robin";
    case RoutePolicy::kShortestQueue:
      return "shortest_queue";
    case RoutePolicy::kPowerHeadroom:
      return "power_headroom";
    case RoutePolicy::kPrefixAffinity:
      return "prefix_affinity";
  }
  return "unknown";
}

RoutePolicy route_policy_by_name(const std::string& name) {
  for (RoutePolicy p : all_route_policies()) {
    if (route_policy_name(p) == name) return p;
  }
  ORINSIM_CHECK(false, "unknown route policy: " + name);
  return RoutePolicy::kRoundRobin;
}

const std::vector<RoutePolicy>& all_route_policies() {
  static const std::vector<RoutePolicy> kAll = {
      RoutePolicy::kRoundRobin, RoutePolicy::kShortestQueue,
      RoutePolicy::kPowerHeadroom, RoutePolicy::kPrefixAffinity};
  return kAll;
}

PercentileSummary PercentileSummary::from(std::vector<double> values) {
  PercentileSummary s;
  s.count = values.size();
  if (!values.empty()) {
    s.p50_s = percentile(values, 50.0);
    s.p99_s = percentile(values, 99.0);
  }
  return s;
}

std::vector<double> request_ttfts(const serving::EngineResult& result) {
  const std::vector<double> first_token = first_token_times(result);
  const auto& records = result.timeline.requests();
  std::vector<double> ttfts;
  for (std::size_t id = 0; id < records.size(); ++id) {
    if (!records[id].completed || first_token[id] < 0.0) continue;
    ttfts.push_back(first_token[id] - records[id].arrival_s);
  }
  return ttfts;
}

std::vector<double> request_tpots(const serving::EngineResult& result) {
  const std::vector<double> first_token = first_token_times(result);
  const auto& records = result.timeline.requests();
  std::vector<double> tpots;
  for (std::size_t id = 0; id < records.size(); ++id) {
    if (!records[id].completed || first_token[id] < 0.0) continue;
    if (id >= result.requests.size()) continue;
    const std::size_t generated = result.requests[id].generated;
    if (generated < 2) continue;
    tpots.push_back((records[id].finish_s - first_token[id]) /
                    static_cast<double>(generated - 1));
  }
  return tpots;
}

std::string FleetResult::to_chrome_trace_json() const {
  std::vector<const trace::ExecutionTimeline*> timelines;
  timelines.reserve(devices.size());
  for (const serving::EngineResult& r : devices) timelines.push_back(&r.timeline);
  return trace::to_chrome_trace_json_multi(timelines, device_names);
}

FleetRouter::FleetRouter(std::vector<std::unique_ptr<serving::ServingDevice>> devices,
                         RouterOptions options)
    : devices_(std::move(devices)), options_(options) {
  ORINSIM_CHECK(!devices_.empty(), "fleet: at least one device required");
  for (std::size_t i = 0; i < devices_.size(); ++i) devices_[i]->set_device_id(i);
}

std::size_t FleetRouter::route(const serving::Request& req) {
  const std::size_t n = devices_.size();
  switch (options_.policy) {
    case RoutePolicy::kRoundRobin:
      return rr_next_++ % n;

    case RoutePolicy::kShortestQueue: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (devices_[i]->load() < devices_[best]->load()) best = i;
      }
      return best;
    }

    case RoutePolicy::kPowerHeadroom: {
      // Lexicographic: not-deferring beats deferring, then the largest
      // power-cap headroom, then the lighter load, then the lower index.
      // Devices without a cap report infinite headroom (nothing to respect).
      auto headroom = [&](std::size_t i) {
        const double cap = devices_[i]->power_cap_w();
        return cap > 0.0 ? cap - devices_[i]->mean_power_w()
                         : std::numeric_limits<double>::infinity();
      };
      std::size_t best = 0;
      for (std::size_t i = 1; i < n; ++i) {
        const bool bd = devices_[best]->governor_deferring();
        const bool id = devices_[i]->governor_deferring();
        if (id != bd) {
          if (!id) best = i;
          continue;
        }
        const double hb = headroom(best);
        const double hi = headroom(i);
        if (hi != hb) {
          if (hi > hb) best = i;
          continue;
        }
        if (devices_[i]->load() < devices_[best]->load()) best = i;
      }
      return best;
    }

    case RoutePolicy::kPrefixAffinity: {
      // Requests without materialized prompts carry no prefix to hash; fall
      // back to least load so they at least balance.
      if (req.prompt.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
          if (devices_[i]->load() < devices_[best]->load()) best = i;
        }
        return best;
      }
      // Rendezvous (highest-random-weight) hashing: stable per prefix, and
      // adding/removing a device only remaps that device's share.
      const std::size_t prefix =
          std::min(options_.affinity_tokens, req.prompt.size());
      const std::uint64_t key = fnv1a_prefix(req.prompt, prefix);
      std::size_t best = 0;
      std::uint64_t best_w = mix64(key ^ mix64(1));
      for (std::size_t i = 1; i < n; ++i) {
        const std::uint64_t w = mix64(key ^ mix64(i + 1));
        if (w > best_w) {
          best_w = w;
          best = i;
        }
      }
      return best;
    }
  }
  return 0;
}

FleetResult FleetRouter::run(std::vector<serving::Request> requests) {
  for (std::size_t i = 1; i < requests.size(); ++i) {
    ORINSIM_CHECK(requests[i].arrival_s >= requests[i - 1].arrival_s,
                  "fleet: arrivals must be dispatched in global time order");
  }

  FleetResult out;
  out.policy = options_.policy;
  out.device_of_request.reserve(requests.size());

  for (serving::Request& req : requests) {
    const double t = req.arrival_s;
    // Advance every device's virtual clock to the arrival instant so the
    // policy reads queue depths / power / governor state as of time t. Safe
    // because dispatch order is global arrival order: a device's pending
    // arrivals are never later than t, so it cannot stall-jump past t.
    for (auto& device : devices_) {
      while (!device->idle() && device->now() < t) device->step();
    }
    const std::size_t target = route(req);
    out.device_of_request.push_back(target);
    devices_[target]->submit(std::move(req));
  }
  for (auto& device : devices_) {
    while (device->step() == serving::ContinuousEngine::Step::kWorked) {
    }
  }

  std::vector<double> ttfts;
  std::vector<double> tpots;
  std::vector<double> latencies;
  std::size_t within_slo = 0;
  for (auto& device : devices_) {
    out.device_names.push_back(device->name());
    serving::EngineResult r = device->finish();
    out.makespan_s = std::max(out.makespan_s, r.makespan_s);
    out.completed += r.latencies_s.size();
    for (double lat : r.latencies_s) {
      latencies.push_back(lat);
      if (options_.slo_s > 0.0 && lat > options_.slo_s) {
        ++out.slo_violations;
      } else {
        ++within_slo;
      }
    }
    for (double v : request_ttfts(r)) ttfts.push_back(v);
    for (double v : request_tpots(r)) tpots.push_back(v);
    out.energy_j += r.energy_j;
    out.total_tokens += r.total_tokens;
    out.governor_step_downs += r.governor_step_downs;
    out.preemptions += r.preemptions;
    out.prefix_cache.lookups += r.prefix_cache.lookups;
    out.prefix_cache.hits += r.prefix_cache.hits;
    out.prefix_cache.misses += r.prefix_cache.misses;
    out.prefix_cache.hit_tokens += r.prefix_cache.hit_tokens;
    out.prefix_cache.bytes_saved += r.prefix_cache.bytes_saved;
    out.prefix_cache.inserted_blocks += r.prefix_cache.inserted_blocks;
    out.prefix_cache.evicted_blocks += r.prefix_cache.evicted_blocks;
    out.devices.push_back(std::move(r));
  }
  out.goodput_rps =
      out.makespan_s > 0.0 ? static_cast<double>(within_slo) / out.makespan_s : 0.0;
  out.ttft = PercentileSummary::from(std::move(ttfts));
  out.tpot = PercentileSummary::from(std::move(tpots));
  out.latency = PercentileSummary::from(std::move(latencies));
  out.energy_per_token_j =
      out.total_tokens > 0 ? out.energy_j / static_cast<double>(out.total_tokens) : 0.0;
  return out;
}

std::vector<serving::Request> sim_fleet_requests(const SimFleetConfig& config) {
  ORINSIM_CHECK(config.tenants > 0, "fleet: tenants must be > 0");
  std::vector<serving::Request> requests =
      serving::requests_from_arrivals(config.arrivals.generate(), config.seq);
  Rng rng(config.prompt_seed);
  ZipfSampler tenant_ranks(config.tenants, config.tenant_zipf_s);
  const std::size_t prefix =
      std::min(config.options.affinity_tokens, config.seq.input);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Tenant-tagged prompt: a shared per-tenant prefix (what prefix_affinity
    // hashes and a prefix cache would reuse) plus a unique per-request tail.
    // The sim backend never reads these tokens; they exist for routing.
    const std::size_t tenant = tenant_ranks.sample(rng);
    std::vector<TokenId>& prompt = requests[i].prompt;
    prompt.resize(config.seq.input);
    for (std::size_t j = 0; j < config.seq.input; ++j) {
      prompt[j] = j < prefix ? static_cast<TokenId>(1 + tenant)
                             : static_cast<TokenId>(1 + config.tenants + i);
    }
  }
  return requests;
}

FleetResult run_sim_fleet(const SimFleetConfig& config, RoutePolicy policy) {
  ORINSIM_CHECK(!config.devices.empty(), "fleet: no devices configured");
  std::vector<std::unique_ptr<serving::ServingDevice>> devices;
  devices.reserve(config.devices.size());
  for (const serving::ServingDevice::SimConfig& dc : config.devices) {
    devices.push_back(std::make_unique<serving::ServingDevice>(dc));
  }
  RouterOptions options = config.options;
  options.policy = policy;
  FleetRouter router(std::move(devices), options);
  return router.run(sim_fleet_requests(config));
}

}  // namespace orinsim::fleet
