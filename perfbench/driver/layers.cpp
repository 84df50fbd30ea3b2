#include "driver/layers.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <unordered_map>

#include "driver/stats.h"

namespace perfbench {

namespace {

// Metrics that do not apply to a run (no samples) report 0.
double or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

double p(const std::vector<double>& v, double pct) { return or_zero(percentile(v, pct)); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A tail metric under the tail rule; records which percentile it reports.
double tail(const std::vector<double>& v, double pct, const std::string& name,
            JsonObject& tails) {
  double used = 0.0;
  const double value = supported_tail(v, pct, &used);
  tails.obj(name, JsonObject().count("samples", v.size()).num("pct", used));
  return or_zero(value);
}

}  // namespace

LayerReport layer_metrics(const LayerInputs& in) {
  const TimingBackend::Records& r = *in.records;
  LayerReport out;

  // ---- Served: join the client's requests to the engine's by prompt, in
  // submission order (the engine numbers requests as they are submitted).
  std::vector<double> head_ms, first_flush_ms, token_flush_us, queue_wait_ms, ttft_ms;
  std::vector<double> conn_wait_ms, lateness_ms;
  if (in.client != nullptr) {
    std::unordered_map<std::uint64_t, std::deque<std::size_t>> by_hash;
    for (const auto& [id, spans] : r.requests) by_hash[spans.prompt_hash].push_back(id);
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < in.client->size(); ++i) {
      if ((*in.client)[i].ok()) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return (*in.client)[a].launch_s < (*in.client)[b].launch_s;
    });
    for (std::size_t i : order) {
      const ClientRecord& c = (*in.client)[i];
      auto it = by_hash.find(in.client_prompt_hash[i]);
      if (it == by_hash.end() || it->second.empty()) continue;
      const TimingBackend::RequestSpans& s = r.requests.at(it->second.front());
      it->second.pop_front();
      if (c.token_s.empty() || s.admit_s < 0.0 || s.prefill_end_s < 0.0) continue;
      ttft_ms.push_back((c.token_s[0] - c.due_s) * 1e3);
      conn_wait_ms.push_back((c.ready_s - c.due_s) * 1e3);
      lateness_ms.push_back((c.launch_s - c.ready_s) * 1e3);
      head_ms.push_back((c.head_s - c.launch_s) * 1e3);
      queue_wait_ms.push_back((s.admit_s - s.arrival_s) * 1e3);
      first_flush_ms.push_back((c.token_s[0] - s.prefill_end_s) * 1e3);
      if (s.preemptions == 0) {
        const std::size_t n = std::min(c.token_s.size() - 1, s.decode_end_s.size());
        for (std::size_t k = 0; k < n; ++k) {
          token_flush_us.push_back((c.token_s[k + 1] - s.decode_end_s[k]) * 1e6);
        }
      }
    }
  }

  // ---- Engine self time: gaps between consecutive backend calls, summed
  // per decode step. A gap after the last lane was released may contain
  // idle waiting for the next arrival, so it is left out.
  std::vector<double> self_us;
  double busy_s = 0.0;
  {
    double bucket = 0.0;
    const TimingBackend::Call* prev = nullptr;
    for (const TimingBackend::Call& c : r.calls) {
      busy_s += c.end_s - c.start_s;
      if (prev != nullptr && !prev->idle_after) bucket += std::max(0.0, c.start_s - prev->end_s);
      if (c.decode) {
        self_us.push_back(bucket * 1e6);
        bucket = 0.0;
      }
      prev = &c;
    }
  }

  // ---- Prefill waves.
  std::vector<double> wave_ms;
  double wave_s = 0.0;
  std::size_t wave_requests = 0, computed = 0, recompute = 0;
  for (const TimingBackend::Wave& w : r.waves) {
    wave_ms.push_back((w.end_s - w.start_s) * 1e3);
    wave_s += w.end_s - w.start_s;
    wave_requests += w.requests;
    computed += w.computed_tokens;
    recompute += w.recompute_tokens;
  }

  // ---- Decode steps.
  std::vector<double> step_ms, kv_util;
  double step_s = 0.0, ctx_sum = 0.0, bytes = 0.0;
  std::size_t lanes = 0, kv_peak = 0;
  for (const TimingBackend::Step& s : r.steps) {
    step_ms.push_back((s.end_s - s.start_s) * 1e3);
    step_s += s.end_s - s.start_s;
    lanes += s.lanes;
    ctx_sum += s.ctx_sum;
    // Computed bytes: every weight once per step, plus each lane's KV rows
    // at its context (bytes per token from the pool's block size).
    const double kv_bytes_per_token =
        in.block_tokens > 0 ? static_cast<double>(s.kv_block_bytes) /
                                  static_cast<double>(in.block_tokens)
                            : 0.0;
    bytes += static_cast<double>(in.weight_bytes) + s.ctx_sum * kv_bytes_per_token;
    if (s.kv_total > 0) {
      kv_util.push_back(static_cast<double>(s.kv_used) / static_cast<double>(s.kv_total));
    }
    kv_peak = std::max(kv_peak, s.kv_used);
  }

  // ---- Prefix cache, as deltas over the measured window.
  const auto& pc0 = r.prefix_at_reset;
  const auto& pc1 = r.prefix_at_snapshot;
  const double lookups = static_cast<double>(pc1.lookups - pc0.lookups);
  const double hits = static_cast<double>(pc1.hits - pc0.hits);
  const double hit_tokens = static_cast<double>(pc1.hit_tokens - pc0.hit_tokens);
  double prompt_tokens = 0.0;
  for (const auto& [id, spans] : r.requests) {
    if (spans.admit_s >= 0.0) prompt_tokens += static_cast<double>(spans.prompt_tokens);
  }

  const double decode_steps = static_cast<double>(r.steps.size());
  const double lanes_d = static_cast<double>(lanes);
  JsonObject& m = out.metrics;
  m.num("server.head_ms.p50", p(head_ms, 50.0))
      .num("server.head_ms.p95", tail(head_ms, 95.0, "server.head_ms.p95", out.tails))
      .num("server.first_flush_ms.p50", p(first_flush_ms, 50.0))
      .num("server.token_flush_us.p50", p(token_flush_us, 50.0))
      .count("server.rejected", in.rejected)
      .count("server.conn_errors", in.conn_errors)
      .num("engine_host.queue_wait_ms.p50", p(queue_wait_ms, 50.0))
      .num("engine_host.queue_wait_ms.p95",
           tail(queue_wait_ms, 95.0, "engine_host.queue_wait_ms.p95", out.tails))
      .num("engine.self_us_per_step.p50", p(self_us, 50.0))
      .num("engine.busy_frac", ratio(busy_s, in.wall_s))
      .count("engine.decode_steps", r.steps.size())
      .num("engine.batch_mean", ratio(lanes_d, decode_steps))
      .count("engine.prefill_waves", r.waves.size())
      .num("engine.prefill_batch_mean",
           ratio(static_cast<double>(wave_requests), static_cast<double>(r.waves.size())))
      .count("engine.preemptions", r.preemptions)
      .count("engine.admit_refusals", r.admit_refusals)
      .num("prefix_cache.hit_rate", ratio(hits, lookups))
      .num("prefix_cache.hit_token_frac", ratio(hit_tokens, prompt_tokens))
      .count("prefix_cache.evicted_blocks", pc1.evicted_blocks - pc0.evicted_blocks)
      .num("backend.admit_us.p50", p(r.admit_s, 50.0) * 1e6)
      .num("backend.release_us.p50", p(r.release_s, 50.0) * 1e6)
      .num("model.prefill_ms.p50", p(wave_ms, 50.0))
      .num("model.prefill_us_per_token", ratio(wave_s * 1e6, static_cast<double>(computed)))
      .num("model.decode_step_ms.p50", p(step_ms, 50.0))
      .num("model.decode_step_ms.p99", tail(step_ms, 99.0, "model.decode_step_ms.p99", out.tails))
      .num("model.decode_us_per_lane_token", ratio(step_s * 1e6, lanes_d))
      .num("model.decode_ctx_mean", ratio(ctx_sum, lanes_d))
      .num("model.decode_gbps", ratio(bytes / 1e9, step_s))
      .count("model.recompute_tokens", recompute)
      .num("kv.util_mean", or_zero(mean(kv_util)))
      .count("kv.blocks_peak", kv_peak)
      .count("kv.extend_refusals", r.extend_refusals)
      .num("kv.extend_us.p50", p(r.extend_s, 50.0) * 1e6);

  if (in.client != nullptr) {
    // TTFT from the due time = connection wait + generator lateness +
    // connect-to-head + queue wait + prefill + first flush (head and queue
    // wait overlap by the time it takes to send the head).
    const double parts = p(head_ms, 50.0) + p(queue_wait_ms, 50.0) + p(wave_ms, 50.0) +
                         p(first_flush_ms, 50.0);
    const double ttft = p(ttft_ms, 50.0);
    out.decomposition.count("joined_requests", ttft_ms.size())
        .num("ttft_p50_ms", ttft)
        .num("server.head_ms.p50", p(head_ms, 50.0))
        .num("engine_host.queue_wait_ms.p50", p(queue_wait_ms, 50.0))
        .num("model.prefill_ms.p50", p(wave_ms, 50.0))
        .num("server.first_flush_ms.p50", p(first_flush_ms, 50.0))
        .num("parts_sum_ms", parts)
        .num("coverage", ratio(parts, ttft))
        .num("connection_wait_ms.p50", p(conn_wait_ms, 50.0))
        .num("generator_lateness_ms.p50", p(lateness_ms, 50.0));
  }
  return out;
}

}  // namespace perfbench
