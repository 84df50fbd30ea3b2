// Edge serving planner: given a model, a request arrival rate and a latency
// SLO, find the cheapest setting that meets the SLO — the operational
// version of the paper's §3.1 batch-size trade-off.
//
// Two scheduling policies, selected with --policy:
//  - static (default): the paper's regime. Sweep max-batch; each batch runs
//    to completion before the next launches.
//  - continuous: token-level admit/retire (Orca/vLLM style) on the same
//    hardware model. Sweep max concurrency; requests join and leave the
//    running batch at decode-step granularity.
//
// The continuous path runs through the unified serving engine, so every row
// also reports per-request energy attribution (J/request and J/token summed
// off the event stream, conserving the timeline total). --power-cap-w puts
// the engine's power governor in the loop: when a step exceeds the cap the
// governor walks the Table 2 GPU-frequency ladder (MaxN -> A -> B) and the
// step-down count shows up as its own column.
//
// --prefix-cache switches to the functional nano engine under chat-style
// traffic (Zipfian shared system prompts + per-user suffixes) and compares
// a run with the cross-request prefix cache against the same run without:
// hit rate, prefill tokens skipped, and the TTFT relief cache hits deliver.
//
// --speculative switches to the functional nano engine and compares plain
// greedy serving against speculative draft/verify serving (same master as
// the target, quantized to INT8, proposing 4 tokens per round): acceptance
// rate, tokens per verification round, and the target-pass reduction.
// Kernels are forced scalar so the two token streams must be bit-identical
// (the speculative contract).
//
// Run: ./edge_serving_planner [--model=llama3] [--rps=2.0] [--slo-s=30]
//                             [--requests=96] [--dtype=fp16]
//                             [--policy=static|continuous] [--power-cap-w=0]
//                             [--prefix-cache] [--speculative]
#include <cstdio>
#include <vector>

#include "core/cli.h"
#include "core/stats.h"
#include "core/table.h"
#include "core/units.h"
#include "serving/engine.h"
#include "serving/serving_device.h"
#include "tensor/simd.h"
#include "workload/corpus.h"

using namespace orinsim;
using namespace orinsim::serving;

namespace {

std::vector<Request> request_stream(double rps, std::size_t requests,
                                    const workload::SeqConfig& seq) {
  workload::ArrivalConfig arrivals;
  arrivals.rate_rps = rps;
  arrivals.total_requests = requests;
  return requests_from_arrivals(arrivals.generate(), seq);
}

double achieved_rps(const EngineResult& r) {
  return r.makespan_s > 0.0 ? static_cast<double>(r.latencies_s.size()) / r.makespan_s
                            : 0.0;
}

int plan_static(const std::string& model, DType dtype, double rps, double slo_s,
                std::size_t requests) {
  SimSession session(model, dtype, workload::Dataset::kWikiText2);
  const workload::SeqConfig seq = workload::seq_config_default();
  Table table({"max batch", "batches", "mean occupancy", "p95 latency (s)",
               "achieved req/s", "energy/request (J)", "meets SLO"});
  std::size_t best_batch = 0;
  double best_energy = 1e99;
  for (std::size_t max_batch : {1, 2, 4, 8, 16, 32, 64}) {
    const EngineResult r =
        StaticBatchPolicy(session, max_batch, seq).run(request_stream(rps, requests, seq));
    const double energy_per_req = r.energy_per_request_j();
    const bool meets = r.p95_latency_s() <= slo_s;
    table.new_row()
        .add_cell(std::to_string(max_batch))
        .add_cell(std::to_string(r.decode_steps))
        .add_number(r.timeline.mean_batch(trace::Phase::kDecode), 1)
        .add_number(r.p95_latency_s(), 1)
        .add_number(achieved_rps(r), 2)
        .add_number(energy_per_req, 0)
        .add_cell(meets ? "yes" : "no");
    if (meets && energy_per_req < best_energy) {
      best_energy = energy_per_req;
      best_batch = max_batch;
    }
  }
  std::fputs(table.to_markdown().c_str(), stdout);

  if (best_batch == 0) {
    std::printf("\nNo max-batch setting meets the SLO at %.1f req/s. Lower the arrival\n",
                rps);
    std::printf("rate, relax the SLO, or use a smaller/more quantized model.\n");
    return 1;
  }
  std::printf("\nRecommendation: max batch %zu (%.0f J/request within the %.0f s SLO).\n",
              best_batch, best_energy, slo_s);
  std::printf("The paper's trade-off in action: larger batches raise throughput but\n");
  std::printf("delay each request's time-to-last-token (section 3.1).\n");
  return 0;
}

int plan_continuous(const std::string& model, DType dtype, double rps, double slo_s,
                    std::size_t requests, double power_cap_w) {
  Table table({"concurrency", "mean active", "p95 latency (s)", "achieved req/s",
               "J/request", "J/token", "step-downs", "meets SLO"});
  std::size_t best_cap = 0;
  double best_energy = 1e99;
  const sim::MemoryModel memory;
  const sim::ModelSpec& spec = sim::model_by_key(model);
  const workload::SeqConfig seq = workload::seq_config_default();
  for (std::size_t cap : {1, 2, 4, 8, 16, 32, 64}) {
    // Memory gate: steady state is `cap` sequences at full length.
    if (!memory.workload_fits(spec, dtype, cap, seq.input, seq.output)) {
      table.new_row()
          .add_cell(std::to_string(cap))
          .add_cell("-")
          .add_cell("-")
          .add_cell("-")
          .add_cell("-")
          .add_cell("-")
          .add_cell("-")
          .add_cell("OOM");
      continue;  // this concurrency does not fit in device memory
    }
    ServingDevice::SimConfig dc;
    dc.model_key = model;
    dc.dtype = dtype;
    dc.max_concurrency = cap;
    dc.seq = seq;
    dc.governor.power_cap_w = power_cap_w;  // 0 leaves the governor off
    ServingDevice device(dc);
    const EngineResult r = device.run(request_stream(rps, requests, seq));
    // Energy columns come from per-request attribution off the event stream
    // (their sum conserves the timeline total by construction).
    const double energy_per_req = r.energy_per_request_j();
    const bool meets = r.p95_latency_s() <= slo_s;
    table.new_row()
        .add_cell(std::to_string(cap))
        .add_number(r.mean_active, 1)
        .add_number(r.p95_latency_s(), 1)
        .add_number(achieved_rps(r), 2)
        .add_number(energy_per_req, 0)
        .add_number(r.energy_per_token_j(), 2)
        .add_cell(std::to_string(r.governor_step_downs))
        .add_cell(meets ? "yes" : "no");
    if (meets && energy_per_req < best_energy) {
      best_energy = energy_per_req;
      best_cap = cap;
    }
  }
  std::fputs(table.to_markdown().c_str(), stdout);
  if (power_cap_w > 0.0) {
    std::printf("\nGovernor active: steps exceeding %.0f W walk the GPU-frequency\n",
                power_cap_w);
    std::printf("ladder (MaxN -> A -> B); at the ladder floor admissions defer until\n");
    std::printf("the batch shrinks under the cap.\n");
  }

  if (best_cap == 0) {
    std::printf("\nNo concurrency cap meets the SLO at %.1f req/s. Lower the arrival\n",
                rps);
    std::printf("rate, relax the SLO, or use a smaller/more quantized model.\n");
    return 1;
  }
  std::printf("\nRecommendation: max concurrency %zu (%.0f J/request within the %.0f s SLO).\n",
              best_cap, best_energy, slo_s);
  std::printf("Token-level admission retires each request at its own last token, so\n");
  std::printf("early finishers never wait out a batch — the \"dedicated inference\n");
  std::printf("engine\" step the paper's conclusion points to.\n");
  return 0;
}

// Chat traffic on the functional nano engine, prefix cache off vs on. The
// planner question this answers: how much TTFT does KV reuse buy when a few
// system prompts dominate the arrival stream (the chat-serving common case)?
int plan_prefix_cache(std::size_t requests) {
  const workload::Corpus corpus =
      workload::generate_corpus(workload::CorpusSpec::wikitext2());
  const Tokenizer tokenizer = Tokenizer::train(corpus.text, 400);
  const workload::PromptPool pool(corpus, tokenizer, 256);
  auto master = MasterWeights::init_random(
      make_nano_config("llama3", tokenizer.vocab_size()), 7);

  FunctionalEngineConfig cfg;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = 1000.0;  // flooded: TTFT is pure prefill time
  cfg.arrivals.total_requests = requests;
  cfg.seq = workload::SeqConfig{288, 256, 32};
  cfg.backend.max_lanes = 1;  // one lane: every admission is its own prefill
  cfg.backend.kv_blocks = 128;      // the lane plus all cached system-prompt chains
  cfg.chat.system_prompts = 4;
  cfg.chat.zipf_s = 1.1;
  cfg.chat.system_tokens = 224;
  cfg.chat.user_tokens = 32;

  const EngineResult off = run_functional_continuous(master, DType::kF32, pool, cfg);
  cfg.backend.prefix_cache = true;
  const EngineResult on = run_functional_continuous(master, DType::kF32, pool, cfg);

  // TTFT per request: first admission to the end of its prefill wave.
  const auto ttfts = [](const EngineResult& r) {
    std::vector<double> out(r.requests.size(), 0.0);
    std::vector<bool> seen(r.requests.size(), false);
    for (const trace::RequestEvent& ev : r.timeline.request_events()) {
      if (ev.kind != trace::RequestEventKind::kAdmit || seen[ev.request_id]) continue;
      seen[ev.request_id] = true;
      for (const trace::StepEvent& step : r.timeline.events()) {
        if (step.phase == trace::Phase::kPrefill && step.t_start_s >= ev.t_s - 1e-12) {
          out[ev.request_id] = step.t_end_s() - ev.t_s;
          break;
        }
      }
    }
    return out;
  };
  const std::vector<double> ttft_off = ttfts(off);
  const std::vector<double> ttft_on = ttfts(on);

  const auto& pc = on.prefix_cache;
  Table table({"Engine", "hit rate", "tokens skipped", "TTFT p50 (ms)",
               "TTFT p95 (ms)", "p95 latency (s)"});
  table.new_row()
      .add_cell("cache off")
      .add_cell("-")
      .add_cell("0")
      .add_number(1e3 * percentile(ttft_off, 50.0), 3)
      .add_number(1e3 * percentile(ttft_off, 95.0), 3)
      .add_number(off.p95_latency_s(), 3);
  table.new_row()
      .add_cell("cache on")
      .add_cell(format_double(100.0 * pc.hit_rate(), 1) + " %")
      .add_cell(std::to_string(pc.hit_tokens))
      .add_number(1e3 * percentile(ttft_on, 50.0), 3)
      .add_number(1e3 * percentile(ttft_on, 95.0), 3)
      .add_number(on.p95_latency_s(), 3);
  std::fputs(table.to_markdown().c_str(), stdout);

  bool identical = on.requests.size() == off.requests.size();
  for (std::size_t i = 0; identical && i < on.requests.size(); ++i) {
    identical = on.requests[i].output == off.requests[i].output;
  }
  std::printf("\nToken streams %s across the two runs (the cache only skips\n",
              identical ? "are bit-identical" : "DIVERGED");
  std::printf("prefill work it can replay exactly; it never changes a token).\n");
  std::printf("%zu of %zu admissions reused a cached system prompt, skipping %zu\n",
              pc.hits, pc.lookups, pc.hit_tokens);
  std::printf("prefill tokens (%zu KV bytes not recomputed).\n", pc.bytes_saved);
  return identical && pc.hits > 0 ? 0 : 1;
}

// Plain vs speculative serving on the functional nano engine. The planner
// question: how many target passes does a cheap draft save, and does the
// stream stay exactly greedy? Scalar kernels make the comparison exact —
// any divergence is a bug, not a rounding artifact.
int plan_speculative(std::size_t requests) {
  const simd::Level prev = simd::active_level();
  simd::set_level(simd::Level::kScalar);

  const workload::Corpus corpus =
      workload::generate_corpus(workload::CorpusSpec::wikitext2());
  const Tokenizer tokenizer = Tokenizer::train(corpus.text, 400);
  const workload::PromptPool pool(corpus, tokenizer, 256);
  auto master = MasterWeights::init_random(
      make_nano_config("llama3", tokenizer.vocab_size()), 7);

  FunctionalEngineConfig cfg;
  cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = 1000.0;  // flooded: pure decode throughput
  cfg.arrivals.total_requests = requests;
  cfg.seq = workload::SeqConfig{96, 32, 64};  // the paper's default split
  cfg.backend.max_lanes = 2;

  const EngineResult plain = run_functional_continuous(master, DType::kF32, pool, cfg);
  cfg.backend.speculation.enabled = true;
  cfg.backend.speculation.draft_tokens = 4;
  cfg.backend.speculation.draft_dtype = DType::kI8;
  const EngineResult spec = run_functional_continuous(master, DType::kF32, pool, cfg);
  simd::set_level(prev);

  const auto generated = [](const EngineResult& r) {
    std::size_t n = 0;
    for (const Request& rq : r.requests) n += rq.output.size();
    return n;
  };
  Table table({"Engine", "tokens", "target passes", "acceptance",
               "tokens/round", "p95 latency (s)"});
  table.new_row()
      .add_cell("plain greedy")
      .add_cell(std::to_string(generated(plain)))
      .add_cell(std::to_string(plain.decode_steps))
      .add_cell("-")
      .add_cell("1.00")
      .add_number(plain.p95_latency_s(), 3);
  table.new_row()
      .add_cell("speculative")
      .add_cell(std::to_string(generated(spec)))
      .add_cell(std::to_string(spec.decode_steps))
      .add_cell(format_double(100.0 * spec.speculation.acceptance_rate(), 1) + " %")
      .add_number(spec.speculation.tokens_per_round(), 2)
      .add_number(spec.p95_latency_s(), 3);
  std::fputs(table.to_markdown().c_str(), stdout);

  bool identical = spec.requests.size() == plain.requests.size();
  for (std::size_t i = 0; identical && i < spec.requests.size(); ++i) {
    identical = spec.requests[i].output == plain.requests[i].output;
  }
  std::printf("\nToken streams %s across the two runs (speculation only skips\n",
              identical ? "are bit-identical" : "DIVERGED");
  std::printf("target passes whose outcome the draft already produced; it never\n");
  std::printf("changes a token).\n");
  std::printf("%zu rounds verified %zu proposals, accepted %zu, emitted %zu tokens\n",
              spec.speculation.rounds, spec.speculation.proposed,
              spec.speculation.accepted, spec.speculation.emitted);
  std::printf("in %zu target passes (plain greedy needed %zu).\n", spec.decode_steps,
              plain.decode_steps);
  return identical && spec.decode_steps < plain.decode_steps ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string model = args.get("model", "llama3");
  const DType dtype = parse_dtype(args.get("dtype", "fp16"));
  const double rps = args.get_double("rps", 2.0);
  const double slo_s = args.get_double("slo-s", 30.0);
  const auto requests = static_cast<std::size_t>(args.get_int("requests", 96));
  const std::string policy = args.get("policy", "static");
  const double power_cap_w = args.get_double("power-cap-w", 0.0);

  if (args.get_bool("speculative", false)) {
    std::printf("Speculative planning: functional nano engine, plain vs draft/verify, "
                "%zu requests\n\n",
                std::min<std::size_t>(requests, 12));
    return plan_speculative(std::min<std::size_t>(requests, 12));
  }
  if (args.get_bool("prefix-cache", false)) {
    std::printf("Prefix-cache planning: functional nano engine, chat traffic, "
                "%zu requests\n\n",
                std::min<std::size_t>(requests, 16));
    return plan_prefix_cache(std::min<std::size_t>(requests, 16));
  }

  std::printf("Planning %s (%s) on Orin AGX: %.1f req/s arrivals, p95 SLO %.0f s, %s batching\n\n",
              model.c_str(), dtype_name(dtype).c_str(), rps, slo_s, policy.c_str());

  if (policy == "continuous") {
    return plan_continuous(model, dtype, rps, slo_s, requests, power_cap_w);
  }
  if (policy == "static") return plan_static(model, dtype, rps, slo_s, requests);
  std::printf("Unknown --policy=%s (expected static or continuous)\n", policy.c_str());
  return 2;
}
