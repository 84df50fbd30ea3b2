// Microbench for the batched-decode hot path on the functional nano engine.
//
// A lane-batched section compares a loop of width-1 Model::forward calls
// against generate()'s one multi-lane forward per step (Model::decode, split
// over kernel_pool()) and against the same prompts served through
// FunctionalTokenBackend, on one thread per dtype; int4 batched must reach
// >= 2x under --strict, and every dtype's generate and served token streams
// must match the loop bit for bit (the run exits 1 if they do not).
//
// A serving section compares policies on the same functional engine: the
// paper's static batching (batch runs to completion) against the
// continuous request-lifecycle engine over the paged KV cache, reporting
// measured tokens/s and the peak KV bytes each policy actually touches.
// Exits non-zero if the continuous run drops a request or its paged cache
// peaks above the static policy's dense reservation.
//
// A prefix-cache section serves chat traffic with the cache off and on:
// tokens must match, counters must conserve, and the median hit/miss TTFT
// ratio over 5 off/on pairs must reach >= 5x (its min-max spread is
// printed).
//
// A speculative section serves the same engine with an INT8 self-draft
// (K=4): scalar streams must stay bit-identical to plain greedy, and under
// --strict the rounds must deliver >= 1.3x decode tok/s at >= 80%
// acceptance.
//
//   bench_decode_throughput [--lanes=8] [--new-tokens=64] [--family=llama3]
//                           [--serving-requests=24] [--csv] [--strict]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/stats.h"
#include "core/stopwatch.h"
#include "core/table.h"
#include "core/units.h"
#include "model/transformer.h"
#include "serving/engine.h"
#include "tensor/simd.h"
#include "train/readout_trainer.h"
#include "workload/corpus.h"

using namespace orinsim;

namespace {

struct RunStats {
  double decode_s = 0.0;
  double decode_tps = 0.0;
  std::vector<std::vector<TokenId>> outputs;
};

// generate()'s greedy batch: each decode step is one Model::decode over the
// active lanes.
RunStats run_batched(Model& model, const std::vector<std::vector<TokenId>>& prompts,
                     std::size_t new_tokens) {
  trace::ExecutionTimeline tl;
  Stopwatch watch;
  Model::GenerateResult r = model.generate(prompts, new_tokens, nullptr, &tl);
  const double total_s = watch.elapsed_s();
  RunStats s;
  s.decode_s = tl.phase_time_s(trace::Phase::kDecode);
  if (s.decode_s <= 0.0) s.decode_s = total_s;  // degenerate tiny runs
  s.decode_tps = static_cast<double>(r.output_tokens) / s.decode_s;
  s.outputs = std::move(r.outputs);
  return s;
}

// The looped baseline: generate()'s greedy schedule, with every decode step
// issued as one width-1 forward per active lane, so each weight row streams
// once per lane instead of once per step.
RunStats run_looped(Model& model, const std::vector<std::vector<TokenId>>& prompts,
                    std::size_t new_tokens) {
  const TransformerConfig& c = model.config();
  const std::size_t lanes = prompts.size();
  std::size_t max_prompt = 0;
  for (const auto& p : prompts) max_prompt = std::max(max_prompt, p.size());
  const std::size_t max_seq = std::min(c.max_seq, max_prompt + new_tokens);
  KVCache cache(c, lanes, max_seq, model.kv_options());
  InferenceWorkspace ws(c);
  std::vector<float> logits(c.vocab);
  std::vector<TokenId> last(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    model.prefill(prompts[b], b, cache, {}, ws);
    model.logits_from_hidden(ws.hidden, logits);
    last[b] = static_cast<TokenId>(kernels::argmax(logits));
  }
  RunStats s;
  s.outputs.resize(lanes);
  std::size_t produced = 0;
  Stopwatch watch;
  for (std::size_t step = 0; step < new_tokens; ++step) {
    std::size_t active = 0;
    for (std::size_t b = 0; b < lanes; ++b) {
      if (cache.seq_len(b) >= max_seq) continue;
      ++active;
      s.outputs[b].push_back(last[b]);
      if (step + 1 == new_tokens) continue;  // the final token is not fed
      model.forward({&last[b], 1}, {&b, 1}, cache, ws.hidden, ws);
      model.logits_from_hidden(ws.hidden, logits);
      last[b] = static_cast<TokenId>(kernels::argmax(logits));
    }
    if (active == 0) break;
    produced += active;
  }
  s.decode_s = watch.elapsed_s();
  s.decode_tps = static_cast<double>(produced) / s.decode_s;
  return s;
}

// The served engine: the same prompts as requests through ContinuousPolicy
// over a serial FunctionalTokenBackend, one lane each and a full KV pool.
// Its decode steps run Model::decode, the step generate() takes.
RunStats run_served(Model& model, const std::vector<std::vector<TokenId>>& prompts,
                    std::size_t new_tokens) {
  std::size_t max_prompt = 0;
  for (const auto& p : prompts) max_prompt = std::max(max_prompt, p.size());
  serving::FunctionalTokenBackend::Config bc;
  bc.max_lanes = prompts.size();
  bc.max_seq = max_prompt + new_tokens;
  bc.kv_storage = model.kv_storage();
  serving::FunctionalTokenBackend backend(model, bc);
  std::vector<serving::Request> requests(prompts.size());
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    requests[i].prompt = prompts[i];
    requests[i].prompt_tokens = prompts[i].size();
    requests[i].max_new_tokens = new_tokens;
  }
  const serving::EngineResult r = serving::ContinuousPolicy(backend).run(std::move(requests));
  RunStats s;
  std::size_t produced = 0;
  for (const serving::Request& req : r.requests) {
    produced += req.output.size();
    s.outputs.push_back(req.output);
  }
  s.decode_s = r.timeline.phase_time_s(trace::Phase::kDecode);
  s.decode_tps = static_cast<double>(produced) / s.decode_s;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool csv = args.get_bool("csv", false);
  const std::size_t lanes = static_cast<std::size_t>(args.get_int("lanes", 8));
  const std::size_t new_tokens =
      static_cast<std::size_t>(args.get_int("new-tokens", 64));
  const std::string family = args.get("family", "llama3");

  const TransformerConfig cfg = make_nano_config(family, 512);

  std::vector<std::vector<TokenId>> prompts(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    prompts[b].resize(8 + b % 4);
    for (std::size_t i = 0; i < prompts[b].size(); ++i) {
      prompts[b][i] = static_cast<TokenId>((b * 31 + i * 7) % cfg.vocab);
    }
  }

  // -- Lane-batched decode: width-1 loop vs one multi-lane forward ----------
  // Same greedy 8-lane batch, single-threaded both ways: the speedup is pure
  // weight-stream amortization (each weight row read once per step instead of
  // once per lane). Lane rows are composition-independent, so every dtype
  // must be bit-identical between the paths at the active kernel level.
  const bool strict = args.get_bool("strict", false);
  // A nano block (d_model 128) lives in L2, understating the weight-stream
  // amortization the batched path exists for; this section sizes the block up
  // until decode is genuinely weight-bound while staying quick to run.
  TransformerConfig batched_cfg = cfg;
  batched_cfg.name = cfg.name + "-wide";
  batched_cfg.d_model = 512;
  batched_cfg.d_ff = 1792;
  batched_cfg.validate();
  auto batched_master = MasterWeights::init_random(batched_cfg, 7);
  std::printf("== Lane-batched decode: %s, %zu lanes, looped vs batched (1 thread) ==\n",
              batched_cfg.name.c_str(), lanes);
  Table batched_table({"Dtype", "KV", "Looped tok/s", "Batched tok/s", "Served tok/s",
                       "Speedup", "Bit-identical"});
  double int4_batched_speedup = 0.0;
  bool batched_identity_ok = true;
  struct Case {
    DType dtype;
    KVStorage kv;
    const char* dtype_name;
    const char* kv_name;
  };
  const Case batched_cases[] = {
      {DType::kF32, KVStorage::kF32, "fp32", "fp32"},
      {DType::kF16, KVStorage::kF32, "fp16", "fp32"},
      {DType::kI8, KVStorage::kI8, "int8", "int8"},
      {DType::kI4, KVStorage::kI8, "int4", "int8"},
  };
  for (const Case& c : batched_cases) {
    Model model(batched_master, c.dtype, c.kv);
    run_looped(model, prompts, new_tokens);  // warm-up
    // Best-of-3 per mode: the ratio of two ~0.1 s single runs is too noisy
    // for an exit-code bar; the fastest repeat of each mode is the stable
    // estimate of what the path can do. Identity is checked on every repeat.
    RunStats looped, batched, served;
    bool identical = true;
    const int reps = c.dtype == DType::kI4 ? 3 : 1;  // only int4 carries a bar
    for (int rep = 0; rep < reps; ++rep) {
      RunStats lo = run_looped(model, prompts, new_tokens);
      RunStats ba = run_batched(model, prompts, new_tokens);
      RunStats se = run_served(model, prompts, new_tokens);
      identical = identical && lo.outputs == ba.outputs && lo.outputs == se.outputs;
      if (rep == 0 || lo.decode_tps > looped.decode_tps) looped = std::move(lo);
      if (rep == 0 || ba.decode_tps > batched.decode_tps) batched = std::move(ba);
      if (rep == 0 || se.decode_tps > served.decode_tps) served = std::move(se);
    }
    batched_identity_ok = batched_identity_ok && identical;
    const double speedup = batched.decode_tps / looped.decode_tps;
    if (c.dtype == DType::kI4) int4_batched_speedup = speedup;
    batched_table.new_row()
        .add_cell(c.dtype_name)
        .add_cell(c.kv_name)
        .add_number(looped.decode_tps, 0)
        .add_number(batched.decode_tps, 0)
        .add_number(served.decode_tps, 0)
        .add_cell(format_double(speedup, 2) + "x")
        .add_cell(identical ? "yes" : "NO");
  }
  std::fputs((csv ? batched_table.to_csv() : batched_table.to_markdown()).c_str(), stdout);
  std::printf("\nAcceptance bar: int4 batched decode >= 2x its per-lane loop at %zu\n",
              lanes);
  std::printf("lanes (enforced with --strict; advisory otherwise).\n");
  if (!batched_identity_ok) {
    std::printf("ERROR: batched or served decode outputs diverged from the per-lane loop\n");
    return 1;
  }
  if (strict && int4_batched_speedup < 2.0) {
    std::printf("ERROR: int4 batched decode speedup %.2fx below the 2x bar\n",
                int4_batched_speedup);
    return 1;
  }

  // -- Serving policies on the functional engine ---------------------------
  const auto serving_requests =
      static_cast<std::size_t>(args.get_int("serving-requests", 24));
  const workload::SeqConfig seq{24, 8, 16};
  const std::size_t max_lanes = 4;

  const workload::Corpus corpus = workload::generate_corpus(workload::CorpusSpec::wikitext2());
  const Tokenizer tokenizer = Tokenizer::train(corpus.text, 400);
  const workload::PromptPool pool(corpus, tokenizer, 256);
  auto serving_master =
      MasterWeights::init_random(make_nano_config(family, tokenizer.vocab_size()), 7);

  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_rps = 200.0;  // flooded queue: policies differ most under load
  arrivals.total_requests = serving_requests;

  // Static: the paper's regime — each batch decodes to completion on the
  // real engine before the next launches. Its KV footprint is the dense
  // reservation for max_lanes full sequences.
  serving::FunctionalSession session(serving_master, DType::kF32, pool);
  const serving::EngineResult st = serving::StaticBatchPolicy(session, max_lanes, seq)
                                        .run(serving::requests_from_arrivals(
                                            arrivals.generate(), seq));
  const KVCache static_cache(serving_master->config, max_lanes, seq.total);
  const double static_kv_bytes = static_cast<double>(static_cache.reserved_bytes());

  // Continuous: token-level admit/retire over the paged cache; peak KV bytes
  // are what the block pool actually handed out.
  serving::FunctionalEngineConfig cont_config;
  cont_config.arrivals = arrivals;
  cont_config.seq = seq;
  cont_config.backend.max_lanes = max_lanes;
  cont_config.backend.block_tokens = 4;
  const serving::EngineResult ct =
      run_functional_continuous(serving_master, DType::kF32, pool, cont_config);

  std::printf("\n== Serving: static vs continuous, %zu Poisson requests, %zu lanes ==\n",
              serving_requests, max_lanes);
  Table serving_table({"Policy", "tok/s", "Mean lat (s)", "p95 lat (s)",
                       "Peak KV bytes"});
  serving_table.new_row()
      .add_cell("static")
      .add_number(st.throughput_tps(), 0)
      .add_number(st.mean_latency_s(), 3)
      .add_number(st.p95_latency_s(), 3)
      .add_number(static_kv_bytes, 0);
  serving_table.new_row()
      .add_cell("continuous")
      .add_number(ct.throughput_tps(), 0)
      .add_number(ct.mean_latency_s(), 3)
      .add_number(ct.p95_latency_s(), 3)
      .add_number(static_cast<double>(ct.peak_kv_bytes), 0);
  std::fputs((csv ? serving_table.to_csv() : serving_table.to_markdown()).c_str(), stdout);
  std::printf("\nStatic reserves worst-case KV for every lane; the paged engine's peak\n");
  std::printf("is what its block pool actually handed out.\n");

  if (ct.latencies_s.size() != serving_requests) {
    std::printf("ERROR: continuous engine retired %zu of %zu requests\n",
                ct.latencies_s.size(), serving_requests);
    return 1;
  }
  if (static_cast<double>(ct.peak_kv_bytes) > static_kv_bytes) {
    std::printf("ERROR: paged peak KV (%zu B) exceeds the dense reservation (%.0f B)\n",
                ct.peak_kv_bytes, static_kv_bytes);
    return 1;
  }

  // -- Cross-request prefix cache ------------------------------------------
  // Chat traffic (Zipfian shared system prompts + per-user suffixes) on one
  // lane: every admission is its own prefill wave, so per-request TTFT
  // (admit -> end of its prefill step) isolates exactly the work a cache
  // hit skips. The 224-token system prefix is 7/8 of each prompt; hits
  // attach it ready-made and prefill only the 32-token suffix.
  {
    serving::FunctionalEngineConfig pc_cfg;
    pc_cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
    pc_cfg.arrivals.rate_rps = 1000.0;  // flooded: TTFT is pure prefill time
    pc_cfg.arrivals.total_requests = 16;
    pc_cfg.seq = workload::SeqConfig{288, 256, 32};
    pc_cfg.backend.max_lanes = 1;
    // Room for the active lane plus all four system-prompt chains: with the
    // lane-sized default pool the tree would thrash on every retirement.
    pc_cfg.backend.kv_blocks = 128;
    pc_cfg.chat.system_prompts = 4;
    pc_cfg.chat.zipf_s = 1.1;
    pc_cfg.chat.system_tokens = 224;  // a multiple of lcm(block, chunk) = 32
    pc_cfg.chat.user_tokens = 32;

    // TTFT per request: first admission to the end of the prefill wave that
    // sampled its first token.
    const auto ttfts = [](const serving::EngineResult& r) {
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

    // The hit/miss ratio of one run divides two wall-clock p50s of a few
    // milliseconds, so it spreads run to run: the bar gates on the median
    // ratio over repeated off/on pairs. Every repeat checks identity and
    // counters.
    constexpr int kRepeats = 5;
    std::vector<double> speedups;
    std::vector<double> hit_ttft, miss_ttft;
    serving::EngineResult on;
    for (int rep = 0; rep < kRepeats; ++rep) {
      pc_cfg.backend.prefix_cache = false;
      const serving::EngineResult off =
          run_functional_continuous(serving_master, DType::kF32, pool, pc_cfg);
      pc_cfg.backend.prefix_cache = true;
      on = run_functional_continuous(serving_master, DType::kF32, pool, pc_cfg);

      // Invariants: the cache must not change one token and must conserve
      // its counters.
      bool identical = on.requests.size() == off.requests.size();
      for (std::size_t i = 0; identical && i < on.requests.size(); ++i) {
        identical = on.requests[i].output == off.requests[i].output;
      }
      if (!identical) {
        std::printf("ERROR: prefix cache changed the served token streams\n");
        return 1;
      }
      const auto& pc = on.prefix_cache;
      if (pc.hits == 0 || pc.hits + pc.misses != pc.lookups ||
          pc.lookups != pc_cfg.arrivals.total_requests) {
        std::printf("ERROR: prefix-cache counters do not conserve (%zu + %zu != %zu)\n",
                    pc.hits, pc.misses, pc.lookups);
        return 1;
      }

      const std::vector<double> ttft_on = ttfts(on);
      std::vector<bool> is_hit(on.requests.size(), false);
      for (const trace::PrefixCacheEvent& e : on.timeline.prefix_cache_events()) {
        if (e.kind == trace::PrefixCacheEventKind::kHit) is_hit[e.request_id] = true;
      }
      hit_ttft.clear();
      miss_ttft.clear();
      for (std::size_t i = 0; i < ttft_on.size(); ++i) {
        (is_hit[i] ? hit_ttft : miss_ttft).push_back(ttft_on[i]);
      }
      const double hit_p50 = percentile(hit_ttft, 50.0);
      speedups.push_back(hit_p50 > 0.0 ? percentile(miss_ttft, 50.0) / hit_p50 : 0.0);
    }

    const auto& pc = on.prefix_cache;
    std::printf("\n== Prefix cache: %zu chat requests, %zu shared system prompts ==\n",
                pc_cfg.arrivals.total_requests, pc_cfg.chat.system_prompts);
    Table pc_table({"Metric", "Value"});
    pc_table.new_row().add_cell("hit rate").add_cell(
        format_double(100.0 * pc.hit_rate(), 1) + " % (" + std::to_string(pc.hits) +
        "/" + std::to_string(pc.lookups) + ")");
    pc_table.new_row().add_cell("prefill tokens skipped").add_cell(
        std::to_string(pc.hit_tokens));
    pc_table.new_row().add_cell("KV bytes not recomputed").add_cell(
        std::to_string(pc.bytes_saved));
    pc_table.new_row().add_cell("blocks inserted / evicted").add_cell(
        std::to_string(pc.inserted_blocks) + " / " + std::to_string(pc.evicted_blocks));
    pc_table.new_row().add_cell("TTFT p50 hit / miss (ms, last run)").add_cell(
        format_double(1e3 * percentile(hit_ttft, 50.0), 3) + " / " +
        format_double(1e3 * percentile(miss_ttft, 50.0), 3));
    pc_table.new_row().add_cell("TTFT p99 hit / miss (ms, last run)").add_cell(
        format_double(1e3 * percentile(hit_ttft, 99.0), 3) + " / " +
        format_double(1e3 * percentile(miss_ttft, 99.0), 3));
    std::fputs((csv ? pc_table.to_csv() : pc_table.to_markdown()).c_str(), stdout);
    const double speedup = median(speedups);
    std::printf("\nTTFT on a hit covers only the per-user suffix prefill: %.1fx below\n",
                speedup);
    std::printf("a cold prompt, median of %d runs (spread %.1fx-%.1fx; acceptance bar:\n",
                kRepeats, *std::min_element(speedups.begin(), speedups.end()),
                *std::max_element(speedups.begin(), speedups.end()));
    std::printf(">= 5x median at 7/8 reuse).\n");
    if (speedup < 5.0) {
      std::printf("ERROR: median cache-hit TTFT speedup %.2fx is below the 5x bar\n", speedup);
      return 1;
    }
  }

  // -- Speculative serving through the continuous engine -------------------
  // The same request-lifecycle engine with a self-draft (the F16 target's
  // own master quantized to INT8) proposing 4 tokens per round. Two checks:
  // under scalar kernels the served streams must match plain greedy bit for
  // bit (the speculative contract), and at the active kernel level the
  // draft/verify rounds must actually buy decode throughput — the bar is
  // >= 1.3x served decode tok/s at >= 80% acceptance (enforced with
  // --strict; advisory otherwise).
  {
    // Trained readout sharpens the logits so the quantized self-draft
    // agrees with its own F16 master often enough to clear the acceptance
    // bar (the bench_ext_speculative recipe).
    auto spec_master =
        MasterWeights::init_random(make_nano_config(family, tokenizer.vocab_size()), 55);
    train::TrainConfig tc;
    tc.epochs = 4;
    tc.max_tokens = 10000;
    train::train_readout(*spec_master, tokenizer.encode(corpus.text), tc);

    serving::FunctionalEngineConfig sp_cfg;
    sp_cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
    sp_cfg.arrivals.rate_rps = 1000.0;  // flooded: pure decode throughput
    sp_cfg.arrivals.total_requests = 12;
    sp_cfg.seq = workload::SeqConfig{96, 32, 64};
    sp_cfg.backend.max_lanes = 2;

    // Identity first, under the reference kernels: chunked verification is
    // bit-identical to the token loop only at the scalar level (the same
    // determinism contract chunked prefill pins).
    const simd::Level active = simd::active_level();
    simd::set_level(simd::Level::kScalar);
    serving::FunctionalEngineConfig id_cfg = sp_cfg;
    id_cfg.arrivals.total_requests = 4;
    id_cfg.seq = workload::SeqConfig{48, 16, 32};
    const serving::EngineResult id_plain =
        run_functional_continuous(spec_master, DType::kF16, pool, id_cfg);
    id_cfg.backend.speculation.enabled = true;
    id_cfg.backend.speculation.draft_tokens = 4;
    id_cfg.backend.speculation.draft_dtype = DType::kI8;
    const serving::EngineResult id_spec =
        run_functional_continuous(spec_master, DType::kF16, pool, id_cfg);
    simd::set_level(active);
    bool spec_identical = id_spec.requests.size() == id_plain.requests.size();
    for (std::size_t i = 0; spec_identical && i < id_spec.requests.size(); ++i) {
      spec_identical = id_spec.requests[i].output == id_plain.requests[i].output;
    }

    // Throughput at the active kernel level. Decode tok/s counts generated
    // tokens over the time the engine spent generating them (kDecode for
    // plain; kDraft + kVerify + leftover kDecode for speculative).
    const auto decode_tps = [](const serving::EngineResult& r) {
      double s = r.timeline.phase_time_s(trace::Phase::kDecode) +
                 r.timeline.phase_time_s(trace::Phase::kDraft) +
                 r.timeline.phase_time_s(trace::Phase::kVerify);
      std::size_t tokens = 0;
      for (const serving::Request& rq : r.requests) tokens += rq.output.size();
      return s > 0.0 ? static_cast<double>(tokens) / s : 0.0;
    };
    const serving::EngineResult sp_plain =
        run_functional_continuous(spec_master, DType::kF16, pool, sp_cfg);
    sp_cfg.backend.speculation.enabled = true;
    sp_cfg.backend.speculation.draft_tokens = 4;
    sp_cfg.backend.speculation.draft_dtype = DType::kI8;
    const serving::EngineResult sp_spec =
        run_functional_continuous(spec_master, DType::kF16, pool, sp_cfg);

    const double uplift = decode_tps(sp_spec) / decode_tps(sp_plain);
    const double acceptance = sp_spec.speculation.acceptance_rate();
    std::printf("\n== Speculative serving: fp16 target, int8 self-draft, K=4 ==\n");
    Table sp_table({"Engine", "Decode tok/s", "Target passes", "Acceptance",
                    "Tokens/round"});
    sp_table.new_row()
        .add_cell("plain greedy")
        .add_number(decode_tps(sp_plain), 0)
        .add_cell(std::to_string(sp_plain.decode_steps))
        .add_cell("-")
        .add_cell("1.00");
    sp_table.new_row()
        .add_cell("speculative")
        .add_number(decode_tps(sp_spec), 0)
        .add_cell(std::to_string(sp_spec.decode_steps))
        .add_cell(format_double(100.0 * acceptance, 1) + " %")
        .add_cell(format_double(sp_spec.speculation.tokens_per_round(), 2));
    std::fputs((csv ? sp_table.to_csv() : sp_table.to_markdown()).c_str(), stdout);
    std::printf("\nspeculative serving: %.2fx decode tok/s, scalar streams %s\n",
                uplift, spec_identical ? "bit-identical" : "DIVERGED");
    std::printf("(acceptance bar: >= 1.3x at >= 80%% acceptance with --strict).\n");
    if (!spec_identical) {
      std::printf("ERROR: speculative serving changed the scalar token streams\n");
      return 1;
    }
    if (strict && (uplift < 1.3 || acceptance < 0.8)) {
      std::printf("ERROR: speculative uplift %.2fx / acceptance %.1f%% below the "
                  "1.3x / 80%% bar\n",
                  uplift, 100.0 * acceptance);
      return 1;
    }
  }

  // -- Served power: energy attribution + governor -------------------------
  // The same continuous run with the calibrated power proxy: every measured
  // step carries the PowerModel estimate for the paper-scale model, and the
  // per-request energy split must conserve the timeline total.
  cont_config.backend.power_proxy_model = "llama3";
  const serving::EngineResult pw =
      run_functional_continuous(serving_master, DType::kF32, pool, cont_config);
  double attributed_j = 0.0;
  for (const serving::RequestMetrics& m : pw.request_metrics) attributed_j += m.energy_j;

  std::printf("\n== Served power: functional engine + llama3 power proxy ==\n");
  Table power_table({"Engine", "Energy (J)", "J/request", "J/token", "Mean W"});
  power_table.new_row()
      .add_cell("continuous+proxy")
      .add_number(pw.energy_j, 3)
      .add_number(pw.energy_per_request_j(), 3)
      .add_number(pw.energy_per_token_j(), 4)
      .add_number(pw.makespan_s > 0.0 ? pw.energy_j / pw.makespan_s : 0.0, 1);
  std::fputs((csv ? power_table.to_csv() : power_table.to_markdown()).c_str(), stdout);
  std::printf("\nPer-request attribution splits each step's energy across the requests\n");
  std::printf("active in it; the sum must reproduce the timeline total exactly.\n");
  const double conservation_err = std::abs(attributed_j - pw.energy_j);
  std::printf("conservation |sum(requests) - total| = %.3g J\n", conservation_err);
  if (!(pw.energy_j > 0.0) || conservation_err > 1e-9) {
    std::printf("ERROR: per-request energy (%.12f J) does not conserve total (%.12f J)\n",
                attributed_j, pw.energy_j);
    return 1;
  }

  // Deterministic governor demo on the simulated backend: cap the board
  // between mode-A and MaxN decode power and require at least one step-down
  // plus cap compliance afterwards.
  serving::SimTokenBackend::Config sim_bc;
  sim_bc.max_concurrency = 8;
  {
    const sim::InferenceSim sim;
    const sim::ModelSpec& m = sim::model_by_key(sim_bc.model_key);
    const sim::StepBreakdown hot = sim.roofline().decode_step(
        m, sim_bc.dtype, 8, static_cast<double>(sim_bc.seq.input), sim::power_mode_maxn());
    const double p_maxn =
        sim.power_model().decode_power(m, sim_bc.dtype, hot, sim::power_mode_maxn()).total_w();
    const sim::PowerMode mode_a = sim::power_mode_by_name("A");
    const sim::StepBreakdown cool = sim.roofline().decode_step(
        m, sim_bc.dtype, 8, static_cast<double>(sim_bc.seq.input + sim_bc.seq.output), mode_a);
    const double p_a = sim.power_model().decode_power(m, sim_bc.dtype, cool, mode_a).total_w();

    serving::GovernorConfig gov;
    gov.power_cap_w = 0.5 * (p_a + p_maxn);
    serving::SimTokenBackend sim_backend(sim_bc);
    workload::ArrivalConfig flood;
    flood.kind = workload::ArrivalKind::kPoisson;
    flood.rate_rps = 1000.0;
    flood.total_requests = 8;
    const serving::EngineResult gv = serving::ContinuousPolicy(sim_backend, gov).run(
        serving::requests_from_arrivals(flood.generate(), sim_bc.seq));
    double worst_after = 0.0;
    const double last_action_t = gv.timeline.governor_events().empty()
                                     ? 0.0
                                     : gv.timeline.governor_events().back().t_s;
    for (const trace::StepEvent& e : gv.timeline.events()) {
      if (e.has_power() && e.t_start_s >= last_action_t) {
        worst_after = std::max(worst_after, e.power_w);
      }
    }
    std::printf("\ngovernor: cap %.1f W -> %zu step-down(s), worst post-action step %.1f W\n",
                gov.power_cap_w, gv.governor_step_downs, worst_after);
    if (gv.governor_step_downs < 1 || worst_after > gov.power_cap_w + 1e-9) {
      std::printf("ERROR: governor failed to hold the %.1f W cap\n", gov.power_cap_w);
      return 1;
    }
  }
  return 0;
}
