// perfbench_driver: one measurement of one benchmark workload.
//
//   perfbench_driver --workload=chat_prefix|offline_quant --seed=<n>
//                    --seconds=<s> --trace=0|1 [--serve-bin=<orinsim_serve>]
//
// Each workload's shape is a constant below (kChatPrefix, kOfflineQuant).
// chat_prefix starts the orinsim_serve binary (several times, for set-up
// time), warms it, offers the seeded open-loop schedule for --seconds, and
// checks every streamed completion against an in-process offline reference
// of the same stack. offline_quant runs the whole request batch (all due at
// t = 0) through ContinuousEngine over FunctionalTokenBackend repeatedly for
// --seconds and checks the output digest against an unconstrained KV pool.
// With --trace=1 the untraced measurement covers only the first half of the
// window, as the overhead baseline; the whole window then runs again behind
// a TimingBackend decorator (chat_prefix: an in-process server built from
// the same flags), and the per-layer metrics, the TTFT decomposition and the
// tracing overhead are reported.
//
// The last stdout line is "PERFBENCH_REPORT <json>"; perfbench/run.py turns
// it into the benchmark's result line.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.h"
#include "driver/layers.h"
#include "driver/load_gen.h"
#include "driver/prompts.h"
#include "driver/report.h"
#include "driver/stack.h"
#include "driver/stats.h"
#include "driver/timing_backend.h"
#include "server/engine_host.h"
#include "server/server.h"
#include "tensor/simd.h"
#include "workload/corpus.h"
#include "workload/prompt_pool.h"

namespace {

using namespace perfbench;
using orinsim::TokenId;

// ---------------------------------------------------------------------------
// Process helpers
// ---------------------------------------------------------------------------

// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// One orinsim_serve child. The child dies with the driver (PDEATHSIG), and
// the destructor stops and reaps it, so no server outlives a run.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts the binary and blocks until its "listening on host:port" line;
  // returns the seconds from fork to that line, or a negative value.
  double start(const std::string& bin, const std::vector<std::string>& flags) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) return -1.0;
    const pid_t parent = ::getpid();
    const Clock::time_point t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(out[1], STDOUT_FILENO);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& f : flags) argv.push_back(const_cast<char*>(f.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (pid_ < 0) {
      ::close(out[0]);
      return -1.0;
    }
    out_fd_ = out[0];
    std::string text;
    char buf[512];
    while (text.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 30000) <= 0) return -1.0;
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return -1.0;
      text.append(buf, static_cast<std::size_t>(n));
    }
    const double setup_s = since(t0, Clock::now());
    const std::size_t at = text.find("listening on ");
    const std::size_t colon = text.rfind(':', text.find('\n'));
    if (at == std::string::npos || colon == std::string::npos) return -1.0;
    port_ = static_cast<std::uint16_t>(std::atoi(text.c_str() + colon + 1));
    return setup_s;
  }

  // SIGTERM (the daemon drains and exits 0), escalating to SIGKILL.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 200 && !reaped; ++i) {
        reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Set-up time is the median of this many server starts or stack builds.
constexpr std::size_t kSetupReps = 7;

// Served load: one generator thread over at most nproc (4) connections.
constexpr std::size_t kConnections = 4;
// Latency p50s are the median over this many consecutive request chunks.
constexpr std::size_t kChunks = 5;
// A served run is invalid when the generator ran late or sent less than
// kMinRateFrac of the offered rate. Latencies are timed from the due time,
// so lateness is charged to TTFT: the p50 bound keeps a steady lag out of
// ttft_p50_ms, the p99 bound catches a generator stalled long enough to
// skew the tail (single stalls of ~10 ms occur on an idle 4-vCPU VM).
constexpr double kMaxLatenessP50Ms = 1.0;
constexpr double kMaxLatenessP99Ms = 50.0;
constexpr double kMinRateFrac = 0.9;

// The daemon's flags for the served stack (perfbench/stack.h mirrors them).
const std::vector<std::string> kServedFlags = {
    "--max-concurrency=4", "--prefix-cache", "--power-proxy-model=llama3"};

struct ServedWorkload {
  orinsim::workload::ChatWorkloadConfig chat;
  std::size_t max_tokens = 0;
  double rate_rps = 0.0;
  double ttft_slo_ms = 0.0;
  double itl_slo_ms = 0.0;  // on each request's mean inter-token gap
  std::size_t warmup = 0;   // requests before the window (every system prompt first)
};

// Short chat requests on 8 Zipfian shared system prompts (192 tokens, six
// 32-token prefix-cache blocks) plus a 32-token user suffix, 32 output
// tokens, at a rate that keeps the engine lightly loaded.
const ServedWorkload kChatPrefix = {
    .chat = {.system_prompts = 8, .zipf_s = 1.1, .system_tokens = 192, .user_tokens = 32},
    .max_tokens = 32,
    .rate_rps = 6.0,
    .ttft_slo_ms = 100.0,
    .itl_slo_ms = 10.0,
    .warmup = 16,
};

struct OfflineWorkload {
  std::size_t requests = 0;
  std::size_t input_tokens = 0;
  std::size_t max_tokens = 0;
  std::size_t lanes = 0;
  std::size_t workers = 0;   // lane-parallel decode pool, fewer than nproc
  double kv_fraction = 0.0;  // of the blocks `lanes` full sequences need
  orinsim::DType dtype = orinsim::DType::kF32;
  orinsim::KVStorage kv_storage = orinsim::KVStorage::kF32;
  double ttft_slo_ms = 0.0;
  double itl_slo_ms = 0.0;
};

// A batch at least this many times per run, however short the window.
constexpr std::size_t kMinOfflineReps = 3;

// 24 requests due at t = 0 on int4 weights and int8 KV, 8 lanes over a KV
// pool half the size 8 full sequences need, so the engine preempts.
const OfflineWorkload kOfflineQuant = {
    .requests = 24,
    .input_tokens = 128,
    .max_tokens = 64,
    .lanes = 8,
    .workers = 3,
    .kv_fraction = 0.5,
    .dtype = orinsim::DType::kI4,
    .kv_storage = orinsim::KVStorage::kI8,
    .ttft_slo_ms = 10000.0,
    .itl_slo_ms = 50.0,
};

struct ServedInputs {
  std::vector<Prompt> prompts;  // measured, in schedule order
  std::vector<double> due_s;
  std::vector<Prompt> warmup;
};

ServedInputs make_served_inputs(const ServedWorkload& w, const orinsim::Tokenizer& tokenizer,
                                const orinsim::workload::PromptPool& pool,
                                std::uint64_t seed, double window_s) {
  ServedInputs in;
  in.due_s = poisson_schedule(w.rate_rps, window_s, seed);
  const std::size_t n = in.due_s.size();
  orinsim::Rng rng(seed ^ 0x5bd1e995ULL);
  // Spares after the measured prompts warm the prefix cache with every
  // system prompt first, so the window sees the steady hit rate.
  std::vector<Prompt> all = chat_prompts(pool, tokenizer, n + 4 * w.warmup + 64, w.chat, rng);
  in.prompts.assign(all.begin(), all.begin() + static_cast<long>(n));
  std::set<std::vector<TokenId>> systems;
  std::vector<Prompt> rest;
  for (std::size_t i = n; i < all.size(); ++i) {
    std::vector<TokenId> sys(all[i].tokens.begin(),
                             all[i].tokens.begin() + static_cast<long>(w.chat.system_tokens));
    if (systems.insert(sys).second) {
      in.warmup.push_back(all[i]);
    } else {
      rest.push_back(all[i]);
    }
  }
  for (std::size_t i = 0; in.warmup.size() < w.warmup && i < rest.size(); ++i) {
    in.warmup.push_back(rest[i]);
  }
  return in;
}

// The requests due before `window_s`: the untraced baseline of a traced run.
ServedInputs schedule_head(const ServedInputs& in, double window_s) {
  ServedInputs head = in;
  const auto n = static_cast<std::size_t>(
      std::lower_bound(in.due_s.begin(), in.due_s.end(), window_s) - in.due_s.begin());
  head.prompts.resize(n);
  head.due_s.resize(n);
  return head;
}

// ---------------------------------------------------------------------------
// End-to-end summaries
// ---------------------------------------------------------------------------

// A latency distribution at the fixed percentiles the samples support.
JsonObject distribution(const std::vector<double>& v) {
  JsonObject d;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (!tail_supported(v.size(), p)) break;
    char key[16];
    std::snprintf(key, sizeof(key), "p%g", p);
    d.num(key, percentile(v, p));
  }
  return d;
}

struct E2E {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;     // 429/503
  std::size_t conn_errors = 0;  // socket / stream errors
  std::vector<double> ttft_ms, itl_ms;  // pooled samples
  double ttft_p50_ms = 0.0, ttft_p95_ms = 0.0, itl_p50_ms = 0.0, itl_p99_ms = 0.0;
  double ttft_tail_pct = 0.0, itl_tail_pct = 0.0;  // what the two tails report
  std::vector<double> chunk_ttft_p50_ms, chunk_itl_p50_ms;
  std::vector<std::string> errors;  // first distinct failure reasons
  double goodput_rps = 0.0;
  double output_tok_s = 0.0;
  double joules_per_token = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;
  std::size_t setup_reps = 0;

  JsonObject metrics() const {
    JsonObject m;
    m.num("ttft_p50_ms", ttft_p50_ms)
        .num("ttft_p95_ms", ttft_p95_ms)
        .num("itl_p50_ms", itl_p50_ms)
        .num("itl_p99_ms", itl_p99_ms)
        .num("goodput_rps", goodput_rps)
        .num("output_tok_s", output_tok_s)
        .num("failed_frac", attempted > 0 ? static_cast<double>(failed) /
                                                static_cast<double>(attempted)
                                          : 0.0)
        .num("joules_per_token", joules_per_token)
        .num("peak_rss_mb", peak_rss_mb)
        .num("setup_s", setup_s);
    return m;
  }

  JsonObject samples() const {
    JsonObject s;
    s.count("ttft", ttft_ms.size())
        .nums("chunk_ttft_p50_ms", chunk_ttft_p50_ms)
        .nums("chunk_itl_p50_ms", chunk_itl_p50_ms)
        .count("itl", itl_ms.size())
        .num("ttft_p95_ms_reports_pct", ttft_tail_pct)
        .num("itl_p99_ms_reports_pct", itl_tail_pct)
        .obj("ttft_ms", distribution(ttft_ms))
        .obj("itl_ms", distribution(itl_ms))
        .count("setup_reps", setup_reps)
        .count("rejected", rejected)
        .count("conn_errors", conn_errors)
        .strings("errors", errors);
    return s;
  }
};

// The p50s are the median over chunks of each chunk's median. A chunk is a
// run of consecutive requests (schedule order) with their token gaps, so a
// disturbance of the host shorter than a chunk moves one chunk's value and
// not the reported median. The tails come from the pooled samples, at the
// highest percentile up to p95 / p99 that the pool supports (stats.h).
void set_latencies(E2E& e, const std::vector<std::vector<double>>& ttft,
                   const std::vector<std::vector<double>>& itl) {
  for (std::size_t k = 0; k < ttft.size(); ++k) {
    if (ttft[k].empty()) continue;  // every request of the chunk failed
    e.chunk_ttft_p50_ms.push_back(median(ttft[k]));
    e.chunk_itl_p50_ms.push_back(median(itl[k]));
  }
  e.ttft_p50_ms = median(e.chunk_ttft_p50_ms);
  e.itl_p50_ms = median(e.chunk_itl_p50_ms);
  e.ttft_p95_ms = supported_tail(e.ttft_ms, 95.0, &e.ttft_tail_pct);
  e.itl_p99_ms = supported_tail(e.itl_ms, 99.0, &e.itl_tail_pct);
}

// Client-side metrics of one served run. A request that failed counts as an
// SLO miss; its partial timings are not used.
E2E summarize_served(const std::vector<ClientRecord>& records, const ServedWorkload& w,
                     double window_s) {
  E2E e;
  e.attempted = records.size();
  std::size_t good = 0, tokens = 0;
  double last_done = window_s;
  const std::size_t chunks =
      std::clamp<std::size_t>(kChunks, 1, std::max<std::size_t>(1, records.size()));
  std::vector<std::vector<double>> ttft_chunks(chunks), itl_chunks(chunks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ClientRecord& r = records[i];
    const std::size_t k = i * chunks / records.size();
    if (!r.ok()) {
      ++e.failed;
      const std::string why = !r.error.empty() ? r.error : "HTTP " + std::to_string(r.status);
      if (e.errors.size() < 4 &&
          std::find(e.errors.begin(), e.errors.end(), why) == e.errors.end()) {
        e.errors.push_back(why);
      }
      if (r.status == 429 || r.status == 503) {
        ++e.rejected;
      } else {
        ++e.conn_errors;
      }
      continue;
    }
    last_done = std::max(last_done, r.done_s);
    tokens += r.token_s.size();
    if (r.token_s.empty()) continue;
    const double ttft = (r.token_s[0] - r.due_s) * 1e3;
    e.ttft_ms.push_back(ttft);
    ttft_chunks[k].push_back(ttft);
    const std::vector<double> g = gaps(r.token_s);
    for (double x : g) {
      e.itl_ms.push_back(x * 1e3);
      itl_chunks[k].push_back(x * 1e3);
    }
    const double tpot = g.empty() ? 0.0 : mean(g) * 1e3;
    if (ttft <= w.ttft_slo_ms && tpot <= w.itl_slo_ms) ++good;
  }
  set_latencies(e, ttft_chunks, itl_chunks);
  e.goodput_rps = static_cast<double>(good) / window_s;
  e.output_tok_s = static_cast<double>(tokens) / last_done;
  return e;
}

struct GeneratorHealth {
  std::vector<double> lateness_ms, conn_wait_ms;
  double offered_rps = 0.0, achieved_rps = 0.0;
  bool valid = true;
  std::string reason;

  JsonObject json() const {
    JsonObject j;
    j.num("lateness_p50_ms", percentile(lateness_ms, 50.0))
        .num("lateness_p99_ms", percentile(lateness_ms, 99.0))
        .num("connection_wait_p50_ms", percentile(conn_wait_ms, 50.0))
        .num("connection_wait_p99_ms", percentile(conn_wait_ms, 99.0))
        .num("offered_rps", offered_rps)
        .num("achieved_rps", achieved_rps)
        .flag("valid", valid)
        .str("reason", reason);
    return j;
  }
};

GeneratorHealth generator_health(const std::vector<ClientRecord>& records, double window_s) {
  GeneratorHealth h;
  double last_launch = 0.0;
  std::size_t launched = 0;
  for (const ClientRecord& r : records) {
    if (r.launch_s < 0.0) continue;
    ++launched;
    last_launch = std::max(last_launch, r.launch_s);
    h.lateness_ms.push_back((r.launch_s - r.ready_s) * 1e3);
    h.conn_wait_ms.push_back((r.ready_s - r.due_s) * 1e3);
  }
  h.offered_rps = static_cast<double>(records.size()) / window_s;
  h.achieved_rps = static_cast<double>(launched) / std::max(window_s, last_launch);
  const double late_p50 = percentile(h.lateness_ms, 50.0);
  const double late_p99 = percentile(h.lateness_ms, 99.0);
  if (!(late_p50 <= kMaxLatenessP50Ms)) {
    h.valid = false;
    h.reason = "generator lateness p50 " + std::to_string(late_p50) + " ms exceeds " +
               std::to_string(kMaxLatenessP50Ms) + " ms";
  } else if (!(late_p99 <= kMaxLatenessP99Ms)) {
    h.valid = false;
    h.reason = "generator lateness p99 " + std::to_string(late_p99) + " ms exceeds " +
               std::to_string(kMaxLatenessP99Ms) + " ms";
  } else if (h.achieved_rps < kMinRateFrac * h.offered_rps) {
    h.valid = false;
    h.reason = "achieved rate " + std::to_string(h.achieved_rps) + " rps below " +
               std::to_string(kMinRateFrac) + " x offered " +
               std::to_string(h.offered_rps) + " rps (backlog grew)";
  }
  return h;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

struct Check {
  std::vector<std::string> problems;
  void fail(std::string what) {
    if (problems.size() < 8) problems.push_back(std::move(what));
    ++count;
  }
  std::size_t count = 0;
  bool ok() const { return count == 0; }
};

// Completion text of every prompt through the offline engine on the served
// stack (lanes and decode workers only change speed: each lane decodes
// independently, bit-identically).
std::vector<std::string> reference_texts(const orinsim::Tokenizer& tokenizer,
                                         const std::vector<std::vector<TokenId>>& prompts,
                                         std::size_t max_tokens) {
  StackSpec spec = served_spec();
  spec.backend.max_lanes = 8;
  spec.decode_workers = 3;
  Stack stack = build_stack(tokenizer, spec);
  std::vector<std::string> texts(prompts.size());
  orinsim::serving::ContinuousEngine engine(*stack.backend);
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    orinsim::serving::Request req;
    req.prompt = prompts[i];
    req.prompt_tokens = prompts[i].size();
    req.max_new_tokens = max_tokens;
    orinsim::serving::StreamCallbacks cb;
    cb.on_token = [&texts, &tokenizer, i](const orinsim::serving::Request&, TokenId t) {
      texts[i] += tokenizer.token_text(t);
    };
    engine.submit(std::move(req), std::move(cb));
  }
  while (engine.step() == orinsim::serving::ContinuousEngine::Step::kWorked) {
  }
  engine.finish();
  return texts;
}

// Every completed request streamed exactly the reference text, with usage
// matching the prompt and the requested length.
void check_served(const std::vector<ClientRecord>& records, const std::vector<Prompt>& prompts,
                  const std::map<std::string, std::string>& reference, std::size_t max_tokens,
                  const std::string& label, Check& check) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ClientRecord& r = records[i];
    if (!r.ok()) continue;  // counted as failed, not as wrong
    const std::string where = label + " request " + std::to_string(i) + ": ";
    if (r.prompt_tokens != prompts[i].tokens.size()) {
      check.fail(where + "usage.prompt_tokens " + std::to_string(r.prompt_tokens) +
                 " != " + std::to_string(prompts[i].tokens.size()));
    }
    if (r.completion_tokens != max_tokens || r.token_s.size() != max_tokens) {
      check.fail(where + "completion_tokens " + std::to_string(r.completion_tokens) +
                 ", events " + std::to_string(r.token_s.size()) + ", requested " +
                 std::to_string(max_tokens));
    }
    if (r.text != reference.at(prompts[i].text)) {
      check.fail(where + "streamed text differs from the offline reference");
    }
  }
}

std::map<std::string, std::string> served_reference(const orinsim::Tokenizer& tokenizer,
                                                    const std::vector<Prompt>& prompts,
                                                    std::size_t max_tokens) {
  std::map<std::string, std::vector<TokenId>> distinct;
  for (const Prompt& p : prompts) distinct.emplace(p.text, p.tokens);
  std::vector<std::vector<TokenId>> ids;
  for (const auto& [text, tokens] : distinct) ids.push_back(tokens);
  const std::vector<std::string> texts = reference_texts(tokenizer, ids, max_tokens);
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  for (const auto& [text, tokens] : distinct) out.emplace(text, texts[i++]);
  return out;
}

std::vector<PlannedRequest> plan_for(const std::vector<Prompt>& prompts,
                                     const std::vector<double>& due, std::size_t max_tokens) {
  std::vector<PlannedRequest> plan(prompts.size());
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    plan[i].due_s = due.empty() ? 0.0 : due[i];
    plan[i].request = completion_request(prompts[i].text, max_tokens);
  }
  return plan;
}

// Warm-up: closed batch, all due at once, outside the measured window.
bool warm_up(std::uint16_t port, const ServedInputs& in, const ServedWorkload& w) {
  const std::vector<ClientRecord> warm =
      run_open_loop(port, plan_for(in.warmup, {}, w.max_tokens), kConnections, Clock::now(),
                    120.0);
  return std::all_of(warm.begin(), warm.end(), [](const ClientRecord& r) { return r.ok(); });
}

// /metrics sample value by name (NaN when absent).
double prometheus_value(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  while ((pos = text.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') return std::atof(text.c_str() + pos + name.size() + 1);
    pos += name.size();
  }
  return std::nan("");
}

// The daemon's modeled-energy counter and its token counters, read off
// /metrics.
struct EnergyReading {
  double joules = std::nan("");
  double tokens = std::nan("");
};

EnergyReading read_energy(std::uint16_t port) {
  const std::string text = http_get(port, "/metrics");
  return EnergyReading{prometheus_value(text, "orinsim_energy_joules_total"),
                       prometheus_value(text, "orinsim_prompt_tokens_total") +
                           prometheus_value(text, "orinsim_completion_tokens_total")};
}

// Modeled joules per prompt+completion token (the per-token basis of the
// daemon's orinsim_energy_per_token_joules gauge) as the median over kChunks
// time segments of the window. /metrics is read when the meter is made
// (before the window), from a second thread at each inner segment boundary,
// and in joules_per_token() (after the last request). The model charges
// energy for measured step durations, so a host stall inflates one segment
// instead of the whole ratio.
class EnergyMeter {
 public:
  EnergyMeter(std::uint16_t port, Clock::time_point epoch, double window_s)
      : port_(port), readings_{read_energy(port)}, sampler_([this, epoch, window_s] {
          for (std::size_t k = 1; k < kChunks; ++k) {
            const double at_s = window_s * static_cast<double>(k) / static_cast<double>(kChunks);
            std::this_thread::sleep_until(
                epoch + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(at_s)));
            readings_.push_back(read_energy(port_));
          }
        }) {}

  double joules_per_token() {
    sampler_.join();
    readings_.push_back(read_energy(port_));
    std::vector<double> segments;
    for (std::size_t i = 1; i < readings_.size(); ++i) {
      const double tokens = readings_[i].tokens - readings_[i - 1].tokens;
      if (tokens > 0.0) segments.push_back((readings_[i].joules - readings_[i - 1].joules) / tokens);
    }
    return median(segments);
  }

 private:
  std::uint16_t port_;
  std::vector<EnergyReading> readings_;  // the sampler's until it is joined
  std::jthread sampler_;                 // last: it uses the members above
};

struct ServedRun {
  std::vector<ClientRecord> records;
  E2E e2e;
  GeneratorHealth health;
};

// The untraced measurement: the shipped binary, timed from outside.
ServedRun run_served_binary(const std::string& bin, const ServedWorkload& w,
                            const ServedInputs& in, double window_s) {
  ServedRun run;
  std::vector<double> setups;
  auto server = std::make_unique<ServerProcess>();
  std::vector<std::string> flags = kServedFlags;
  flags.push_back("--port=0");
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    if (i > 0) server = std::make_unique<ServerProcess>();
    const double s = server->start(bin, flags);
    if (s < 0.0) throw std::runtime_error("orinsim_serve did not start: " + bin);
    setups.push_back(s);
    if (i + 1 < kSetupReps) server->stop();
  }
  if (!warm_up(server->port(), in, w)) throw std::runtime_error("warm-up requests failed");

  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(20);
  EnergyMeter energy(server->port(), epoch, window_s);
  run.records = run_open_loop(server->port(), plan_for(in.prompts, in.due_s, w.max_tokens),
                              kConnections, epoch, window_s + 40.0);
  run.e2e = summarize_served(run.records, w, window_s);
  run.health = generator_health(run.records, window_s);
  run.e2e.joules_per_token = energy.joules_per_token();
  run.e2e.peak_rss_mb = peak_rss_mb(std::to_string(server->pid()));
  run.e2e.setup_s = median(setups);
  run.e2e.setup_reps = setups.size();
  server->stop();
  return run;
}

// The traced measurement: the same stack in-process behind the same HTTP
// server, with the TimingBackend decorator between engine and backend.
struct TracedServed {
  ServedRun run;
  LayerReport layers;
};

TracedServed run_served_traced(const orinsim::Tokenizer& tokenizer, const ServedWorkload& w,
                               const ServedInputs& in, double window_s) {
  TracedServed out;
  const Clock::time_point t0 = Clock::now();
  Stack stack = build_stack(tokenizer, served_spec());
  TimingBackend timing(*stack.backend);
  orinsim::server::EngineHost::Config host_config;  // orinsim_serve defaults
  host_config.queue_cap = 32;
  host_config.max_new_tokens_cap = 256;
  const Clock::time_point before_host = Clock::now();
  orinsim::server::EngineHost host(timing, tokenizer, stack.max_seq, host_config);
  const Clock::time_point after_host = Clock::now();
  // The engine stamps arrivals on a clock started inside the host's
  // constructor; the midpoint bounds the error by the constructor's length.
  const Clock::time_point engine_epoch = before_host + (after_host - before_host) / 2;
  orinsim::server::ServerConfig server_config;
  server_config.model_name = std::string(kModelFamily) + "-nano";
  orinsim::server::Server server(host, server_config);
  std::string error;
  if (!server.start(&error)) throw std::runtime_error("in-process server: " + error);
  out.run.e2e.setup_s = since(t0, Clock::now());
  out.run.e2e.setup_reps = 1;
  if (!warm_up(server.port(), in, w)) throw std::runtime_error("warm-up requests failed");

  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(20);
  EnergyMeter energy(server.port(), epoch, window_s);
  timing.reset(epoch, engine_epoch);
  out.run.records = run_open_loop(server.port(), plan_for(in.prompts, in.due_s, w.max_tokens),
                                  kConnections, epoch, window_s + 40.0);
  const TimingBackend::Records records = timing.snapshot();
  out.run.e2e = summarize_served(out.run.records, w, window_s);
  out.run.health = generator_health(out.run.records, window_s);
  out.run.e2e.joules_per_token = energy.joules_per_token();
  out.run.e2e.peak_rss_mb = peak_rss_mb("self");
  server.shutdown();

  double last_done = window_s;
  for (const ClientRecord& r : out.run.records) last_done = std::max(last_done, r.done_s);
  LayerInputs li;
  li.records = &records;
  li.client = &out.run.records;
  for (const Prompt& p : in.prompts) li.client_prompt_hash.push_back(token_hash(p.tokens));
  li.rejected = out.run.e2e.rejected;
  li.conn_errors = out.run.e2e.conn_errors;
  li.wall_s = last_done;
  li.weight_bytes = stack.model->weight_bytes();
  li.block_tokens = served_spec().backend.block_tokens;
  out.layers = layer_metrics(li);
  return out;
}

// Traced-over-untraced ratio of each end-to-end metric the trace can move
// that does not depend on how many requests the window held (the served
// baseline offers only the first half of the schedule).
JsonObject overhead(const E2E& untraced, const E2E& traced) {
  auto rel = [](double t, double u) { return u != 0.0 ? t / u : std::nan(""); };
  JsonObject o;
  o.num("ttft_p50_ms", rel(traced.ttft_p50_ms, untraced.ttft_p50_ms))
      .num("itl_p50_ms", rel(traced.itl_p50_ms, untraced.itl_p50_ms))
      .num("joules_per_token", rel(traced.joules_per_token, untraced.joules_per_token));
  return o;
}

// ---------------------------------------------------------------------------
// Offline batch workload
// ---------------------------------------------------------------------------

StackSpec offline_spec(const OfflineWorkload& w, bool constrained) {
  StackSpec spec;
  spec.dtype = w.dtype;
  spec.decode_workers = w.workers;
  spec.backend.max_lanes = w.lanes;
  spec.backend.max_seq = w.input_tokens + w.max_tokens;
  spec.backend.kv_storage = w.kv_storage;
  spec.backend.power_proxy_model = "llama3";
  if (constrained) {
    const std::size_t block = spec.backend.block_tokens;
    const std::size_t full = w.lanes * ((spec.backend.max_seq + block - 1) / block);
    const double blocks = std::round(w.kv_fraction * static_cast<double>(full));
    spec.backend.kv_blocks = std::max<std::size_t>(1, static_cast<std::size_t>(blocks));
  }
  return spec;
}

struct OfflineRep {
  double wall_s = 0.0;
  std::size_t tokens = 0;
  std::size_t good = 0;
  double joules_per_token = 0.0;
  std::size_t preemptions = 0;
  std::uint64_t digest = 0;
  std::vector<double> ttft_ms, itl_ms;
};

// One batch, all due at t = 0, through the engine ContinuousPolicy::run
// uses (submit all, step until idle, finish), with token callbacks stamping
// wall time.
OfflineRep offline_rep(orinsim::serving::TokenBackend& backend,
                       const std::vector<std::vector<TokenId>>& prompts,
                       const OfflineWorkload& w) {
  OfflineRep rep;
  std::vector<std::vector<double>> times(prompts.size());
  orinsim::serving::ContinuousEngine engine(backend);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    orinsim::serving::Request req;
    req.prompt = prompts[i];
    req.prompt_tokens = prompts[i].size();
    req.max_new_tokens = w.max_tokens;
    orinsim::serving::StreamCallbacks cb;
    cb.on_token = [&times, t0, i](const orinsim::serving::Request&, TokenId) {
      times[i].push_back(since(t0, Clock::now()));
    };
    engine.submit(std::move(req), std::move(cb));
  }
  while (engine.step() == orinsim::serving::ContinuousEngine::Step::kWorked) {
  }
  rep.wall_s = since(t0, Clock::now());
  const orinsim::serving::EngineResult result = engine.finish();
  rep.joules_per_token = result.energy_per_token_j();
  rep.preemptions = result.preemptions;
  std::uint64_t h = 1469598103934665603ULL;
  for (const orinsim::serving::Request& r : result.requests) {
    h = token_hash(r.output, h);
    rep.tokens += r.output.size();
  }
  rep.digest = h;
  for (const std::vector<double>& t : times) {
    if (t.empty()) continue;
    const double ttft = t[0] * 1e3;
    rep.ttft_ms.push_back(ttft);
    const std::vector<double> g = gaps(t);
    for (double x : g) rep.itl_ms.push_back(x * 1e3);
    const double tpot = g.empty() ? 0.0 : mean(g) * 1e3;
    if (ttft <= w.ttft_slo_ms && tpot <= w.itl_slo_ms) ++rep.good;
  }
  return rep;
}

struct OfflineRun {
  E2E e2e;
  std::vector<OfflineRep> reps;
};

// Repeats the batch until `seconds` of measurement have passed. Peak RSS is
// read after the first batch: every batch is the same, so the engine's peak
// is reached there, and later the driver's own sample storage (growing with
// the number of batches the host fits in the window) would count too.
OfflineRun offline_measure(orinsim::serving::TokenBackend& backend,
                           const std::vector<std::vector<TokenId>>& prompts,
                           const OfflineWorkload& w, double seconds) {
  OfflineRun run;
  const Clock::time_point start = Clock::now();
  while (run.reps.size() < kMinOfflineReps || since(start, Clock::now()) < seconds) {
    run.reps.push_back(offline_rep(backend, prompts, w));
    if (run.reps.size() == 1) run.e2e.peak_rss_mb = peak_rss_mb("self");
  }
  std::vector<double> tok_s, goodput, jpt;
  for (const OfflineRep& r : run.reps) {
    run.e2e.attempted += prompts.size();
    run.e2e.failed += prompts.size() - r.ttft_ms.size();
    run.e2e.ttft_ms.insert(run.e2e.ttft_ms.end(), r.ttft_ms.begin(), r.ttft_ms.end());
    run.e2e.itl_ms.insert(run.e2e.itl_ms.end(), r.itl_ms.begin(), r.itl_ms.end());
    tok_s.push_back(static_cast<double>(r.tokens) / r.wall_s);
    goodput.push_back(static_cast<double>(r.good) / r.wall_s);
    jpt.push_back(r.joules_per_token);
  }
  set_latencies(run.e2e, {run.e2e.ttft_ms}, {run.e2e.itl_ms});
  run.e2e.output_tok_s = median(tok_s);
  run.e2e.goodput_rps = median(goodput);
  run.e2e.joules_per_token = median(jpt);
  return run;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Outcome {
  JsonObject report;
  Check check;
  bool valid = true;
  E2E e2e;
  JsonObject per_layer;
};

// A traced run measures untraced over the first half of the window (the
// overhead baseline) and then traced over the whole window, so the traced
// tails have as many samples as an untraced run's.
Outcome served_mode(const ServedWorkload& w, const std::string& bin, std::uint64_t seed,
                    double seconds, bool trace) {
  Outcome o;
  if (bin.empty() || ::access(bin.c_str(), X_OK) != 0) {
    throw std::runtime_error("--serve-bin must name the orinsim_serve executable");
  }
  const orinsim::Tokenizer tokenizer = serving_tokenizer();
  const orinsim::workload::Corpus corpus =
      orinsim::workload::generate_corpus(orinsim::workload::CorpusSpec::wikitext2());
  const orinsim::workload::PromptPool pool(corpus, tokenizer);

  const ServedInputs in = make_served_inputs(w, tokenizer, pool, seed, seconds);
  const double window = trace ? seconds / 2.0 : seconds;
  const ServedInputs& measured = trace ? schedule_head(in, window) : in;
  const ServedRun run = run_served_binary(bin, w, measured, window);
  o.e2e = run.e2e;
  o.valid = run.health.valid;
  // The traced run goes before the reference: the reference's decode pool
  // leaves OpenMP worker state behind that measurably shifts in-process
  // latencies, and the traced run must see the same process state the
  // binary starts from.
  std::optional<TracedServed> traced;
  if (trace) traced = run_served_traced(tokenizer, w, in, seconds);
  const std::map<std::string, std::string> reference =
      served_reference(tokenizer, in.prompts, w.max_tokens);
  check_served(run.records, measured.prompts, reference, w.max_tokens, "served", o.check);

  o.report.obj("generator", run.health.json())
      .obj("samples", run.e2e.samples())
      .count("distinct_prompts", reference.size())
      .strings("served_flags", kServedFlags)
      .num("window_s", window)
      .num("offered_rps", w.rate_rps)
      .num("ttft_slo_ms", w.ttft_slo_ms)
      .num("itl_slo_ms", w.itl_slo_ms);

  if (traced) {
    check_served(traced->run.records, in.prompts, reference, w.max_tokens, "traced", o.check);
    o.valid = o.valid && traced->run.health.valid;
    o.per_layer = traced->layers.metrics;
    o.report.obj("traced_e2e", traced->run.e2e.metrics())
        .obj("traced_generator", traced->run.health.json())
        .obj("tracing_overhead", overhead(run.e2e, traced->run.e2e))
        .obj("decomposition", traced->layers.decomposition)
        .obj("per_layer_tails", traced->layers.tails);
  }
  return o;
}

Outcome offline_mode(const OfflineWorkload& w, std::uint64_t seed, double seconds, bool trace) {
  Outcome o;
  const orinsim::Tokenizer tokenizer = serving_tokenizer();
  const orinsim::workload::Corpus corpus =
      orinsim::workload::generate_corpus(orinsim::workload::CorpusSpec::wikitext2());
  const orinsim::workload::PromptPool pool(corpus, tokenizer);
  orinsim::Rng rng(seed ^ 0x5bd1e995ULL);
  const std::vector<std::vector<TokenId>> prompts =
      pool.sample_batch(w.requests, w.input_tokens, rng);

  // Set-up: weight init + quantization + backend construction, repeated;
  // only one stack is alive at a time.
  std::vector<double> setups;
  Stack stack;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    stack.release();
    const Clock::time_point t0 = Clock::now();
    stack = build_stack(tokenizer, offline_spec(w, true));
    setups.push_back(since(t0, Clock::now()));
  }

  // As in served_mode: untraced over half the window, then traced over all.
  const double window = trace ? seconds / 2.0 : seconds;
  OfflineRun run = offline_measure(*stack.backend, prompts, w, window);
  run.e2e.setup_s = median(setups);
  run.e2e.setup_reps = setups.size();
  o.e2e = run.e2e;

  std::size_t preemptions = 0;
  for (const OfflineRep& r : run.reps) {
    preemptions += r.preemptions;
    if (r.digest != run.reps.front().digest) o.check.fail("output digest differs between reps");
  }
  if (preemptions == 0) o.check.fail("the constrained KV pool never preempted");

  o.report.obj("samples", run.e2e.samples())
      .count("reps", run.reps.size())
      .count("preemptions", preemptions)
      .count("kv_blocks", offline_spec(w, true).backend.kv_blocks)
      .str("dtype", orinsim::dtype_name(w.dtype))
      .num("ttft_slo_ms", w.ttft_slo_ms)
      .num("itl_slo_ms", w.itl_slo_ms);

  if (trace) {
    TimingBackend timing(*stack.backend);
    const Clock::time_point epoch = Clock::now();
    timing.reset(epoch, epoch);
    OfflineRun traced = offline_measure(timing, prompts, w, seconds);
    const TimingBackend::Records records = timing.snapshot();
    double wall = 0.0;
    for (const OfflineRep& r : traced.reps) {
      wall += r.wall_s;
      if (r.digest != run.reps.front().digest) o.check.fail("traced output digest differs");
    }
    LayerInputs li;
    li.records = &records;
    li.wall_s = wall;
    li.weight_bytes = stack.model->weight_bytes();
    li.block_tokens = offline_spec(w, true).backend.block_tokens;
    const LayerReport layers = layer_metrics(li);
    o.per_layer = layers.metrics;
    o.report.obj("traced_e2e", traced.e2e.metrics())
        .obj("tracing_overhead", overhead(run.e2e, traced.e2e))
        .obj("per_layer_tails", layers.tails);
  }

  // Lossless preemption: the same batch with an unconstrained pool.
  stack.release();
  Stack full = build_stack(tokenizer, offline_spec(w, false));
  const OfflineRep reference = offline_rep(*full.backend, prompts, w);
  if (reference.preemptions != 0) o.check.fail("the unconstrained pool preempted");
  if (reference.digest != run.reps.front().digest) {
    o.check.fail("output digest differs from the unconstrained-pool run");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const orinsim::CliArgs args(argc, argv);
  const std::string workload = args.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  try {
    Outcome o;
    if (workload == "chat_prefix") {
      o = served_mode(kChatPrefix, args.get("serve-bin", ""), seed, seconds, trace);
    } else if (workload == "offline_quant") {
      o = offline_mode(kOfflineQuant, seed, seconds, trace);
    } else {
      std::fprintf(stderr, "perfbench_driver: --workload must be chat_prefix or offline_quant\n");
      return 2;
    }
    JsonObject report;
    report.str("workload", workload)
        .count("seed", seed)
        .num("seconds", seconds)
        .flag("trace", trace)
        .flag("correct", o.check.ok() && o.valid)
        .flag("outputs_match", o.check.ok())
        .flag("generator_valid", o.valid)
        .strings("problems", o.check.problems)
        .count("attempted", o.e2e.attempted)
        .count("failed", o.e2e.failed)
        .str("kernels", orinsim::simd::level_name(orinsim::simd::active_level()))
        .obj("e2e", o.e2e.metrics())
        .obj("details", o.report);
    if (trace) report.obj("per_layer", o.per_layer);
    std::printf("PERFBENCH_REPORT %s\n", report.dump().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
