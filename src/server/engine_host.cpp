#include "server/engine_host.h"

#include <utility>

#include "core/error.h"
#include "core/stats.h"

namespace orinsim::server {

// ---------------------------------------------------------------------------
// CompletionStream
// ---------------------------------------------------------------------------

bool CompletionStream::next_token(std::string& text) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !tokens_.empty() || done_; });
  if (!tokens_.empty()) {
    text = std::move(tokens_.front());
    tokens_.pop_front();
    return true;
  }
  return false;
}

void CompletionStream::cancel() {
  std::lock_guard<std::mutex> lk(mu_);
  cancelled_ = true;
  tokens_.clear();
}

void CompletionStream::push(std::string text) {
  std::lock_guard<std::mutex> lk(mu_);
  if (cancelled_) return;
  tokens_.push_back(std::move(text));
  cv_.notify_one();
}

void CompletionStream::finish(Final final_info) {
  std::lock_guard<std::mutex> lk(mu_);
  final_ = final_info;
  done_ = true;
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// EngineHost
// ---------------------------------------------------------------------------

EngineHost::EngineHost(serving::TokenBackend& backend, const Tokenizer& tokenizer,
                       std::size_t max_seq, Config config)
    : backend_(backend),
      tokenizer_(tokenizer),
      max_seq_(max_seq),
      config_(std::move(config)),
      engine_(backend, config_.governor, /*real_time=*/true) {
  ORINSIM_CHECK(config_.queue_cap > 0, "engine host: queue cap must be positive");
  engine_thread_ = std::thread([this] { engine_loop(); });
}

EngineHost::~EngineHost() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (engine_thread_.joinable()) engine_thread_.join();
}

void EngineHost::engine_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (engine_.idle()) {
      if (stop_ || draining_) break;
      cv_.wait(lk, [&] { return stop_ || draining_ || !engine_.idle(); });
      continue;
    }
    // Token/finish callbacks fire inside step() on this thread, with mu_
    // held; they only touch per-stream locks and host counters.
    engine_.step();
  }
  drained_ = true;
  cv_.notify_all();
}

EngineHost::Submission EngineHost::submit(const std::string& prompt,
                                          std::size_t max_new_tokens) {
  Submission out;
  if (config_.max_new_tokens_cap > 0 && max_new_tokens > config_.max_new_tokens_cap) {
    max_new_tokens = config_.max_new_tokens_cap;
  }
  if (max_new_tokens == 0) {
    out.status = SubmitStatus::kInvalid;
    out.error = "max_tokens must be at least 1";
    return out;
  }
  std::vector<TokenId> tokens = tokenizer_.encode(prompt);
  if (tokens.empty()) {
    out.status = SubmitStatus::kInvalid;
    out.error = "prompt must encode to at least one token";
    return out;
  }
  if (tokens.size() + max_new_tokens > max_seq_) {
    out.status = SubmitStatus::kInvalid;
    out.error = "prompt + max_tokens exceeds the model context (" +
                std::to_string(max_seq_) + " tokens)";
    return out;
  }

  auto stream = std::make_shared<CompletionStream>();
  serving::StreamCallbacks callbacks;
  // Both callbacks run on the engine thread with mu_ held: bare counter
  // updates are already serialized, and stream pushes take only the
  // stream's own lock. The engine destroys them when the request retires,
  // so the client's Submission then holds the only reference to the stream.
  callbacks.on_token = [this, stream](const serving::Request& req, TokenId token) {
    (void)req;
    ++completion_tokens_;
    stream->push(tokenizer_.token_text(token));
  };
  callbacks.on_finish = [this, stream](const serving::Request& req) {
    ++completed_;
    CompletionStream::Final final_info;
    final_info.prompt_tokens = req.prompt_tokens;
    final_info.completion_tokens = req.generated;
    final_info.preemptions = req.preemptions;
    final_info.prefix_cached_tokens = req.prefix_cached;
    stream->finish(final_info);
  };

  serving::Request req;
  req.prompt = std::move(tokens);
  req.prompt_tokens = req.prompt.size();
  req.max_new_tokens = max_new_tokens;

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_ || stop_) {
      out.status = SubmitStatus::kDraining;
      return out;
    }
    if (engine_.queue_depth() >= config_.queue_cap) {
      ++rejected_;
      out.status = SubmitStatus::kRejected;
      return out;
    }
    const std::size_t id = engine_.submit(std::move(req), std::move(callbacks));
    ORINSIM_CHECK(id != serving::ContinuousEngine::kRejected,
                  "engine host: engine rejected a gated submission");
  }
  cv_.notify_all();
  out.status = SubmitStatus::kOk;
  out.stream = std::move(stream);
  return out;
}

EngineHost::Metrics EngineHost::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  Metrics m;
  m.submitted = engine_.submitted_count();
  m.rejected = rejected_;
  m.completed = completed_;
  m.active = engine_.active_count();
  m.queued = engine_.queue_depth();
  m.completion_tokens = completion_tokens_;
  for (std::size_t i = 0; i < engine_.submitted_count(); ++i) {
    const serving::Request& r = engine_.request(i);
    m.prompt_tokens += r.prompt_tokens;
    m.preemptions += r.preemptions;
  }
  const trace::ExecutionTimeline& timeline = engine_.timeline();
  // kVerify is a speculative round's target pass — count it as a decode step
  // so speculative and plain serving report comparable step totals.
  m.decode_steps =
      timeline.count(trace::Phase::kDecode) + timeline.count(trace::Phase::kVerify);
  m.prefill_steps = timeline.count(trace::Phase::kPrefill);
  m.draft_steps = timeline.count(trace::Phase::kDraft);
  m.speculation_enabled = backend_.speculation_enabled();
  m.speculation = engine_.speculation();
  m.energy_j = timeline.total_energy_j();
  m.engine_time_s = timeline.now();
  m.governor_step_downs =
      timeline.governor_event_count(trace::GovernorEventKind::kPowerCapStepDown) +
      timeline.governor_event_count(trace::GovernorEventKind::kThermalStepDown);
  // NaN when nothing completed yet — deliberately preserved (see
  // core/stats.h): /metrics reports it as NaN, tables as "n/a".
  m.latency_mean_s = orinsim::mean(timeline.request_latencies());
  m.latency_p95_s = orinsim::percentile(timeline.request_latencies(), 95.0);
  m.prefix_cache_enabled = backend_.prefix_cache_enabled();
  m.prefix_cache = backend_.prefix_cache_stats();
  const serving::TokenBackend::KVUsage kv = backend_.kv_usage();
  m.kv_used_blocks = kv.used_blocks;
  m.kv_total_blocks = kv.total_blocks;
  m.draining = draining_;
  return m;
}

void EngineHost::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  if (!draining_) {
    draining_ = true;
    engine_.drain();
    cv_.notify_all();
  }
  cv_.wait(lk, [&] { return drained_; });
}

}  // namespace orinsim::server
