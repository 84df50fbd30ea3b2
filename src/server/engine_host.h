// Thread-safe host around the steppable ContinuousEngine.
//
// Threading boundary: ContinuousEngine is single-threaded by contract, so
// the host serializes every touch of it under one mutex. A dedicated engine
// thread loops { step() } while work exists and parks on a condition
// variable when idle; connection threads call submit()/metrics()/drain()
// which take the same mutex between steps. Token callbacks fire on the
// engine thread *inside* step() and only push into the per-request
// CompletionStream (its own lock) — connection threads consuming a stream
// never take the engine mutex, so the two lock domains never interleave in
// both orders and cannot deadlock.
//
// Backpressure: submit() rejects (kRejected) when the engine's queue depth
// — submitted but not yet admitted to a lane — is at queue_cap. Rejection
// happens before the request touches the engine, so a 429'd request leaves
// no trace in the timeline.
//
// Drain: drain() stops admissions (kDraining thereafter), lets every
// in-flight request run to retirement, and returns once the engine is
// empty. Streams receive their remaining tokens and finish normally —
// nothing in flight is dropped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serving/engine.h"
#include "tokenizer/tokenizer.h"

namespace orinsim::server {

// Per-request token conduit between the engine thread (producer) and one
// connection thread (consumer). Tokens arrive as surface text, already
// decoded by the host's tokenizer.
class CompletionStream {
 public:
  struct Final {
    std::size_t prompt_tokens = 0;
    std::size_t completion_tokens = 0;
    std::size_t preemptions = 0;
    std::size_t prefix_cached_tokens = 0;
  };

  // Blocks until a token is available or the stream finishes. Returns false
  // exactly once, when the request has retired and all tokens were
  // delivered; final() is valid from then on.
  bool next_token(std::string& text);

  const Final& final_info() const { return final_; }

  // Consumer gone (client disconnected): drop tokens instead of queueing
  // them. The engine still runs the request to completion.
  void cancel();

 private:
  friend class EngineHost;
  void push(std::string text);
  void finish(Final final_info);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> tokens_;
  Final final_;
  bool done_ = false;
  bool cancelled_ = false;
};

class EngineHost {
 public:
  struct Config {
    std::size_t queue_cap = 32;          // waiting requests before 429
    std::size_t max_new_tokens_cap = 0;  // 0: bounded by backend max_seq
    serving::GovernorConfig governor;
  };

  enum class SubmitStatus { kOk, kRejected, kDraining, kInvalid };

  struct Submission {
    SubmitStatus status = SubmitStatus::kInvalid;
    std::string error;  // set when kInvalid
    std::shared_ptr<CompletionStream> stream;
  };

  // `backend` and `tokenizer` must outlive the host. `max_seq` bounds
  // prompt + completion length (requests that cannot fit are kInvalid).
  EngineHost(serving::TokenBackend& backend, const Tokenizer& tokenizer,
             std::size_t max_seq, Config config);
  ~EngineHost();

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  // Tokenizes the prompt and enqueues it. Thread-safe.
  Submission submit(const std::string& prompt, std::size_t max_new_tokens);

  // Point-in-time serving counters for /metrics. Thread-safe.
  struct Metrics {
    std::size_t submitted = 0;
    std::size_t rejected = 0;        // 429s (never entered the engine)
    std::size_t completed = 0;
    std::size_t active = 0;          // on a lane right now
    std::size_t queued = 0;          // submitted, not yet on a lane
    std::size_t prompt_tokens = 0;   // across completed + in-flight requests
    std::size_t completion_tokens = 0;
    std::size_t decode_steps = 0;
    std::size_t prefill_steps = 0;
    std::size_t preemptions = 0;
    double energy_j = 0.0;
    double engine_time_s = 0.0;      // engine clock (wall-aligned in serving)
    std::size_t governor_step_downs = 0;
    // Completed-request latency distribution; NaN when none completed yet
    // (rendered as such — Prometheus accepts NaN, tables print "n/a").
    double latency_mean_s = 0.0;
    double latency_p95_s = 0.0;
    serving::PrefixCacheStats prefix_cache;
    bool prefix_cache_enabled = false;
    // Speculative decoding (zero / false when the backend runs none).
    // decode_steps above counts kDecode + kVerify events, so step counts
    // stay comparable between speculative and plain serving.
    serving::SpeculationStats speculation;
    bool speculation_enabled = false;
    std::size_t draft_steps = 0;  // kDraft events emitted
    std::size_t kv_used_blocks = 0;
    std::size_t kv_total_blocks = 0;
    bool draining = false;
  };
  Metrics metrics() const;

  // Stops admissions and blocks until all in-flight requests retired and
  // their streams finished. Idempotent; called automatically on destruction.
  void drain();

  std::size_t queue_cap() const { return config_.queue_cap; }

 private:
  void engine_loop();

  serving::TokenBackend& backend_;
  const Tokenizer& tokenizer_;
  const std::size_t max_seq_;
  const Config config_;

  mutable std::mutex mu_;  // guards engine_ and all counters below
  std::condition_variable cv_;
  serving::ContinuousEngine engine_;
  std::size_t rejected_ = 0;
  std::size_t completed_ = 0;
  std::size_t completion_tokens_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  bool drained_ = false;
  std::thread engine_thread_;
};

}  // namespace orinsim::server
