// The unified request lifecycle every serving path speaks.
//
// A Request is one user prompt moving through Queued -> Prefilling ->
// Decoding -> Finished, with Preempted as the detour a paged engine takes
// when the KV block pool runs dry: the youngest running request releases its
// blocks, re-queues, and is later recomputed from its recorded tokens
// (greedy decoding makes the recompute lossless). Both the simulated and the
// functional backends mutate the same struct, so per-request metrics
// (latency, preemption count, tokens) read identically off either engine.
#pragma once

#include <cstddef>
#include <vector>

#include "tokenizer/tokenizer.h"

namespace orinsim::serving {

enum class RequestState { kQueued, kPrefilling, kDecoding, kFinished, kPreempted };

// Greedy draft/verify accounting, per request and summed per run. `proposed`
// counts only draft tokens the target actually compared: a rejection cuts
// the round short, so per round proposed == accepted + (1 if a proposal was
// rejected else 0). Drafts the round never compared (past a rejection, or
// past max_new_tokens) are not counted, otherwise they would be booked as
// rejected and deflate acceptance_rate() on short generations. Invariants
// pinned by test: accepted <= proposed <= accepted + rounds, and
// emitted == accepted + rounds (each round adds one target token).
struct SpeculationStats {
  std::size_t rounds = 0;
  std::size_t proposed = 0;  // draft tokens the target compared
  std::size_t accepted = 0;
  std::size_t emitted = 0;   // tokens retired by speculative rounds

  double acceptance_rate() const {
    return proposed > 0 ? static_cast<double>(accepted) / static_cast<double>(proposed)
                        : 0.0;
  }
  // Tokens emitted per verification round (the parallel-verify unit the
  // device-level speedup model consumes).
  double tokens_per_round() const {
    return rounds > 0 ? static_cast<double>(emitted) / static_cast<double>(rounds) : 0.0;
  }
  SpeculationStats& operator+=(const SpeculationStats& other) {
    rounds += other.rounds;
    proposed += other.proposed;
    accepted += other.accepted;
    emitted += other.emitted;
    return *this;
  }
};

struct Request {
  static constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);

  std::size_t id = 0;       // index into the engine's request list / timeline
  double arrival_s = 0.0;

  // Prompt: real tokens for the functional backend; the simulator only needs
  // the count (prompt stays empty, prompt_tokens carries the length).
  std::vector<TokenId> prompt;
  std::size_t prompt_tokens = 0;
  std::size_t max_new_tokens = 0;

  RequestState state = RequestState::kQueued;
  // Generated so far. The functional backend records the actual tokens in
  // `output` (output.size() == generated); the simulator only counts.
  std::vector<TokenId> output;
  std::size_t generated = 0;

  std::size_t preemptions = 0;
  std::size_t lane = kNoLane;  // backend lane while admitted

  // Prompt tokens served from the cross-request prefix cache at first
  // admission (0: miss, or the backend runs no cache). The matched prefix
  // attached ready-made KV blocks, so prefill only ran the suffix.
  std::size_t prefix_cached = 0;

  // Draft/verify accounting when the backend serves this request
  // speculatively (all zero otherwise). Survives preemption: recompute
  // replays recorded tokens without re-running rounds, so the counters keep
  // describing the rounds that actually executed.
  SpeculationStats spec;

  // Tokens in (or due in) the KV cache: prompt plus everything generated.
  std::size_t context() const { return prompt_tokens + generated; }
  bool done() const { return generated >= max_new_tokens; }
};

// Per-request energy attribution, derived from the engine's event stream:
// every powered step's energy is split evenly across the requests active in
// that step, so idle power is amortized over batch occupancy and the sum
// over requests conserves the timeline's total energy. All zero when the
// backend attaches no power (functional engine without a power proxy).
struct RequestMetrics {
  double energy_j = 0.0;
  // Attributed energy over the request's residency (first dispatch to
  // completion, queueing gaps after preemption included).
  double avg_power_w = 0.0;
  // energy_j / (prompt + generated) — the same token accounting as
  // token_throughput_tps, per request instead of per run.
  double energy_per_token_j = 0.0;
};

}  // namespace orinsim::serving
