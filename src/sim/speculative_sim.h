// Device-level speculative-decoding speedup on the simulated Orin AGX.
//
// Decode on this device is weight-bound (§3.2): a verification pass over
// K+1 positions streams the same weights as generating one token, so its
// marginal cost is mostly compute. With per-token acceptance rate `a`, a
// round retires E = (1 - a^(K+1)) / (1 - a) tokens for one target pass plus
// K draft steps:
//
//     speedup = E * t_target(1) / (t_target(K+1 positions) + K * t_draft(1))
//
// The acceptance rate is an input here; the functional engine measures it
// for real self-draft pairs (serving::FunctionalTokenBackend with a
// SpeculationConfig), and the extension bench feeds one into the other.
#pragma once

#include <cstddef>

#include "sim/model_catalog.h"
#include "sim/power_mode.h"
#include "trace/timeline.h"

namespace orinsim::sim {

struct SpeculativeEstimate {
  double tokens_per_round = 0.0;
  double round_cost_s = 0.0;
  double baseline_step_s = 0.0;  // target's plain per-token decode cost
  double speedup = 0.0;          // > 1 means speculative decoding wins
  double draft_share = 0.0;      // fraction of the round spent drafting

  // One speculative round as events: K kDraft steps then one kVerify pass.
  // round_cost_s and draft_share are derived from this stream.
  trace::ExecutionTimeline round_timeline;
};

// Expected emitted tokens per round for greedy speculative decoding with
// independent per-token acceptance probability `a` and K draft tokens.
double expected_tokens_per_round(double acceptance, std::size_t draft_tokens);

// Speedup estimate for a (target, draft) pair at context position `ctx`.
// Both models run at the given precisions on the same device.
SpeculativeEstimate estimate_speculative_speedup(
    const ModelSpec& target, DType target_dtype, const ModelSpec& draft,
    DType draft_dtype, std::size_t draft_tokens, double acceptance, double ctx = 256.0,
    const PowerMode& pm = power_mode_maxn());

}  // namespace orinsim::sim
