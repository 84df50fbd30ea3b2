#include "model/speculative.h"

#include <algorithm>

#include "core/error.h"
#include "tensor/kernels.h"

namespace orinsim {

namespace {

constexpr std::size_t kSeq = 0;

// Feed one token, return the greedy next token.
TokenId greedy_step(Model& model, KVCache& cache, TokenId token, InferenceWorkspace& ws,
                    std::vector<float>& logits) {
  model.forward({&token, 1}, {&kSeq, 1}, cache, ws.hidden, ws);
  model.logits_from_hidden(ws.hidden, logits);
  return static_cast<TokenId>(kernels::argmax(logits));
}

}  // namespace

Model::GenerateResult speculative_generate(Model& target, Model& draft,
                                           const std::vector<TokenId>& prompt,
                                           std::size_t max_new_tokens,
                                           const SpeculativeConfig& config,
                                           SpeculativeStats* stats) {
  ORINSIM_CHECK(!prompt.empty(), "speculative: empty prompt");
  ORINSIM_CHECK(config.draft_tokens >= 1, "speculative: need at least one draft token");
  ORINSIM_CHECK(target.config().vocab == draft.config().vocab,
                "speculative: target and draft must share a vocabulary");
  const std::size_t need = prompt.size() + max_new_tokens + config.draft_tokens + 2;
  ORINSIM_CHECK(target.config().max_seq >= need && draft.config().max_seq >= need,
                "speculative: sequence would exceed a model's max_seq");

  KVCache target_cache(target.config(), 1, need);
  KVCache draft_cache(draft.config(), 1, need);
  InferenceWorkspace t_ws(target.config()), d_ws(draft.config());
  std::vector<float> t_logits(target.config().vocab), d_logits(draft.config().vocab);

  SpeculativeStats local_stats;
  Model::GenerateResult result;
  result.outputs.resize(1);
  result.input_tokens = prompt.size();

  // context = prompt + emitted tokens; both caches always hold exactly it.
  std::vector<TokenId> context = prompt;

  // Prefill both models; the target's logits give the first pending token.
  TokenId pending = 0;
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    const TokenId t = prompt[i];
    pending = greedy_step(target, target_cache, t, t_ws, t_logits);
    ++local_stats.target_forwards;
    draft.forward({&t, 1}, {&kSeq, 1}, draft_cache, {}, d_ws);
  }

  auto emit = [&](TokenId t) {
    result.outputs[0].push_back(t);
    ++result.output_tokens;
    ++local_stats.emitted;
  };

  while (result.output_tokens < max_new_tokens) {
    emit(pending);
    if (result.output_tokens >= max_new_tokens) break;
    ++local_stats.rounds;

    const std::size_t k =
        std::min(config.draft_tokens, max_new_tokens - result.output_tokens);

    // Sync the draft cache with the canonical context (it may be one token
    // short after a fully-accepted round, or hold rejected tokens).
    draft_cache.truncate(0, std::min(draft_cache.seq_len(0), context.size()));
    for (std::size_t i = draft_cache.seq_len(0); i < context.size(); ++i) {
      draft.forward({&context[i], 1}, {&kSeq, 1}, draft_cache, {}, d_ws);
    }

    // Draft proposes k tokens continuing from `pending`.
    std::vector<TokenId> proposals;
    proposals.reserve(k);
    TokenId draft_feed = pending;
    for (std::size_t i = 0; i < k; ++i) {
      draft_feed = greedy_step(draft, draft_cache, draft_feed, d_ws, d_logits);
      proposals.push_back(draft_feed);
    }
    // Target verifies: feed pending, compare its next choice to proposal i.
    // `proposed` counts only drafts the target actually compared — a round a
    // rejection cuts short leaves proposals[i+1..k-1] unverified, and counting
    // them (as the old `proposed += k` here did) would book them as rejected
    // and deflate acceptance_rate().
    context.push_back(pending);
    TokenId verify_feed = pending;
    std::size_t accepted = 0;
    bool rejected = false;
    for (std::size_t i = 0; i < k; ++i) {
      const TokenId c = greedy_step(target, target_cache, verify_feed, t_ws, t_logits);
      ++local_stats.target_forwards;
      ++local_stats.proposed;
      if (c == proposals[i]) {
        ++accepted;
        emit(proposals[i]);
        context.push_back(proposals[i]);
        verify_feed = proposals[i];
        if (result.output_tokens >= max_new_tokens) break;
      } else {
        pending = c;  // the target's corrective token
        rejected = true;
        break;
      }
    }
    local_stats.accepted += accepted;
    if (result.output_tokens >= max_new_tokens) break;
    if (!rejected) {
      // Every proposal accepted. The verification loop fed `pending` and
      // proposals[0..k-2]; feeding the final accepted proposal both restores
      // the cache == context invariant and yields the bonus token.
      pending = greedy_step(target, target_cache, verify_feed, t_ws, t_logits);
      ++local_stats.target_forwards;
    }
    // Invariant: the target cache holds exactly `context` here (rejection
    // feeds pending + the accepted prefix; full acceptance catches up via
    // the bonus step).
    ORINSIM_DCHECK(target_cache.seq_len(0) == context.size(),
                   "speculative: target cache out of sync");
  }

  if (stats != nullptr) *stats = local_stats;
  return result;
}

}  // namespace orinsim
