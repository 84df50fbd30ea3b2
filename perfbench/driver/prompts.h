// Seeded request schedules and prompts for the benchmark workloads.
//
// Every input the server sees is generated here from the workload seed.
// Prompts are drawn as token ids from workload::PromptPool and sent as the
// text Tokenizer::decode gives for them; only prompts whose text encodes
// back to exactly the same ids are kept, so the token counts, the shared
// system prefixes and the offline reference all describe what the server
// actually receives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "tokenizer/tokenizer.h"
#include "workload/prompt_pool.h"

namespace perfbench {

struct Prompt {
  std::vector<orinsim::TokenId> tokens;
  std::string text;
};

// Stratified Poisson arrival times in [0, window_s): exactly
// n = round(rate_rps * window_s) arrivals (at least one) whose gaps are the
// exponential distribution's quantiles at n + 1 stratum midpoints, shuffled
// by `seed` and scaled so the next arrival would land at window_s. Every run
// offers exactly the nominal rate with the same empirical gap distribution;
// the seed decides the order, and with it where the bursts fall. Plain
// sampling would also vary how many requests arrive close together, which
// dominates the tail latencies of a run a few hundred requests long.
// Deterministic in `seed`.
std::vector<double> poisson_schedule(double rate_rps, double window_s, std::uint64_t seed);

// True when decode(tokens) encodes back to exactly `tokens`.
bool round_trips(const orinsim::Tokenizer& tokenizer,
                 const std::vector<orinsim::TokenId>& tokens);

// Chat traffic from PromptPool::sample_chat_batch: Zipfian-ranked shared
// system prompts plus per-user suffixes. Prompts that do not round-trip are
// redrawn from the same call's batch.
std::vector<Prompt> chat_prompts(const orinsim::workload::PromptPool& pool,
                                 const orinsim::Tokenizer& tokenizer, std::size_t count,
                                 const orinsim::workload::ChatWorkloadConfig& config,
                                 orinsim::Rng& rng);

// FNV-1a over token ids; order-sensitive.
std::uint64_t token_hash(const std::vector<orinsim::TokenId>& tokens,
                         std::uint64_t seed = 1469598103934665603ULL);

}  // namespace perfbench
