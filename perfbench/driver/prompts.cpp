#include "driver/prompts.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

using orinsim::TokenId;

std::vector<double> poisson_schedule(double rate_rps, double window_s, std::uint64_t seed) {
  if (!(rate_rps > 0.0) || !(window_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate and window must be positive");
  }
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(rate_rps * window_s)));
  // n + 1 gaps: the exponential distribution's quantiles at the midpoints
  // of n + 1 equal-probability strata, in an order drawn from the seed.
  std::vector<double> gaps(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n + 1);
    gaps[i] = -std::log1p(-u) / rate_rps;
  }
  orinsim::Rng rng(seed);
  for (std::size_t i = n; i > 0; --i) {
    std::swap(gaps[i], gaps[static_cast<std::size_t>(rng.uniform_index(i + 1))]);
  }
  double total = 0.0;
  for (double g : gaps) total += g;
  const double scale = window_s / total;  // the (n+1)-th arrival lands at window_s
  std::vector<double> arrivals(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i] * scale;
    arrivals[i] = t;
  }
  return arrivals;
}

bool round_trips(const orinsim::Tokenizer& tokenizer, const std::vector<TokenId>& tokens) {
  return tokenizer.encode(tokenizer.decode(tokens)) == tokens;
}

std::vector<Prompt> chat_prompts(const orinsim::workload::PromptPool& pool,
                                 const orinsim::Tokenizer& tokenizer, std::size_t count,
                                 const orinsim::workload::ChatWorkloadConfig& config,
                                 orinsim::Rng& rng) {
  // One batch fixes the system prompts; draw spare suffixes up front so a
  // rejected prompt is replaced by the next draw of the same batch.
  const std::vector<std::vector<TokenId>> batch =
      pool.sample_chat_batch(2 * count + 16, config, rng);
  std::vector<Prompt> out;
  out.reserve(count);
  for (const auto& tokens : batch) {
    if (out.size() == count) break;
    if (!round_trips(tokenizer, tokens)) continue;
    out.push_back(Prompt{tokens, tokenizer.decode(tokens)});
  }
  if (out.size() < count) {
    throw std::runtime_error("chat_prompts: too few prompts survive the round trip");
  }
  return out;
}

std::uint64_t token_hash(const std::vector<TokenId>& tokens, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (TokenId t : tokens) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (t >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace perfbench
