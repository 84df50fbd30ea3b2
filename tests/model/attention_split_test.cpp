// Attention split pin: Model::forward splits the (sequence, KV head, row)
// attention units of every sequence of a step over kernel_pool() at top
// level and runs them as one range inline inside a pool shard. Both must
// give the same hidden rows bit for bit, at both kernel levels, for fp32
// and int8 KV, GQA groups of 4 (llama3-nano) and 1 (phi2-nano), and KV
// blocks of 16, 4 and 3 tokens, so range boundaries fall mid-head,
// mid-block and on partial tail tiles. Runs of 7 and 13 rows cover prefill
// chunks; runs of 1 over a 131-token prefix cover the width-1 decode split
// (one or a few KV heads per range); width-1 steps over 3-8 sequences of
// unequal contexts cover multi-lane decode, where only the summed work
// reaches the split and ranges cross from one sequence into the next.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "model/transformer.h"
#include "tensor/simd.h"

namespace orinsim {
namespace {

// Restores the dispatch level on scope exit so test order never leaks state.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) : prev_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedLevel() { simd::set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  simd::Level prev_;
};

std::vector<simd::Level> levels_to_test() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  return levels;
}

// One forward of runs of `run` rows over sequences holding cached[i]
// random K/V positions each; returns every row's final hidden state.
std::vector<float> forward_rows(Model& model, const KVCacheOptions& opts,
                                const std::vector<std::size_t>& cached, std::size_t run) {
  const TransformerConfig& cfg = model.config();
  const std::size_t n_seqs = cached.size();
  std::size_t longest = 0;
  for (const std::size_t n : cached) longest = std::max(longest, n);
  KVCache cache(cfg, n_seqs, longest + run, opts);
  Rng rng(41);
  std::vector<std::size_t> seqs(n_seqs);
  for (std::size_t b = 0; b < n_seqs; ++b) {
    seqs[b] = b;
    std::vector<float> kv(cached[b] * cfg.kv_dim());
    for (auto& x : kv) x = static_cast<float>(rng.normal(0.0, 1.0));
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append_many(l, b, kv, kv, cached[b]);
    cache.commit(b, cached[b]);
  }
  std::vector<TokenId> tokens(n_seqs * run);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<TokenId>((i * 7 + 3) % cfg.vocab);
  }
  std::vector<float> hidden(tokens.size() * cfg.d_model);
  InferenceWorkspace ws(cfg);
  model.forward(tokens, seqs, cache, hidden, ws);
  return hidden;
}

// Multiply-adds of one sequence's attention over `cached` positions.
std::size_t attention_work(const TransformerConfig& cfg, std::size_t cached, std::size_t run) {
  const std::size_t group = cfg.n_heads / cfg.n_kv_heads;
  return cfg.n_kv_heads * run * group * (cached + run) * cfg.head_dim() * 2;
}

TEST(AttentionSplitTest, SplitIsBitIdenticalToInlineRun) {
  if (kernel_pool().size() == 0) GTEST_SKIP() << "the kernel pool has no workers";
  for (simd::Level level : levels_to_test()) {
    ScopedLevel scoped(level);
    for (const char* family : {"llama3", "phi2"}) {
      const TransformerConfig cfg = make_nano_config(family, 64);
      for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
        Model model(MasterWeights::init_random(cfg, 5), DType::kF32, storage);
        for (std::size_t block : {16u, 4u, 3u}) {
          KVCacheOptions opts;
          opts.storage = storage;
          opts.block_tokens = block;
          // Prime runs (no shard count divides them) over 77 cached
          // positions, and width-1 decode over 130; neither prefix is a
          // multiple of any block size. One and two sequences each.
          std::vector<std::pair<std::size_t, std::vector<std::size_t>>> steps;
          for (const auto& [run, cached] : {std::pair<std::size_t, std::size_t>{7, 77},
                                            {13, 77},
                                            {1, 130}}) {
            ASSERT_GE(attention_work(cfg, cached, run), Model::kAttentionSplitWork)
                << "the split must run";
            steps.push_back({run, {cached}});
            steps.push_back({run, {cached, cached}});
          }
          // Width-1 steps over 3, 4, 5 and 8 sequences of unequal contexts:
          // no sequence's work reaches the split alone, their sum does, so
          // ranges start inside one sequence and run on into the next.
          const std::vector<std::size_t> contexts = {20, 126, 57, 101, 33, 88, 120, 64};
          for (std::size_t n_seqs : {3u, 4u, 5u, 8u}) {
            const std::vector<std::size_t> cached(contexts.begin(),
                                                  contexts.begin() + n_seqs);
            std::size_t work = 0;
            for (const std::size_t n : cached) {
              ASSERT_LT(attention_work(cfg, n, 1), Model::kAttentionSplitWork);
              work += attention_work(cfg, n, 1);
            }
            ASSERT_GE(work, Model::kAttentionSplitWork) << "the split must run";
            steps.push_back({1, cached});
          }
          for (const auto& [run, cached] : steps) {
            const std::vector<float> fanned = forward_rows(model, opts, cached, run);
            std::vector<float> inline_run;
            kernel_pool().parallel_for(0, 1, [&](std::size_t) {
              inline_run = forward_rows(model, opts, cached, run);
            });
            ASSERT_EQ(fanned.size(), inline_run.size());
            for (std::size_t i = 0; i < fanned.size(); ++i) {
              ASSERT_EQ(std::bit_cast<std::uint32_t>(fanned[i]),
                        std::bit_cast<std::uint32_t>(inline_run[i]))
                  << simd::level_name(level) << ' ' << family
                  << (storage == KVStorage::kI8 ? " int8" : " fp32") << " block " << block
                  << " run " << run << " seqs " << cached.size() << " i " << i;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace orinsim
