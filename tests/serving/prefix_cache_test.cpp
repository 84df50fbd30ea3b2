// Cross-request radix prefix cache: radix-tree edge cases over a small paged
// KVCache (empty prompt, exact duplicate, mid-block prefix, divergence at
// token 0, LRU eviction, eviction racing a concurrent admit), then the
// engine-level acceptance pins — greedy outputs bit-identical with the cache
// on or off across the weight-precision x KV-storage grid, cache-free traces
// free of prefix events, counter conservation off the timeline, and
// allocator exhaustion draining the cache before anything is preempted.
#include "serving/prefix_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "model/kv_cache.h"
#include "model/transformer.h"
#include "serving/engine.h"
#include "tensor/simd.h"
#include "trace/export.h"
#include "workload/corpus.h"

#include "lane_pool_run.h"

namespace orinsim::serving {
namespace {

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

// ---------------------------------------------------------------------------
// Radix-tree unit tests over a bare paged KVCache (no model, no engine)
// ---------------------------------------------------------------------------

TransformerConfig radix_test_config() {
  TransformerConfig c;
  c.vocab = 97;
  c.d_model = 32;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_ff = 64;
  c.max_seq = 64;
  c.validate();
  return c;
}

KVCacheOptions radix_pool(std::size_t block_tokens, std::size_t max_blocks) {
  KVCacheOptions o;
  o.block_tokens = block_tokens;
  o.max_blocks = max_blocks;
  return o;
}

// Appends `count` committed positions to sequence b (both layers), with a
// distinguishable fill so attached prefixes can be checked for aliasing.
void fill_sequence(KVCache& cache, std::size_t b, std::size_t count, float base) {
  std::vector<float> row(cache.kv_dim());
  for (std::size_t i = 0; i < count; ++i) {
    std::fill(row.begin(), row.end(), base + static_cast<float>(i));
    for (std::size_t l = 0; l < 2; ++l) cache.append(l, b, row, row);
    cache.commit(b, 1);
  }
}

std::vector<TokenId> make_prompt(std::size_t count, TokenId first) {
  std::vector<TokenId> p(count);
  for (std::size_t i = 0; i < count; ++i) p[i] = first + static_cast<TokenId>(i);
  return p;
}

// Builds a committed `count`-token sequence on lane b, inserts its prompt
// into the cache, and retires the lane (insert-on-retire order).
void insert_retired(KVCache& cache, PrefixCache& pc, std::size_t b,
                    const std::vector<TokenId>& prompt, float base) {
  fill_sequence(cache, b, prompt.size(), base);
  pc.insert(prompt, cache.block_table(b));
  cache.free_sequence(b);
}

TEST(PrefixCacheRadixTest, EmptyPromptAndSubBlockInsertAreNoOps) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);

  // Insert shorter than one block caches nothing.
  fill_sequence(cache, 0, 3, 1.0f);
  pc.insert(make_prompt(3, 10), cache.block_table(0));
  EXPECT_EQ(pc.stats().cached_blocks, 0u);
  cache.free_sequence(0);
  EXPECT_EQ(cache.blocks_in_use(), 0u);

  // An empty prompt can never match, even with the tree populated.
  insert_retired(cache, pc, 0, make_prompt(8, 10), 1.0f);
  const PrefixMatch m = pc.match_and_retain({}, 0);
  EXPECT_FALSE(m.hit());
  EXPECT_TRUE(m.blocks.empty());
  const PrefixCacheStats s = pc.stats();
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(PrefixCacheRadixTest, ExactDuplicateAttachesFullChainBitExact) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);
  const auto prompt = make_prompt(8, 10);

  insert_retired(cache, pc, 0, prompt, 5.0f);
  // The tree's references keep both blocks alive past free_sequence.
  EXPECT_EQ(cache.blocks_in_use(), 2u);
  EXPECT_EQ(cache.cached_blocks(), 2u);

  PrefixMatch m = pc.match_and_retain(prompt, prompt.size());
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.tokens, 8u);
  ASSERT_EQ(m.blocks.size(), 2u);

  // Adopt the caller references into an empty lane: the rows read back the
  // exact values the retired sequence wrote (shared, not copied).
  cache.attach_prefix(1, m.blocks, m.tokens);
  EXPECT_EQ(cache.seq_len(1), 8u);
  EXPECT_EQ(cache.blocks_in_use(), 2u);
  std::vector<float> scratch(cache.kv_dim());
  EXPECT_EQ(cache.key(0, 1, 0, scratch)[0], 5.0f);
  EXPECT_EQ(cache.key(1, 1, 7, scratch)[0], 12.0f);

  cache.free_sequence(1);
  EXPECT_EQ(cache.blocks_in_use(), 2u);  // tree still holds its own refs

  const PrefixCacheStats s = pc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.hit_tokens, 8u);
  EXPECT_EQ(s.bytes_saved, 2u * cache.block_bytes());
}

TEST(PrefixCacheRadixTest, MaxTokensCapAndGranularityTrimMatches) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);
  const auto prompt = make_prompt(12, 10);
  insert_retired(cache, pc, 0, prompt, 1.0f);

  // Cap at prompt-1 (the engine's must-sample-one-token rule): a 12-token
  // chain trims to 8.
  PrefixMatch capped = pc.match_and_retain(prompt, prompt.size() - 1);
  EXPECT_EQ(capped.tokens, 8u);
  for (std::size_t b : capped.blocks) cache.release_block(b);

  // Matches end on a block boundary: a cap of 5 tokens keeps one block, an
  // uncapped lookup the whole 3-block chain.
  PrefixMatch one = pc.match_and_retain(prompt, 5);
  EXPECT_EQ(one.tokens, 4u);
  for (std::size_t b : one.blocks) cache.release_block(b);
  PrefixMatch all = pc.match_and_retain(prompt, prompt.size());
  EXPECT_EQ(all.tokens, 12u);
  for (std::size_t b : all.blocks) cache.release_block(b);
}

TEST(PrefixCacheRadixTest, PrefixEndingMidBlockSharesOnlyFullBlocks) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);

  // 10 committed tokens: only the 2 full blocks (8 tokens) enter the tree.
  const auto prompt = make_prompt(10, 10);
  insert_retired(cache, pc, 0, prompt, 1.0f);
  EXPECT_EQ(pc.stats().cached_blocks, 2u);
  EXPECT_EQ(cache.blocks_in_use(), 2u);  // the partial third block was freed

  // A prompt sharing 6 tokens diverges inside block 1: one block matches.
  auto mid = prompt;
  mid[6] = 99;
  const PrefixMatch m = pc.match_and_retain(mid, mid.size());
  EXPECT_EQ(m.tokens, 4u);
  for (std::size_t b : m.blocks) cache.release_block(b);
}

TEST(PrefixCacheRadixTest, DivergenceAtTokenZeroMisses) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);
  insert_retired(cache, pc, 0, make_prompt(8, 10), 1.0f);

  auto diverged = make_prompt(8, 10);
  diverged[0] = 77;
  const PrefixMatch m = pc.match_and_retain(diverged, diverged.size());
  EXPECT_FALSE(m.hit());
  const PrefixCacheStats s = pc.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hit_tokens, 0u);
}

TEST(PrefixCacheRadixTest, InsertDeduplicatesAgainstResidentPaths) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);
  const auto prompt = make_prompt(8, 10);

  insert_retired(cache, pc, 0, prompt, 1.0f);
  // A second retirement with the same prompt owns different physical blocks;
  // the tree keeps the resident path and lets the duplicates be freed.
  insert_retired(cache, pc, 1, prompt, 2.0f);

  const PrefixCacheStats s = pc.stats();
  EXPECT_EQ(s.inserted_blocks, 2u);
  EXPECT_EQ(s.cached_blocks, 2u);
  EXPECT_EQ(cache.blocks_in_use(), 2u);
}

TEST(PrefixCacheRadixTest, LruEvictionSkipsBlocksHeldBySequences) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);
  const auto prompt_a = make_prompt(8, 10);
  const auto prompt_b = make_prompt(8, 50);  // diverges at token 0
  insert_retired(cache, pc, 0, prompt_a, 1.0f);
  insert_retired(cache, pc, 0, prompt_b, 2.0f);
  EXPECT_EQ(pc.stats().cached_blocks, 4u);

  // Touch A, then hold caller references on its chain (a live admit).
  PrefixMatch held = pc.match_and_retain(prompt_a, prompt_a.size());
  ASSERT_EQ(held.blocks.size(), 2u);

  // Only B is reclaimable: its leaf (least recently used) goes first, then
  // its root block; A's chain is pinned by the held references.
  EXPECT_TRUE(pc.evict_lru_leaf());
  EXPECT_TRUE(pc.evict_lru_leaf());
  EXPECT_FALSE(pc.evict_lru_leaf());
  PrefixCacheStats s = pc.stats();
  EXPECT_EQ(s.evicted_blocks, 2u);
  EXPECT_EQ(s.cached_blocks, 2u);
  EXPECT_FALSE(pc.match_and_retain(prompt_b, prompt_b.size()).hit());
  EXPECT_TRUE(pc.match_and_retain(prompt_a, prompt_a.size()).hit());
  // Release the second match's references too (two holders now).
  for (std::size_t b : held.blocks) cache.release_block(b);
  for (std::size_t b : held.blocks) cache.release_block(b);

  // With the holders gone, the batch evictor drains the rest of the tree and
  // the allocator's cached-block audit returns to zero.
  EXPECT_EQ(pc.evict(16), 2u);
  EXPECT_EQ(pc.stats().cached_blocks, 0u);
  EXPECT_EQ(cache.cached_blocks(), 0u);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
}

TEST(PrefixCacheRadixTest, MaxBlocksCapsTreeResidency) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache, /*max_blocks=*/1);
  insert_retired(cache, pc, 0, make_prompt(8, 10), 1.0f);
  // Only the first block entered the tree; the second was freed with the lane.
  EXPECT_EQ(pc.stats().cached_blocks, 1u);
  EXPECT_EQ(cache.blocks_in_use(), 1u);
  const PrefixMatch m = pc.match_and_retain(make_prompt(8, 10), 8);
  EXPECT_EQ(m.tokens, 4u);
  for (std::size_t b : m.blocks) cache.release_block(b);
}

TEST(PrefixCacheRadixTest, ClearReleasesEveryTreeReference) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);
  insert_retired(cache, pc, 0, make_prompt(12, 10), 1.0f);
  insert_retired(cache, pc, 0, make_prompt(8, 60), 2.0f);
  EXPECT_GT(cache.blocks_in_use(), 0u);
  pc.clear();
  EXPECT_EQ(pc.stats().cached_blocks, 0u);
  EXPECT_EQ(cache.cached_blocks(), 0u);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
}

// The TSan target: an eviction sweep racing a concurrent admit must never
// free a block between the ref-count probe and the retain. Thread 1 plays
// the admit path (match, hold, release); thread 2 plays the exhaustion hook
// (evict whatever is unreferenced). The cache mutex makes each step atomic;
// the allocator guards catch any double release or still-cached free.
TEST(PrefixCacheRadixTest, EvictionRacingConcurrentAdmitIsSafe) {
  const auto cfg = radix_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/32, radix_pool(4, 16));
  PrefixCache pc(cache);
  const auto prompt = make_prompt(8, 10);
  insert_retired(cache, pc, 0, prompt, 1.0f);

  std::thread admitter([&] {
    for (int i = 0; i < 400; ++i) {
      PrefixMatch m = pc.match_and_retain(prompt, prompt.size());
      for (std::size_t b : m.blocks) cache.release_block(b);
    }
  });
  std::thread evictor([&] {
    for (int i = 0; i < 400; ++i) pc.evict_lru_leaf();
  });
  admitter.join();
  evictor.join();

  // Whatever interleaving happened, the books must balance: every cached
  // block is still tree-referenced, everything else went back to the pool.
  const PrefixCacheStats s = pc.stats();
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_EQ(s.cached_blocks, cache.cached_blocks());
  EXPECT_EQ(cache.blocks_in_use(), s.cached_blocks);
  pc.clear();
  EXPECT_EQ(cache.blocks_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level acceptance: the functional backend under chat traffic
// ---------------------------------------------------------------------------

class PrefixCacheEngineTest : public ::testing::Test {
 protected:
  PrefixCacheEngineTest()
      : corpus_(workload::generate_corpus(workload::CorpusSpec::wikitext2())),
        tokenizer_(Tokenizer::train(corpus_.text, 400)),
        pool_(corpus_, tokenizer_, 256),
        master_(MasterWeights::init_random(
            make_nano_config("llama3", tokenizer_.vocab_size()), 17)) {}

  // Flooded chat traffic over two shared system prompts: the first admission
  // wave misses (insert-on-retire), later waves hit on the 32-token system
  // prefix at block granularity.
  static FunctionalEngineConfig chat_config() {
    FunctionalEngineConfig cfg;
    cfg.arrivals.kind = workload::ArrivalKind::kPoisson;
    cfg.arrivals.rate_rps = 1000.0;
    cfg.arrivals.total_requests = 8;
    cfg.seq = workload::SeqConfig{48, 40, 8};
    cfg.backend.max_lanes = 3;
    cfg.backend.block_tokens = 4;
    cfg.chat.system_prompts = 2;
    cfg.chat.zipf_s = 1.2;
    cfg.chat.system_tokens = 32;
    cfg.chat.user_tokens = 8;
    return cfg;
  }

  workload::Corpus corpus_;
  Tokenizer tokenizer_;
  workload::PromptPool pool_;
  std::shared_ptr<MasterWeights> master_;
};

// The acceptance grid: both kernel levels x every weight precision x both
// KV storages x 4- and 3-token KV blocks, cache on vs cache off, token
// streams bit-identical. With 3-token blocks a hit ends mid-chunk (30 of
// the 32 system tokens), so the suffix prefill runs a chunk schedule a
// cache-free prefill never does. The cache only skips prefill work it can
// replay exactly; it must never change a single sampled token.
TEST_F(PrefixCacheEngineTest, BitIdenticalAcrossPrecisionGridUnderChatTraffic) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::native_available()) levels.push_back(simd::Level::kNative);
  for (simd::Level level : levels) {
    ScopedLevel scoped(level);
    for (std::size_t block_tokens : {std::size_t{4}, std::size_t{3}}) {
      for (DType dtype : {DType::kF32, DType::kF16, DType::kI8, DType::kI4}) {
        for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
          FunctionalEngineConfig cfg = chat_config();
          cfg.backend.block_tokens = block_tokens;
          cfg.backend.kv_storage = storage;
          const EngineResult off = run_functional_continuous(master_, dtype, pool_, cfg);
          cfg.backend.prefix_cache = true;
          const EngineResult on = run_functional_continuous(master_, dtype, pool_, cfg);

          const std::string label = std::string(simd::level_name(level)) + "/" +
                                    dtype_name(dtype) +
                                    (storage == KVStorage::kI8 ? "/kvI8" : "/kvF32") +
                                    "/block" + std::to_string(block_tokens);
          ASSERT_EQ(on.requests.size(), off.requests.size()) << label;
          for (std::size_t i = 0; i < off.requests.size(); ++i) {
            EXPECT_EQ(on.requests[i].prompt, off.requests[i].prompt) << label << " req " << i;
            EXPECT_EQ(on.requests[i].output, off.requests[i].output) << label << " req " << i;
          }
          // The shared system prompts must actually produce hits, or the
          // grid would vacuously pass on an idle cache.
          EXPECT_GT(on.prefix_cache.hits, 0u) << label;
          EXPECT_EQ(off.prefix_cache.lookups, 0u) << label;
        }
      }
    }
  }
}

TEST_F(PrefixCacheEngineTest, PooledDecodeBitIdenticalWithCache) {
  FunctionalEngineConfig cfg = chat_config();
  cfg.backend.prefix_cache = true;
  const EngineResult serial = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  Model model(master_, DType::kF32);
  ThreadPool lanes(4);
  const EngineResult pooled = serve_on_lane_pool(model, cfg, serial.requests, &lanes);
  ASSERT_EQ(pooled.requests.size(), serial.requests.size());
  for (std::size_t i = 0; i < serial.requests.size(); ++i) {
    EXPECT_EQ(pooled.requests[i].output, serial.requests[i].output) << "request " << i;
  }
  EXPECT_GT(serial.prefix_cache.hits, 0u);
  EXPECT_GT(pooled.prefix_cache.hits, 0u);
}

// Off by default: no lookups, no events, and not one byte of prefix-cache
// vocabulary in either export — cache-free traces stay identical to the
// pre-cache engine's.
TEST_F(PrefixCacheEngineTest, DisabledCacheLeavesTracesUntouched) {
  FunctionalEngineConfig cfg = chat_config();
  const EngineResult result = run_functional_continuous(master_, DType::kF32, pool_, cfg);

  EXPECT_EQ(result.prefix_cache.lookups, 0u);
  EXPECT_EQ(result.prefix_cache.hits, 0u);
  EXPECT_EQ(result.prefix_cache.bytes_saved, 0u);
  EXPECT_TRUE(result.timeline.prefix_cache_events().empty());
  for (const Request& r : result.requests) EXPECT_EQ(r.prefix_cached, 0u);
  EXPECT_EQ(trace::to_jsonl(result.timeline).find("prefix"), std::string::npos);
  EXPECT_EQ(trace::to_chrome_trace_json(result.timeline).find("prefix"),
            std::string::npos);
}

// Every number the engine reports is derived from the one event stream, and
// the stream conserves: one lookup per request's (single) fresh admission,
// hits + misses == lookups, hit tokens block-aligned and mirrored in each
// request's prefix_cached, bytes_saved exactly the hit blocks' footprint.
TEST_F(PrefixCacheEngineTest, CountersConserveAndDeriveFromTimeline) {
  FunctionalEngineConfig cfg = chat_config();
  cfg.backend.prefix_cache = true;
  const EngineResult result = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  const auto& pc = result.prefix_cache;

  EXPECT_EQ(pc.lookups, 8u);  // one per request, preemption resumes excluded
  EXPECT_EQ(pc.hits + pc.misses, pc.lookups);
  EXPECT_GT(pc.hits, 0u);
  EXPECT_EQ(pc.hit_tokens % cfg.backend.block_tokens, 0u);  // whole blocks
  EXPECT_GT(pc.inserted_blocks, 0u);

  // Re-derive the summary from the raw events: they must agree exactly.
  EngineResult::PrefixCacheSummary derived;
  std::size_t hit_blocks = 0;
  for (const auto& e : result.timeline.prefix_cache_events()) {
    switch (e.kind) {
      case trace::PrefixCacheEventKind::kHit:
        ++derived.lookups;
        ++derived.hits;
        derived.hit_tokens += e.tokens;
        derived.bytes_saved += e.bytes_saved;
        hit_blocks += e.blocks;
        break;
      case trace::PrefixCacheEventKind::kMiss:
        ++derived.lookups;
        ++derived.misses;
        break;
      case trace::PrefixCacheEventKind::kInsert:
        derived.inserted_blocks += e.blocks;
        break;
      case trace::PrefixCacheEventKind::kEvict:
        derived.evicted_blocks += e.blocks;
        break;
    }
  }
  EXPECT_EQ(derived.lookups, pc.lookups);
  EXPECT_EQ(derived.hits, pc.hits);
  EXPECT_EQ(derived.misses, pc.misses);
  EXPECT_EQ(derived.hit_tokens, pc.hit_tokens);
  EXPECT_EQ(derived.bytes_saved, pc.bytes_saved);
  EXPECT_EQ(derived.inserted_blocks, pc.inserted_blocks);
  EXPECT_EQ(derived.evicted_blocks, pc.evicted_blocks);
  EXPECT_EQ(derived.hit_tokens, hit_blocks * cfg.backend.block_tokens);

  // bytes_saved is the hit blocks' exact KV footprint.
  const std::size_t block_bytes = result.peak_kv_bytes / result.peak_kv_blocks;
  EXPECT_EQ(pc.bytes_saved, hit_blocks * block_bytes);

  // Per-request attribution mirrors the hit events.
  std::size_t cached_sum = 0;
  for (const Request& r : result.requests) {
    if (r.prefix_cached > 0) {
      EXPECT_EQ(r.prefix_cached % cfg.backend.block_tokens, 0u);
      EXPECT_LT(r.prefix_cached, r.prompt.size());
    }
    cached_sum += r.prefix_cached;
  }
  EXPECT_EQ(cached_sum, pc.hit_tokens);

  // The events serialize into both exports.
  const std::string jsonl = trace::to_jsonl(result.timeline);
  EXPECT_NE(jsonl.find("\"prefix_cache\":\"prefix_hit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"prefix_cache\":\"prefix_insert\""), std::string::npos);
  EXPECT_NE(trace::to_chrome_trace_json(result.timeline).find("prefix_cache:prefix_hit"),
            std::string::npos);
}

// Allocator exhaustion drains cached-but-unreferenced blocks (LRU leaves
// first) before the policy preempts anything: with a pool sized to the
// active lanes alone, the retire-time inserts overcommit it and the evict
// hook — not preemption — has to make room for the next wave.
TEST_F(PrefixCacheEngineTest, ExhaustionEvictsCachedBlocksBeforePreempting) {
  FunctionalEngineConfig cfg = chat_config();
  cfg.backend.prefix_cache = true;
  // 3 lanes x 48 tokens / 4-token blocks: exactly the active working set.
  cfg.backend.kv_blocks = 36;
  const EngineResult result = run_functional_continuous(master_, DType::kF32, pool_, cfg);

  ASSERT_EQ(result.requests.size(), 8u);
  for (const Request& r : result.requests) {
    EXPECT_EQ(r.state, RequestState::kFinished);
    EXPECT_EQ(r.output.size(), 8u);
  }
  EXPECT_GT(result.prefix_cache.evicted_blocks, 0u);
  EXPECT_NE(trace::to_jsonl(result.timeline).find("prefix_evict"), std::string::npos);

  // The same pool without the cache completes too (the baseline the
  // eviction path must not regress): both runs emit identical tokens.
  cfg.backend.prefix_cache = false;
  const EngineResult off = run_functional_continuous(master_, DType::kF32, pool_, cfg);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.requests[i].output, off.requests[i].output) << "request " << i;
  }
}

}  // namespace
}  // namespace orinsim::serving
