// Cross-request radix prefix cache over the paged KV allocator.
//
// A radix tree at KV-block granularity: each node owns one full block of
// block_tokens token positions, keyed by the exact token ids it covers, and
// a path from the root spells a prompt prefix whose KV state is resident.
// A retiring request inserts its full-block prompt prefix (insert-on-retire:
// the tree retains one allocator reference per node, so the blocks survive
// free_sequence); a new request's admit runs longest-prefix match and
// attaches the matched chain to its empty sequence, skipping prefill for the
// matched tokens entirely — the paper's TTFT-dominates-at-the-edge result is
// exactly what this relieves for chat traffic with shared system prompts.
//
// Match granularity: matches cover whole blocks, capped by the caller's
// `max_tokens` (prompt length minus one, so a token always runs to produce
// the first-token logits). The cache-hit suffix prefill then starts at a
// block boundary wherever that falls in the model's chunk schedule; forward
// rows are composition-independent (Model::forward), so greedy outputs are
// bit-identical with the cache on or off, for every weight precision and KV
// storage. Only full blocks are ever shared, so the first append after an
// attach starts a fresh block and the hit path never copy-on-writes.
//
// Reference protocol (the invariants the BlockAllocator guards enforce):
//  - insert: tree retains each newly-adopted block and flags it cached.
//  - match_and_retain: retains each matched block FOR THE CALLER; the
//    caller hands the refs to KVCache::attach_prefix, which adopts them.
//  - evict: only leaves whose allocator ref_count is exactly 1 (the tree's
//    own reference) are reclaimable, least-recently-used first; the flag is
//    cleared before the release, so a release that frees a still-flagged
//    block trips the allocator's check. Cached-but-unreferenced blocks are
//    therefore reclaimed before any running request is preempted.
//
// Thread-safe: one internal mutex serializes match/insert/evict, so an
// eviction sweep racing a concurrent admit (lane-parallel engines) cannot
// free a block between the ref-count probe and the retain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "model/kv_cache.h"
#include "tokenizer/tokenizer.h"

namespace orinsim::serving {

// Longest-prefix match result. The caller owns one allocator reference per
// block (taken by match_and_retain) and must either adopt them into a
// sequence (KVCache::attach_prefix) or release them.
struct PrefixMatch {
  std::vector<std::size_t> blocks;
  std::size_t tokens = 0;  // == blocks.size() * block_tokens
  bool hit() const { return tokens > 0; }
};

// Monotonic counters; conservation (hits + misses == lookups, bytes_saved ==
// hit_tokens * bytes-per-token) is pinned by tests and the bench.
struct PrefixCacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t hit_tokens = 0;       // prefill tokens skipped, cumulative
  std::size_t inserted_blocks = 0;  // cumulative
  std::size_t evicted_blocks = 0;   // cumulative
  std::size_t cached_blocks = 0;    // currently resident in the tree
  std::size_t bytes_saved = 0;      // hit_tokens * cache block bytes / block_tokens
  std::size_t block_tokens = 0;     // tokens per block (0: no cache attached)

  double hit_rate() const {
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

class PrefixCache {
 public:
  // `cache` must outlive the PrefixCache. `max_blocks` caps the tree's
  // residency (0 = bounded only by the allocator pool); the engine
  // additionally evicts on allocator exhaustion.
  explicit PrefixCache(KVCache& cache, std::size_t max_blocks = 0);
  ~PrefixCache();

  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  // Longest cached whole-block prefix of `prompt`, capped at `max_tokens`.
  // Retains every returned block for the caller.
  PrefixMatch match_and_retain(std::span<const TokenId> prompt, std::size_t max_tokens);

  // Inserts the full-block prefix of `tokens` backed by `blocks` (the owning
  // sequence's block table, in order; may be longer than the full-block
  // prefix — extras are ignored). Call BEFORE free_sequence: the tree
  // retains each block it adopts, deduplicating against paths already
  // resident. Prefixes shorter than one block are a no-op.
  void insert(std::span<const TokenId> tokens, std::span<const std::size_t> blocks);

  // Evicts the least-recently-used leaf whose block only the tree still
  // references. Returns false when nothing is reclaimable (every cached
  // block is shared with a live sequence, or the tree is empty).
  bool evict_lru_leaf();

  // Evicts LRU leaves until `count` blocks were reclaimed or nothing more is
  // reclaimable; returns the number evicted. The engine's exhaustion hook.
  std::size_t evict(std::size_t count);

  // Releases every tree-held block (end of run).
  void clear();

  PrefixCacheStats stats() const;
  std::size_t block_tokens() const noexcept { return block_tokens_; }

 private:
  struct Node {
    std::vector<TokenId> tokens;  // exactly block_tokens ids (root: empty)
    std::size_t block = 0;        // allocator block id (root: unused)
    std::uint64_t last_use = 0;   // touch clock for LRU
    Node* parent = nullptr;
    std::vector<std::unique_ptr<Node>> children;
  };

  Node* find_child(Node* node, std::span<const TokenId> key) const;
  void release_node_block(Node* node);

  KVCache& cache_;
  std::size_t block_tokens_ = 0;
  std::size_t max_blocks_ = 0;

  mutable std::mutex mu_;
  Node root_;
  std::uint64_t clock_ = 0;
  PrefixCacheStats stats_;
};

}  // namespace orinsim::serving
