#include "serving/prefix_cache.h"

#include <algorithm>

namespace orinsim::serving {

PrefixCache::PrefixCache(KVCache& cache, std::size_t max_blocks)
    : cache_(cache), block_tokens_(cache.block_tokens()), max_blocks_(max_blocks) {}

PrefixCache::~PrefixCache() { clear(); }

PrefixCache::Node* PrefixCache::find_child(Node* node, std::span<const TokenId> key) const {
  for (const auto& child : node->children) {
    if (std::equal(child->tokens.begin(), child->tokens.end(), key.begin(), key.end())) {
      return child.get();
    }
  }
  return nullptr;
}

PrefixMatch PrefixCache::match_and_retain(std::span<const TokenId> prompt,
                                          std::size_t max_tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;

  // Walk as deep as the prompt matches.
  std::vector<Node*> path;
  Node* node = &root_;
  while ((path.size() + 1) * block_tokens_ <= std::min(prompt.size(), max_tokens)) {
    Node* child = find_child(node, prompt.subspan(path.size() * block_tokens_, block_tokens_));
    if (child == nullptr) break;
    path.push_back(child);
    node = child;
  }

  PrefixMatch match;
  if (path.empty()) {
    ++stats_.misses;
    return match;
  }
  ++stats_.hits;
  ++clock_;
  match.blocks.reserve(path.size());
  for (Node* n : path) {
    cache_.retain_block(n->block);  // the caller's reference
    n->last_use = clock_;
    match.blocks.push_back(n->block);
  }
  match.tokens = path.size() * block_tokens_;
  stats_.hit_tokens += match.tokens;
  stats_.bytes_saved += path.size() * cache_.block_bytes();
  return match;
}

void PrefixCache::insert(std::span<const TokenId> tokens,
                         std::span<const std::size_t> blocks) {
  const std::size_t full_blocks =
      std::min(tokens.size() / block_tokens_, blocks.size());
  if (full_blocks == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++clock_;
  Node* node = &root_;
  for (std::size_t i = 0; i < full_blocks; ++i) {
    const auto key = tokens.subspan(i * block_tokens_, block_tokens_);
    Node* child = find_child(node, key);
    if (child == nullptr) {
      if (max_blocks_ > 0 && stats_.cached_blocks >= max_blocks_) return;
      auto fresh = std::make_unique<Node>();
      fresh->tokens.assign(key.begin(), key.end());
      fresh->block = blocks[i];
      fresh->parent = node;
      child = fresh.get();
      node->children.push_back(std::move(fresh));
      cache_.retain_block(child->block);  // the tree's reference
      cache_.mark_block_cached(child->block, true);
      ++stats_.inserted_blocks;
      ++stats_.cached_blocks;
    }
    child->last_use = clock_;
    node = child;
  }
}

void PrefixCache::release_node_block(Node* node) {
  // Order matters: the allocator checks that no block returns to the free
  // list while still flagged cached.
  cache_.mark_block_cached(node->block, false);
  cache_.release_block(node->block);
}

bool PrefixCache::evict_lru_leaf() {
  std::lock_guard<std::mutex> lock(mu_);
  // Linear scan over leaves: the tree is small (one node per cached block)
  // and eviction only runs on allocator exhaustion.
  std::vector<Node*> stack = {&root_};
  Node* victim = nullptr;
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (const auto& child : node->children) stack.push_back(child.get());
    if (node == &root_ || !node->children.empty()) continue;
    if (cache_.block_ref_count(node->block) != 1) continue;  // a sequence holds it
    if (victim == nullptr || node->last_use < victim->last_use) victim = node;
  }
  if (victim == nullptr) return false;
  release_node_block(victim);
  auto& siblings = victim->parent->children;
  siblings.erase(std::find_if(siblings.begin(), siblings.end(),
                              [&](const auto& c) { return c.get() == victim; }));
  ++stats_.evicted_blocks;
  --stats_.cached_blocks;
  return true;
}

std::size_t PrefixCache::evict(std::size_t count) {
  std::size_t evicted = 0;
  while (evicted < count && evict_lru_leaf()) ++evicted;
  return evicted;
}

void PrefixCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Node*> stack = {&root_};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (const auto& child : node->children) stack.push_back(child.get());
    if (node != &root_) release_node_block(node);
  }
  root_.children.clear();
  stats_.cached_blocks = 0;
}

PrefixCacheStats PrefixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PrefixCacheStats s = stats_;
  s.block_tokens = block_tokens_;
  return s;
}

}  // namespace orinsim::serving
