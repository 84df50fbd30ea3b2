// Ref-counted fixed-size block pool backing the paged KV cache.
//
// The allocator hands out integer block ids from a fixed pool; it owns no
// storage itself (KVCache maps ids onto its per-layer slabs). Ref counts
// support copy-on-write sharing of prompt prefixes across forked sequences
// (vLLM-style paged attention): fork retains every block of the source
// table, and the first write to a shared block copies it. The free list is
// LIFO and deterministic, so identical call sequences yield identical block
// tables on every run.
//
// Thread-safe: Model::generate shards prefill lanes across a thread pool and
// every lane appends into its own sequence concurrently, so all mutating and
// counting calls take a mutex. The lock is uncontended on the serial paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace orinsim {

class BlockAllocator {
 public:
  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

  // `block_bytes` is the physical footprint of one block as mapped by the
  // owner; the allocator only does the bookkeeping for bytes_in_use().
  BlockAllocator(std::size_t total_blocks, std::size_t block_bytes);

  std::size_t total_blocks() const noexcept { return refs_.size(); }
  std::size_t block_bytes() const noexcept { return block_bytes_; }
  std::size_t free_blocks() const;
  std::size_t blocks_in_use() const;
  std::size_t peak_blocks_in_use() const;
  std::size_t bytes_in_use() const;
  std::size_t peak_bytes() const;

  // Blocks currently flagged as held by a prefix cache (set_cached). Audits
  // prefix-cache eviction accounting: cached + free + exclusively-held must
  // tile the pool, and a cached block whose only reference is the cache's is
  // reclaimable without preempting any request.
  std::size_t cached_blocks() const;
  // Flags an allocated block as (un)owned by a prefix cache. The cache must
  // clear the flag before dropping its reference: a block returning to the
  // free list while still flagged is a leak of the cache's accounting and
  // trips a check in release().
  void set_cached(std::size_t id, bool cached);
  bool is_cached(std::size_t id) const;

  // One block with ref count 1, or kNoBlock when the pool is exhausted.
  std::size_t alloc();
  // `count` blocks atomically appended to `out`; false (and no allocation)
  // when fewer than `count` are free. All-or-nothing so a failed reservation
  // never strands partial progress.
  bool alloc_many(std::size_t count, std::vector<std::size_t>& out);
  // Share an allocated block (+1 ref). Used by sequence forking.
  void retain(std::size_t id);
  // Drop one reference; the block returns to the free list at zero.
  void release(std::size_t id);
  std::size_t ref_count(std::size_t id) const;
  bool can_alloc(std::size_t count) const { return free_blocks() >= count; }

 private:
  mutable std::mutex mu_;
  std::vector<std::uint32_t> refs_;      // 0 = free
  std::vector<std::uint8_t> cached_;     // 1 = a prefix cache holds a ref
  std::size_t cached_count_ = 0;
  std::vector<std::size_t> free_list_;   // LIFO; back() is the next handout
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  std::size_t block_bytes_ = 0;
};

}  // namespace orinsim
