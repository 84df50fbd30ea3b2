// Batched key-value cache for autoregressive decoding.
//
// Storage: per layer, K and V rows of kv_dim floats. Values are either FP32
// (exact) or INT8 (per-vector absmax quantization: each appended K/V vector
// carries one scale). INT8 halves the cache footprint — the extension
// study's KV-quantization axis — at a measurable accuracy cost that the
// perplexity benches quantify.
//
// Layout: positions map onto fixed-size blocks of block_tokens rows handed
// out by a ref-counted BlockAllocator. A block spans every layer's K and V
// for its positions, so one table per sequence drives all layers. Sequences
// grow block-by-block, forked sequences share their common prefix
// copy-on-write, and a bounded pool (max_blocks) lets a serving engine
// oversubscribe lanes and preempt on exhaustion instead of reserving
// worst-case memory per lane. Attention walks a sequence's block table and
// reads K/V one block at a time (key_block/value_block, or an INT8 block's
// codes and scales in place with key_block_i8/value_block_i8).
//
// The cache tracks a per-sequence length so ragged batches (prompts of
// different lengths) decode correctly. bytes() reports actual allocation:
// blocks in use times block bytes (the paper's incremental-memory metric
// counts KV growth the same way).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/block_allocator.h"
#include "model/config.h"

namespace orinsim {

enum class KVStorage { kF32, kI8 };

// Default block granularity: 16 tokens balances internal fragmentation
// (last block half-empty on average) against table-walk overhead, matching
// the block sizes vLLM ships on small models.
inline constexpr std::size_t kDefaultKVBlockTokens = 16;

struct KVCacheOptions {
  KVStorage storage = KVStorage::kF32;
  std::size_t block_tokens = kDefaultKVBlockTokens;
  // Pool size in blocks. 0 = enough for `batch` sequences of max_seq tokens,
  // so such a cache never sees exhaustion; a serving engine passes a smaller
  // pool to oversubscribe.
  std::size_t max_blocks = 0;
};

class KVCache {
 public:
  KVCache(const TransformerConfig& config, std::size_t batch, std::size_t max_seq,
          KVStorage storage = KVStorage::kF32);
  KVCache(const TransformerConfig& config, std::size_t batch, std::size_t max_seq,
          const KVCacheOptions& options);

  std::size_t batch() const noexcept { return batch_; }
  std::size_t max_seq() const noexcept { return max_seq_; }
  std::size_t kv_dim() const noexcept { return kv_dim_; }
  std::size_t seq_len(std::size_t b) const { return lengths_.at(b); }

  // Appends one position worth of K/V for sequence b in layer l; returns the
  // position it was stored at. Allocates the backing block on demand and
  // throws ContractViolation when the pool is exhausted — callers that must
  // not throw reserve ahead with try_reserve().
  std::size_t append(std::size_t layer, std::size_t b, std::span<const float> k,
                     std::span<const float> v);

  // Stages `count` consecutive positions of K/V for sequence b in layer l:
  // k and v are row-major [count, kv_dim] and land at positions
  // seq_len(b) .. seq_len(b)+count-1. Chunked prefill appends a whole chunk
  // per layer, then commits once. Returns the first position written.
  std::size_t append_many(std::size_t layer, std::size_t b, std::span<const float> k,
                          std::span<const float> v, std::size_t count);

  // Advance the per-sequence length by `count` after all layers appended.
  // (append()/append_many() write at the *current* length; commit() bumps it.)
  void commit(std::size_t b, std::size_t count = 1);

  // Roll sequence b back to new_len tokens (speculative-decoding rejection:
  // discard the KV entries of unaccepted draft tokens). Drops this sequence's
  // reference on each now-unused block; a block still shared with a forked
  // sibling or held by the prefix cache is only decref'd — never returned to
  // the pool while live (the rejected-draft-branch path exercises exactly
  // this every round; pinned by regression test).
  void truncate(std::size_t b, std::size_t new_len);

  // Release every block of sequence b and zero its length (a retired or
  // preempted request hands its memory back to the pool).
  void free_sequence(std::size_t b) { truncate(b, 0); }

  // Guarantees the next `count` appends to sequence b cannot fail for lack
  // of blocks (all-or-nothing; no partial reservation). Returns false when
  // the pool cannot cover them or max_seq would be exceeded — the serving
  // engine's preemption trigger.
  bool try_reserve(std::size_t b, std::size_t count);

  // Shares sequence src's committed prefix with empty sequence dst: blocks
  // are ref-counted, not copied, and the first append into a shared block
  // copies it (copy-on-write).
  void fork_sequence(std::size_t src, std::size_t dst);

  // Copy-on-writes sequence b's partially-filled tail block now if it is
  // shared, so subsequent appends into it cannot hit pool exhaustion
  // mid-flight (try_reserve only covers *new* blocks, not the COW copy of a
  // shared tail). Returns false — leaving the cache unchanged — when the
  // copy would need a block the pool cannot supply; true when the tail is
  // already private, block-aligned, or was successfully copied. The serving
  // engine's speculative draft branch calls this right after fork_sequence,
  // before any parallel decode work touches the branch.
  bool try_unshare_tail(std::size_t b);

  // --- Cross-request block sharing (serving-layer prefix cache).

  // Sequence b's committed block table. The ids stay valid while the caller
  // holds a reference on them (retain_block); the prefix cache snapshots the
  // full-block prefix of a retiring sequence this way.
  std::span<const std::size_t> block_table(std::size_t b) const;

  // Maps empty sequence b onto a ready-made chain of full blocks covering
  // `tokens` committed positions. ADOPTS the caller's references on `blocks`
  // (one per block — PrefixCache::match_and_retain takes them out); on the
  // generalized fork_sequence path the donor chain can come from any retired
  // sequence. `tokens` must fill the chain exactly (tokens == blocks.size()
  // * block_tokens()), so the next append starts a fresh block and never
  // copy-on-writes a shared one — the cache-hit decode path allocates
  // instead of copying, and divergence below the attached prefix is
  // impossible by construction.
  void attach_prefix(std::size_t b, std::span<const std::size_t> blocks,
                     std::size_t tokens);

  // Block-level ref-count plumbing for an external (cross-sequence) holder
  // such as the prefix cache. Thin forwarders onto the BlockAllocator so the
  // cache never touches allocator internals directly.
  void retain_block(std::size_t id);
  void release_block(std::size_t id);
  std::size_t block_ref_count(std::size_t id) const;
  // Flags a block as held by the prefix cache (see BlockAllocator::set_cached)
  // so eviction accounting is auditable: cached_blocks() counts them.
  void mark_block_cached(std::size_t id, bool cached);
  std::size_t cached_blocks() const noexcept;

  // K/V vectors for sequence b, position p, layer l. pos == seq_len(b) reads
  // the entry staged by append() before commit() (each layer reads its own
  // staged K/V for the token currently being processed).
  //
  // FP32 storage returns a span into the cache itself and ignores `scratch`.
  // INT8 storage dequantizes into the caller-supplied `scratch` (>= kv_dim()
  // floats) and returns a view of it. The cache holds no mutable state of
  // its own, so concurrent readers with distinct scratch buffers are safe —
  // this is the design fix for the former shared-scratch aliasing bug.
  std::span<const float> key(std::size_t layer, std::size_t b, std::size_t pos,
                             std::span<float> scratch) const;
  std::span<const float> value(std::size_t layer, std::size_t b, std::size_t pos,
                               std::span<float> scratch) const;

  // K/V rows [0, rows) of sequence b's block j in layer l — positions
  // j*block_tokens() .. j*block_tokens()+rows-1, staged rows included — as
  // one row-major [rows, kv_dim] span (rows <= block_tokens()). FP32 storage
  // returns a span into the cache and ignores `tile`; INT8 dequantizes into
  // `tile` (>= rows * kv_dim() floats) with the exact per-element math of
  // key()/value(). Attention reads each block once per layer this way.
  std::span<const float> key_block(std::size_t layer, std::size_t b, std::size_t j,
                                   std::size_t rows, std::span<float> tile) const;
  std::span<const float> value_block(std::size_t layer, std::size_t b, std::size_t j,
                                     std::size_t rows, std::span<float> tile) const;

  // INT8 storage only: the codes ([rows, kv_dim], row stride kv_dim()) and
  // per-row scales behind the same rows of key_block/value_block, for
  // kernels that dequantize in registers (float(code) * scale, read()'s
  // math) instead of into a tile.
  struct Int8Rows {
    const std::int8_t* codes;
    const float* scales;
  };
  Int8Rows key_block_i8(std::size_t layer, std::size_t b, std::size_t j,
                        std::size_t rows) const;
  Int8Rows value_block_i8(std::size_t layer, std::size_t b, std::size_t j,
                          std::size_t rows) const;

  KVStorage storage() const noexcept { return storage_; }
  std::size_t block_tokens() const noexcept { return block_tokens_; }

  void reset();

  // Bytes actually allocated: blocks_in_use() * block_bytes().
  std::size_t bytes() const noexcept;

  // High-water mark of bytes().
  std::size_t peak_bytes() const noexcept;

  // Physical slab reservation backing the pool (what the process actually
  // maps, as opposed to what the pool has handed out).
  std::size_t reserved_bytes() const noexcept;

  // Bytes logically in use given current committed sequence lengths.
  std::size_t used_bytes() const noexcept;

  // Block-pool introspection (serving engine occupancy metrics).
  std::size_t block_bytes() const noexcept;
  std::size_t total_blocks() const noexcept;
  std::size_t blocks_in_use() const noexcept;
  std::size_t free_blocks() const noexcept;

 private:
  // One of K or V for every layer, [layer][pool rows * kv_dim]: FP32 rows,
  // or INT8 codes with one absmax scale per row ([layer][pool rows]).
  struct Slab {
    std::vector<std::vector<float>> f32;
    std::vector<std::vector<std::int8_t>> codes;
    std::vector<std::vector<float>> scales;
  };

  // Physical slab row of (sequence, position).
  std::size_t row(std::size_t b, std::size_t pos) const;
  // First physical slab row of sequence b's block j, checking that rows
  // [0, rows) of it are readable.
  std::size_t block_row(std::size_t layer, std::size_t b, std::size_t j,
                        std::size_t rows) const;
  // Maps positions [first, first+count) to exclusively-owned blocks,
  // allocating on demand (throws on exhaustion) and copying shared blocks
  // before the write (copy-on-write).
  void ensure_writable(std::size_t b, std::size_t first, std::size_t count);
  void make_writable(std::size_t b, std::size_t block_index);
  // Writes one K or V vector into slab row r.
  void store(Slab& slab, std::size_t layer, std::size_t r, std::span<const float> data);
  // Slab rows [r, r + rows) as floats: a view (FP32) or dequantized into
  // `out` (INT8, >= rows * kv_dim floats). The one read path behind key(),
  // value(), key_block() and value_block().
  std::span<const float> read(const Slab& slab, std::size_t layer, std::size_t r,
                              std::size_t rows, std::span<float> out) const;
  // Codes and scales of INT8 slab row r.
  Int8Rows codes(const Slab& slab, std::size_t layer, std::size_t r) const;
  std::size_t bytes_per_row() const noexcept;

  std::size_t batch_ = 0;
  std::size_t max_seq_ = 0;
  std::size_t kv_dim_ = 0;
  std::size_t n_layers_ = 0;
  KVStorage storage_ = KVStorage::kF32;
  std::size_t block_tokens_ = kDefaultKVBlockTokens;

  // One block table per sequence (shared by every layer) over a ref-counted
  // pool of pool_blocks * block_tokens slab rows.
  std::unique_ptr<BlockAllocator> allocator_;
  std::vector<std::vector<std::size_t>> tables_;
  Slab keys_;
  Slab values_;

  // Highest readable position for sequence b: committed length plus any
  // entries staged by append()/append_many() but not yet committed.
  std::size_t staged_end(std::size_t b) const {
    return lengths_[b] + std::max<std::size_t>(staged_[b], 1) - 1;
  }

  std::vector<std::size_t> lengths_;  // per sequence, committed
  std::vector<std::size_t> staged_;   // per sequence, appended-not-committed
};

}  // namespace orinsim
