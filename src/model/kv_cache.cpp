#include "model/kv_cache.h"

#include <algorithm>

#include "tensor/simd.h"

namespace orinsim {

namespace {

std::size_t blocks_for(std::size_t tokens, std::size_t block_tokens) {
  return (tokens + block_tokens - 1) / block_tokens;
}

}  // namespace

KVCache::KVCache(const TransformerConfig& config, std::size_t batch, std::size_t max_seq,
                 KVStorage storage)
    : KVCache(config, batch, max_seq, KVCacheOptions{storage}) {}

KVCache::KVCache(const TransformerConfig& config, std::size_t batch, std::size_t max_seq,
                 const KVCacheOptions& options)
    : batch_(batch),
      max_seq_(max_seq),
      kv_dim_(config.kv_dim()),
      n_layers_(config.n_layers),
      storage_(options.storage),
      block_tokens_(options.block_tokens) {
  ORINSIM_CHECK(batch > 0 && max_seq > 0, "KVCache requires positive batch and max_seq");
  ORINSIM_CHECK(max_seq <= config.max_seq, "KVCache max_seq exceeds model max_seq");
  ORINSIM_CHECK(block_tokens_ > 0, "KVCache block_tokens must be positive");

  std::size_t pool_blocks = options.max_blocks;
  if (pool_blocks == 0) {
    // Full capacity: every sequence can reach max_seq, so the cache never
    // sees exhaustion.
    pool_blocks = batch_ * blocks_for(max_seq_, block_tokens_);
  }
  allocator_ = std::make_unique<BlockAllocator>(pool_blocks, block_tokens_ * bytes_per_row());
  tables_.resize(batch_);

  const std::size_t rows = pool_blocks * block_tokens_;
  for (Slab* slab : {&keys_, &values_}) {
    if (storage_ == KVStorage::kF32) {
      slab->f32.resize(n_layers_);
      for (auto& layer : slab->f32) layer.assign(rows * kv_dim_, 0.0f);
    } else {
      slab->codes.resize(n_layers_);
      slab->scales.resize(n_layers_);
      for (auto& layer : slab->codes) layer.assign(rows * kv_dim_, 0);
      for (auto& layer : slab->scales) layer.assign(rows, 0.0f);
    }
  }
  lengths_.assign(batch_, 0);
  staged_.assign(batch_, 0);
}

std::size_t KVCache::bytes_per_row() const noexcept {
  const std::size_t per_vector = storage_ == KVStorage::kF32
                                     ? kv_dim_ * sizeof(float)
                                     : kv_dim_ * sizeof(std::int8_t) + sizeof(float);
  return n_layers_ * 2 * per_vector;
}

std::size_t KVCache::row(std::size_t b, std::size_t pos) const {
  ORINSIM_DCHECK(b < batch_ && pos < max_seq_, "kv cache index out of range");
  const std::size_t block_index = pos / block_tokens_;
  ORINSIM_CHECK(block_index < tables_[b].size(), "KVCache: position has no mapped block");
  return tables_[b][block_index] * block_tokens_ + pos % block_tokens_;
}

void KVCache::make_writable(std::size_t b, std::size_t block_index) {
  std::vector<std::size_t>& table = tables_[b];
  const std::size_t old_id = table[block_index];
  if (allocator_->ref_count(old_id) <= 1) return;
  const std::size_t id = allocator_->alloc();
  ORINSIM_CHECK(id != BlockAllocator::kNoBlock,
                "KVCache: KV block pool exhausted during copy-on-write");
  const std::size_t src = old_id * block_tokens_;
  const std::size_t dst = id * block_tokens_;
  for (Slab* slab : {&keys_, &values_}) {
    for (std::size_t l = 0; l < n_layers_; ++l) {
      if (storage_ == KVStorage::kF32) {
        std::vector<float>& rows = slab->f32[l];
        std::copy_n(rows.begin() + src * kv_dim_, block_tokens_ * kv_dim_,
                    rows.begin() + dst * kv_dim_);
      } else {
        std::vector<std::int8_t>& codes = slab->codes[l];
        std::copy_n(codes.begin() + src * kv_dim_, block_tokens_ * kv_dim_,
                    codes.begin() + dst * kv_dim_);
        std::vector<float>& scales = slab->scales[l];
        std::copy_n(scales.begin() + src, block_tokens_, scales.begin() + dst);
      }
    }
  }
  allocator_->release(old_id);
  table[block_index] = id;
}

void KVCache::ensure_writable(std::size_t b, std::size_t first, std::size_t count) {
  std::vector<std::size_t>& table = tables_[b];
  const std::size_t last = first + count - 1;
  while (table.size() * block_tokens_ <= last) {
    const std::size_t id = allocator_->alloc();
    ORINSIM_CHECK(id != BlockAllocator::kNoBlock,
                  "KVCache: KV block pool exhausted (reserve with try_reserve and preempt)");
    table.push_back(id);
  }
  for (std::size_t bi = first / block_tokens_; bi <= last / block_tokens_; ++bi) {
    make_writable(b, bi);
  }
}

void KVCache::store(Slab& slab, std::size_t layer, std::size_t r,
                    std::span<const float> data) {
  if (storage_ == KVStorage::kF32) {
    std::copy(data.begin(), data.end(), slab.f32[layer].begin() + r * kv_dim_);
    return;
  }
  slab.scales[layer][r] =
      simd::quantize_row_i8(data.data(), data.size(), slab.codes[layer].data() + r * kv_dim_);
}

std::span<const float> KVCache::read(const Slab& slab, std::size_t layer, std::size_t r,
                                     std::size_t rows, std::span<float> out) const {
  const std::size_t n = rows * kv_dim_;
  if (storage_ == KVStorage::kF32) {
    return std::span<const float>(slab.f32[layer].data() + r * kv_dim_, n);
  }
  ORINSIM_CHECK(out.size() >= n, "KVCache: INT8 read needs rows*kv_dim scratch floats");
  const std::int8_t* codes = slab.codes[layer].data() + r * kv_dim_;
  const float* scales = slab.scales[layer].data() + r;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t e = 0; e < kv_dim_; ++e) {
      out[i * kv_dim_ + e] = static_cast<float>(codes[i * kv_dim_ + e]) * scales[i];
    }
  }
  return out.first(n);
}

std::size_t KVCache::append(std::size_t layer, std::size_t b, std::span<const float> k,
                            std::span<const float> v) {
  ORINSIM_CHECK(k.size() == kv_dim_ && v.size() == kv_dim_, "KVCache::append dim mismatch");
  return append_many(layer, b, k, v, 1);
}

std::size_t KVCache::append_many(std::size_t layer, std::size_t b, std::span<const float> k,
                                 std::span<const float> v, std::size_t count) {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_, "KVCache::append_many out of range");
  ORINSIM_CHECK(count > 0 && k.size() == count * kv_dim_ && v.size() == k.size(),
                "KVCache::append_many dim mismatch");
  const std::size_t first = lengths_[b];
  ORINSIM_CHECK(first + count <= max_seq_, "KVCache overflow: sequence exceeds max_seq");
  ensure_writable(b, first, count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = row(b, first + i);
    store(keys_, layer, r, k.subspan(i * kv_dim_, kv_dim_));
    store(values_, layer, r, v.subspan(i * kv_dim_, kv_dim_));
  }
  staged_[b] = std::max(staged_[b], count);
  return first;
}

void KVCache::commit(std::size_t b, std::size_t count) {
  ORINSIM_CHECK(b < batch_, "KVCache::commit out of range");
  ORINSIM_CHECK(count > 0 && lengths_[b] + count <= max_seq_, "KVCache::commit overflow");
  lengths_[b] += count;
  staged_[b] = 0;
}

bool KVCache::try_reserve(std::size_t b, std::size_t count) {
  ORINSIM_CHECK(b < batch_, "KVCache::try_reserve out of range");
  ORINSIM_CHECK(count > 0, "KVCache::try_reserve needs a positive count");
  const std::size_t need_len = lengths_[b] + count;
  if (need_len > max_seq_) return false;
  std::vector<std::size_t>& table = tables_[b];
  const std::size_t needed = blocks_for(need_len, block_tokens_);
  if (needed <= table.size()) return true;
  std::vector<std::size_t> fresh;
  fresh.reserve(needed - table.size());
  if (!allocator_->alloc_many(needed - table.size(), fresh)) return false;
  table.insert(table.end(), fresh.begin(), fresh.end());
  return true;
}

void KVCache::fork_sequence(std::size_t src, std::size_t dst) {
  ORINSIM_CHECK(src < batch_ && dst < batch_ && src != dst,
                "KVCache::fork_sequence out of range");
  ORINSIM_CHECK(staged_[src] == 0, "KVCache::fork_sequence with uncommitted appends");
  ORINSIM_CHECK(lengths_[dst] == 0 && staged_[dst] == 0 && tables_[dst].empty(),
                "KVCache::fork_sequence target must be empty");
  for (std::size_t id : tables_[src]) allocator_->retain(id);
  tables_[dst] = tables_[src];
  lengths_[dst] = lengths_[src];
}

bool KVCache::try_unshare_tail(std::size_t b) {
  ORINSIM_CHECK(b < batch_, "KVCache::try_unshare_tail out of range");
  const std::size_t len = lengths_[b];
  if (len == 0 || len % block_tokens_ == 0) return true;  // no partial tail
  const std::size_t idx = len / block_tokens_;
  if (allocator_->ref_count(tables_[b][idx]) <= 1) return true;  // private
  if (allocator_->free_blocks() == 0) return false;
  make_writable(b, idx);
  return true;
}

std::span<const std::size_t> KVCache::block_table(std::size_t b) const {
  ORINSIM_CHECK(b < batch_, "KVCache::block_table out of range");
  return std::span<const std::size_t>(tables_[b]);
}

void KVCache::attach_prefix(std::size_t b, std::span<const std::size_t> blocks,
                            std::size_t tokens) {
  ORINSIM_CHECK(b < batch_, "KVCache::attach_prefix out of range");
  ORINSIM_CHECK(lengths_[b] == 0 && staged_[b] == 0 && tables_[b].empty(),
                "KVCache::attach_prefix target must be empty");
  ORINSIM_CHECK(tokens == blocks.size() * block_tokens_,
                "KVCache::attach_prefix requires an exactly full block chain");
  ORINSIM_CHECK(tokens <= max_seq_, "KVCache::attach_prefix exceeds max_seq");
  for (std::size_t id : blocks) {
    ORINSIM_CHECK(allocator_->ref_count(id) > 0,
                  "KVCache::attach_prefix adopts a reference on a live block");
  }
  tables_[b].assign(blocks.begin(), blocks.end());
  lengths_[b] = tokens;
}

void KVCache::retain_block(std::size_t id) {
  allocator_->retain(id);
}

void KVCache::release_block(std::size_t id) {
  allocator_->release(id);
}

std::size_t KVCache::block_ref_count(std::size_t id) const {
  return allocator_->ref_count(id);
}

void KVCache::mark_block_cached(std::size_t id, bool cached) {
  allocator_->set_cached(id, cached);
}

std::size_t KVCache::cached_blocks() const noexcept { return allocator_->cached_blocks(); }

std::span<const float> KVCache::key(std::size_t layer, std::size_t b, std::size_t pos,
                                    std::span<float> scratch) const {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_ && pos <= staged_end(b) && pos < max_seq_,
                "KVCache::key out of range");
  return read(keys_, layer, row(b, pos), 1, scratch);
}

std::span<const float> KVCache::value(std::size_t layer, std::size_t b, std::size_t pos,
                                      std::span<float> scratch) const {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_ && pos <= staged_end(b) && pos < max_seq_,
                "KVCache::value out of range");
  return read(values_, layer, row(b, pos), 1, scratch);
}

std::size_t KVCache::block_row(std::size_t layer, std::size_t b, std::size_t j,
                               std::size_t rows) const {
  ORINSIM_CHECK(layer < n_layers_ && b < batch_ && j < tables_[b].size() && rows > 0 &&
                    rows <= block_tokens_ && j * block_tokens_ + rows - 1 <= staged_end(b),
                "KVCache block read out of range");
  return tables_[b][j] * block_tokens_;
}

std::span<const float> KVCache::key_block(std::size_t layer, std::size_t b, std::size_t j,
                                          std::size_t rows, std::span<float> tile) const {
  return read(keys_, layer, block_row(layer, b, j, rows), rows, tile);
}

std::span<const float> KVCache::value_block(std::size_t layer, std::size_t b, std::size_t j,
                                            std::size_t rows, std::span<float> tile) const {
  return read(values_, layer, block_row(layer, b, j, rows), rows, tile);
}

KVCache::Int8Rows KVCache::codes(const Slab& slab, std::size_t layer, std::size_t r) const {
  ORINSIM_CHECK(storage_ == KVStorage::kI8, "KVCache: code reads need INT8 storage");
  return {slab.codes[layer].data() + r * kv_dim_, slab.scales[layer].data() + r};
}

KVCache::Int8Rows KVCache::key_block_i8(std::size_t layer, std::size_t b, std::size_t j,
                                        std::size_t rows) const {
  return codes(keys_, layer, block_row(layer, b, j, rows));
}

KVCache::Int8Rows KVCache::value_block_i8(std::size_t layer, std::size_t b, std::size_t j,
                                          std::size_t rows) const {
  return codes(values_, layer, block_row(layer, b, j, rows));
}

void KVCache::truncate(std::size_t b, std::size_t new_len) {
  ORINSIM_CHECK(b < batch_, "KVCache::truncate out of range");
  ORINSIM_CHECK(new_len <= lengths_[b], "KVCache::truncate cannot extend");
  std::vector<std::size_t>& table = tables_[b];
  const std::size_t keep = blocks_for(new_len, block_tokens_);
  while (table.size() > keep) {
    allocator_->release(table.back());
    table.pop_back();
  }
  lengths_[b] = new_len;
  staged_[b] = 0;
}

void KVCache::reset() {
  for (std::size_t b = 0; b < batch_; ++b) {
    for (std::size_t id : tables_[b]) allocator_->release(id);
    tables_[b].clear();
  }
  std::fill(lengths_.begin(), lengths_.end(), 0);
  std::fill(staged_.begin(), staged_.end(), 0);
}

std::size_t KVCache::block_bytes() const noexcept {
  return block_tokens_ * bytes_per_row();
}

std::size_t KVCache::total_blocks() const noexcept { return allocator_->total_blocks(); }

std::size_t KVCache::blocks_in_use() const noexcept { return allocator_->blocks_in_use(); }

std::size_t KVCache::free_blocks() const noexcept { return allocator_->free_blocks(); }

std::size_t KVCache::bytes() const noexcept { return allocator_->bytes_in_use(); }

std::size_t KVCache::peak_bytes() const noexcept { return allocator_->peak_bytes(); }

std::size_t KVCache::reserved_bytes() const noexcept {
  return allocator_->total_blocks() * block_bytes();
}

std::size_t KVCache::used_bytes() const noexcept {
  std::size_t tokens = 0;
  for (std::size_t len : lengths_) tokens += len;
  return tokens * bytes_per_row();
}

}  // namespace orinsim
