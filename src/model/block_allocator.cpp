#include "model/block_allocator.h"

#include "core/error.h"

namespace orinsim {

BlockAllocator::BlockAllocator(std::size_t total_blocks, std::size_t block_bytes)
    : block_bytes_(block_bytes) {
  ORINSIM_CHECK(total_blocks > 0 && block_bytes > 0,
                "BlockAllocator requires positive pool size and block bytes");
  refs_.assign(total_blocks, 0);
  cached_.assign(total_blocks, 0);
  free_list_.reserve(total_blocks);
  // Descending ids so pop_back hands out block 0 first: a lone sequence's
  // table is blocks 0,1,2,..., so its K/V rows lie in position order in the
  // slab and attention's block walk reads memory sequentially.
  for (std::size_t i = total_blocks; i > 0; --i) free_list_.push_back(i - 1);
}

std::size_t BlockAllocator::free_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_list_.size();
}

std::size_t BlockAllocator::blocks_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

std::size_t BlockAllocator::peak_blocks_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_use_;
}

std::size_t BlockAllocator::bytes_in_use() const { return blocks_in_use() * block_bytes_; }

std::size_t BlockAllocator::peak_bytes() const { return peak_blocks_in_use() * block_bytes_; }

std::size_t BlockAllocator::alloc() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_list_.empty()) return kNoBlock;
  const std::size_t id = free_list_.back();
  free_list_.pop_back();
  refs_[id] = 1;
  ++in_use_;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  return id;
}

bool BlockAllocator::alloc_many(std::size_t count, std::vector<std::size_t>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_list_.size() < count) return false;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t id = free_list_.back();
    free_list_.pop_back();
    refs_[id] = 1;
    out.push_back(id);
  }
  in_use_ += count;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  return true;
}

void BlockAllocator::retain(std::size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  ORINSIM_CHECK(id < refs_.size() && refs_[id] > 0, "BlockAllocator::retain on free block");
  ++refs_[id];
}

void BlockAllocator::release(std::size_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  // A double release would decrement a zero refcount and corrupt the free
  // list; the prefix cache's adopt/insert ref protocol makes this the most
  // likely misuse, so the guard is always on.
  ORINSIM_CHECK(id < refs_.size() && refs_[id] > 0, "BlockAllocator::release on free block");
  // Checked before the decrement so a violation leaves the pool untouched.
  ORINSIM_CHECK(refs_[id] > 1 || !cached_[id],
                "BlockAllocator::release would free a block still flagged cached");
  if (--refs_[id] == 0) {
    free_list_.push_back(id);
    --in_use_;
  }
}

std::size_t BlockAllocator::cached_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_count_;
}

void BlockAllocator::set_cached(std::size_t id, bool cached) {
  std::lock_guard<std::mutex> lock(mu_);
  ORINSIM_CHECK(id < refs_.size() && refs_[id] > 0,
                "BlockAllocator::set_cached on free block");
  if (cached_[id] == static_cast<std::uint8_t>(cached)) return;
  cached_[id] = static_cast<std::uint8_t>(cached);
  cached ? ++cached_count_ : --cached_count_;
}

bool BlockAllocator::is_cached(std::size_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ORINSIM_CHECK(id < refs_.size(), "BlockAllocator::is_cached out of range");
  return cached_[id] != 0;
}

std::size_t BlockAllocator::ref_count(std::size_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ORINSIM_CHECK(id < refs_.size(), "BlockAllocator::ref_count out of range");
  return refs_[id];
}

}  // namespace orinsim
