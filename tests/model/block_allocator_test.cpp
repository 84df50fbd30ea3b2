// BlockAllocator: the ref-counted fixed pool behind the paged KV cache.
// Determinism (LIFO handout order), all-or-nothing reservation, ref-count
// sharing for copy-on-write forks, and exhaustion behaviour are all pinned
// here — the serving engine's preemption logic builds directly on them.
#include "model/block_allocator.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.h"

namespace orinsim {
namespace {

TEST(BlockAllocatorTest, HandsOutBlockZeroFirst) {
  BlockAllocator a(4, 128);
  EXPECT_EQ(a.total_blocks(), 4u);
  EXPECT_EQ(a.block_bytes(), 128u);
  EXPECT_EQ(a.free_blocks(), 4u);
  // Ascending handout keeps a single growing sequence physically contiguous
  // (position-ordered slab rows, and the contiguous block tables the
  // batched-vs-solo KV pins compare against).
  EXPECT_EQ(a.alloc(), 0u);
  EXPECT_EQ(a.alloc(), 1u);
  EXPECT_EQ(a.alloc(), 2u);
  EXPECT_EQ(a.blocks_in_use(), 3u);
  EXPECT_EQ(a.free_blocks(), 1u);
}

TEST(BlockAllocatorTest, ExhaustionReturnsSentinelNotThrow) {
  BlockAllocator a(2, 64);
  EXPECT_NE(a.alloc(), BlockAllocator::kNoBlock);
  EXPECT_NE(a.alloc(), BlockAllocator::kNoBlock);
  EXPECT_EQ(a.alloc(), BlockAllocator::kNoBlock);
  EXPECT_EQ(a.blocks_in_use(), 2u);
}

TEST(BlockAllocatorTest, FreeListIsLifo) {
  BlockAllocator a(3, 64);
  const std::size_t b0 = a.alloc();
  const std::size_t b1 = a.alloc();
  (void)b0;
  a.release(b1);
  // The most recently freed block is reused first.
  EXPECT_EQ(a.alloc(), b1);
}

TEST(BlockAllocatorTest, AllocManyIsAllOrNothing) {
  BlockAllocator a(4, 64);
  std::vector<std::size_t> held;
  ASSERT_TRUE(a.alloc_many(3, held));
  EXPECT_EQ(held.size(), 3u);
  EXPECT_EQ(a.free_blocks(), 1u);
  // Asking for more than remains must not strand partial progress.
  EXPECT_FALSE(a.alloc_many(2, held));
  EXPECT_EQ(held.size(), 3u);
  EXPECT_EQ(a.free_blocks(), 1u);
  EXPECT_TRUE(a.can_alloc(1));
  EXPECT_FALSE(a.can_alloc(2));
  ASSERT_TRUE(a.alloc_many(1, held));
  EXPECT_EQ(held.size(), 4u);
  EXPECT_EQ(a.free_blocks(), 0u);
}

TEST(BlockAllocatorTest, RetainReleaseRefCounting) {
  BlockAllocator a(2, 64);
  const std::size_t b = a.alloc();
  EXPECT_EQ(a.ref_count(b), 1u);
  a.retain(b);  // a forked sequence now shares the block
  EXPECT_EQ(a.ref_count(b), 2u);
  a.release(b);
  EXPECT_EQ(a.ref_count(b), 1u);
  EXPECT_EQ(a.blocks_in_use(), 1u);  // still held by one owner
  a.release(b);
  EXPECT_EQ(a.ref_count(b), 0u);
  EXPECT_EQ(a.blocks_in_use(), 0u);
  EXPECT_EQ(a.free_blocks(), 2u);
}

TEST(BlockAllocatorTest, RejectsBookkeepingOnFreeBlocks) {
  BlockAllocator a(2, 64);
  const std::size_t b = a.alloc();
  a.release(b);
  EXPECT_THROW(a.release(b), ContractViolation);
  EXPECT_THROW(a.retain(b), ContractViolation);
}

TEST(BlockAllocatorTest, CachedBlockAccounting) {
  BlockAllocator a(4, 64);
  const std::size_t b0 = a.alloc();
  const std::size_t b1 = a.alloc();
  EXPECT_EQ(a.cached_blocks(), 0u);
  a.set_cached(b0, true);
  a.set_cached(b1, true);
  EXPECT_EQ(a.cached_blocks(), 2u);
  EXPECT_TRUE(a.is_cached(b0));
  // Idempotent: re-flagging does not double count.
  a.set_cached(b0, true);
  EXPECT_EQ(a.cached_blocks(), 2u);
  a.set_cached(b0, false);
  EXPECT_EQ(a.cached_blocks(), 1u);
  EXPECT_FALSE(a.is_cached(b0));
  // Free blocks cannot carry the flag.
  a.release(b0);
  EXPECT_THROW(a.set_cached(b0, true), ContractViolation);
}

TEST(BlockAllocatorTest, ReleaseOfStillCachedBlockIsCaught) {
  BlockAllocator a(2, 64);
  const std::size_t b = a.alloc();
  a.set_cached(b, true);
  // Dropping the last reference while the prefix cache still claims the
  // block would leak its accounting: the eviction path must clear the flag
  // before releasing (audit guard for satellite eviction accounting).
  EXPECT_THROW(a.release(b), ContractViolation);
  a.set_cached(b, false);
  a.release(b);
  EXPECT_EQ(a.free_blocks(), 2u);
}

TEST(BlockAllocatorTest, DoubleReleaseGuard) {
  BlockAllocator a(2, 64);
  const std::size_t b = a.alloc();
  a.retain(b);
  a.release(b);
  a.release(b);
  // The block is free now; any further release is a double release.
  EXPECT_THROW(a.release(b), ContractViolation);
  EXPECT_EQ(a.free_blocks(), 2u);
}

TEST(BlockAllocatorTest, BytesAndPeakTracking) {
  BlockAllocator a(4, 256);
  std::vector<std::size_t> held;
  ASSERT_TRUE(a.alloc_many(3, held));
  EXPECT_EQ(a.bytes_in_use(), 3u * 256u);
  EXPECT_EQ(a.peak_blocks_in_use(), 3u);
  for (std::size_t b : held) a.release(b);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  // Peak is a high-water mark: releasing does not lower it.
  EXPECT_EQ(a.peak_blocks_in_use(), 3u);
  EXPECT_EQ(a.peak_bytes(), 3u * 256u);
}

}  // namespace
}  // namespace orinsim
