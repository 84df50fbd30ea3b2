// Paged KV cache: a block table is a pure re-addressing of the sequence's
// positions. Generation outputs are pinned bit-identical between batched
// runs (interleaved, non-contiguous block tables) and each prompt run alone
// (a dense table: blocks 0, 1, 2, ...) across the full weight-precision x
// KV-storage grid, serial and pooled; fork shares blocks copy-on-write;
// try_reserve is the engine's non-throwing preemption probe; unreserved
// growth past the pool throws.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/error.h"
#include "model/kv_cache.h"
#include "model/transformer.h"

namespace orinsim {
namespace {

TransformerConfig paged_test_config() {
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

std::vector<std::vector<TokenId>> paged_test_prompts() {
  return {{3, 9, 27}, {81, 12, 36, 11}, {5, 6, 7, 8, 9}, {44, 2}};
}

// 24 new tokens carry every lane past the first 16-token block, so batched
// lanes interleave their second blocks.
constexpr std::size_t kPagedTestNewTokens = 24;

struct GridCase {
  DType dtype;
  KVStorage storage;
};

class PagedVsDenseTest : public ::testing::TestWithParam<GridCase> {};

// The acceptance grid: every weight precision x both KV storages. Serial:
// each prompt generated alone owns a dense block table (0, 1, 2, ...).
// Pooled: the prompts batched as lanes of one block pool, whose tables
// interleave. The tables only re-address the same bit-exact rows, so
// outputs must match exactly.
TEST_P(PagedVsDenseTest, BitIdenticalSerialAndPooled) {
  const auto cfg = paged_test_config();
  auto master = MasterWeights::init_random(cfg, 61);
  Model model(master, GetParam().dtype, GetParam().storage);

  const auto prompts = paged_test_prompts();
  std::vector<std::vector<TokenId>> solo;
  for (const auto& prompt : prompts) {
    solo.push_back(model.generate({prompt}, kPagedTestNewTokens).outputs.at(0));
    ASSERT_EQ(solo.back().size(), kPagedTestNewTokens);
  }
  EXPECT_EQ(model.generate(prompts, kPagedTestNewTokens).outputs, solo);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PagedVsDenseTest,
    ::testing::Values(GridCase{DType::kF32, KVStorage::kF32},
                      GridCase{DType::kF32, KVStorage::kI8},
                      GridCase{DType::kF16, KVStorage::kF32},
                      GridCase{DType::kF16, KVStorage::kI8},
                      GridCase{DType::kI8, KVStorage::kF32},
                      GridCase{DType::kI8, KVStorage::kI8},
                      GridCase{DType::kI4, KVStorage::kF32},
                      GridCase{DType::kI4, KVStorage::kI8}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      std::string name = dtype_name(info.param.dtype);
      name += info.param.storage == KVStorage::kI8 ? "_kvI8" : "_kvF32";
      for (char& ch : name) {
        if (ch == '-' || ch == '.') ch = '_';
      }
      return name;
    });

KVCacheOptions small_pool(std::size_t block_tokens, std::size_t max_blocks) {
  KVCacheOptions o;
  o.block_tokens = block_tokens;
  o.max_blocks = max_blocks;
  return o;
}

void append_all_layers(KVCache& cache, std::size_t b, float fill) {
  std::vector<float> row(cache.kv_dim(), fill);
  for (std::size_t l = 0; l < 2; ++l) cache.append(l, b, row, row);
  cache.commit(b, 1);
}

TEST(PagedKVTest, ForkSharesBlocksThenCopiesOnWrite) {
  const auto cfg = paged_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/16, small_pool(4, 8));

  for (int i = 0; i < 6; ++i) append_all_layers(cache, 0, 1.0f + i);
  EXPECT_EQ(cache.blocks_in_use(), 2u);  // 6 tokens over 4-token blocks

  cache.fork_sequence(0, 1);
  EXPECT_EQ(cache.seq_len(1), 6u);
  EXPECT_EQ(cache.blocks_in_use(), 2u);  // shared, not copied

  std::vector<float> scratch(cache.kv_dim());
  const auto before = cache.key(0, 0, 5, scratch);
  const float sentinel = before[0];

  // Writing into the forked sequence's shared partial block copies it; the
  // source's data must be untouched.
  append_all_layers(cache, 1, -9.0f);
  EXPECT_EQ(cache.blocks_in_use(), 3u);  // the shared tail block diverged
  EXPECT_EQ(cache.key(0, 0, 5, scratch)[0], sentinel);
  EXPECT_EQ(cache.key(0, 1, 6, scratch)[0], -9.0f);

  // Releasing the fork returns only its exclusive blocks.
  cache.free_sequence(1);
  EXPECT_EQ(cache.blocks_in_use(), 2u);
  EXPECT_EQ(cache.key(0, 0, 5, scratch)[0], sentinel);
}

TEST(PagedKVTest, TryReserveIsAllOrNothingAndExhaustionThrows) {
  const auto cfg = paged_test_config();
  // 3-block pool, 4 tokens per block, two sequences of up to 12 tokens.
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/12, small_pool(4, 3));

  EXPECT_TRUE(cache.try_reserve(0, 8));   // 2 blocks
  EXPECT_EQ(cache.blocks_in_use(), 2u);
  EXPECT_FALSE(cache.try_reserve(1, 8));  // needs 2, only 1 left
  EXPECT_EQ(cache.blocks_in_use(), 2u);   // failed probe allocated nothing
  EXPECT_TRUE(cache.try_reserve(1, 4));
  EXPECT_EQ(cache.free_blocks(), 0u);
  // Reserved capacity is idempotent: re-asking for covered room succeeds.
  EXPECT_TRUE(cache.try_reserve(0, 8));
  // Growth past the reservation with an empty pool throws.
  for (int i = 0; i < 8; ++i) append_all_layers(cache, 0, 1.0f);
  std::vector<float> row(cache.kv_dim(), 0.0f);
  EXPECT_THROW(cache.append(0, 0, row, row), ContractViolation);
  // Beyond max_seq is refused even if blocks exist.
  cache.free_sequence(1);
  EXPECT_FALSE(cache.try_reserve(0, 5));  // 8 committed + 5 > max_seq 12
  EXPECT_TRUE(cache.try_reserve(0, 4));
}

// Satellite regression: truncating a sequence that still shares COW blocks
// with a live fork must not free blocks the fork references. Ref counting
// makes truncate a pure "drop my reference": the fork's data stays intact
// and the block only returns to the pool when the last holder lets go.
TEST(PagedKVTest, TruncateOfForkedSourceKeepsForkBlocksAlive) {
  const auto cfg = paged_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/16, small_pool(4, 8));
  for (int i = 0; i < 8; ++i) append_all_layers(cache, 0, 1.0f + i);
  EXPECT_EQ(cache.blocks_in_use(), 2u);

  cache.fork_sequence(0, 1);
  std::vector<float> scratch(cache.kv_dim());
  const float sentinel = cache.key(0, 1, 7, scratch)[0];

  // The source rolls all the way back; both shared blocks lose one ref but
  // stay allocated for the fork.
  cache.truncate(0, 0);
  EXPECT_EQ(cache.seq_len(0), 0u);
  EXPECT_EQ(cache.seq_len(1), 8u);
  EXPECT_EQ(cache.blocks_in_use(), 2u);
  EXPECT_EQ(cache.key(0, 1, 7, scratch)[0], sentinel);

  // The pool has exactly the other 6 blocks free: the fork's two blocks were
  // not double-released into the free list.
  EXPECT_EQ(cache.free_blocks(), 6u);
  // New growth in the source must not alias the fork's storage.
  for (int i = 0; i < 8; ++i) append_all_layers(cache, 0, -5.0f);
  EXPECT_EQ(cache.key(0, 1, 7, scratch)[0], sentinel);
  // Releasing the fork returns its blocks; the pool is fully reusable.
  cache.free_sequence(1);
  EXPECT_EQ(cache.blocks_in_use(), 2u);  // only the source's fresh blocks
}

// The speculative draft branch forks the lane then appends in a parallel
// phase where a COW allocation failure would throw. try_unshare_tail moves
// the copy into the serial setup: it either secures a private tail or
// reports failure without touching the cache.
TEST(PagedKVTest, TryUnshareTailCowsEagerlyOrFailsCleanly) {
  const auto cfg = paged_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/16, small_pool(4, 3));
  for (int i = 0; i < 6; ++i) append_all_layers(cache, 0, 1.0f + i);
  cache.fork_sequence(0, 1);
  EXPECT_EQ(cache.blocks_in_use(), 2u);

  // One free block: the shared partial tail copies now, and is idempotent.
  EXPECT_TRUE(cache.try_unshare_tail(1));
  EXPECT_EQ(cache.blocks_in_use(), 3u);
  EXPECT_TRUE(cache.try_unshare_tail(1));
  EXPECT_EQ(cache.blocks_in_use(), 3u);

  // Appending into the pre-copied tail allocates nothing further and leaves
  // the source's rows untouched.
  std::vector<float> scratch(cache.kv_dim());
  const float sentinel = cache.key(0, 0, 5, scratch)[0];
  append_all_layers(cache, 1, -7.0f);
  EXPECT_EQ(cache.blocks_in_use(), 3u);
  EXPECT_EQ(cache.key(0, 0, 5, scratch)[0], sentinel);
  EXPECT_EQ(cache.key(0, 1, 6, scratch)[0], -7.0f);
  cache.free_sequence(1);
  EXPECT_EQ(cache.blocks_in_use(), 2u);

  // Exhausted pool: the probe reports failure and mutates nothing — a bare
  // append in this state would throw from inside the COW copy.
  cache.fork_sequence(0, 1);
  ASSERT_TRUE(cache.try_reserve(0, 3));  // soak up the last free block
  EXPECT_EQ(cache.free_blocks(), 0u);
  EXPECT_FALSE(cache.try_unshare_tail(1));
  EXPECT_EQ(cache.seq_len(1), 6u);
  EXPECT_EQ(cache.blocks_in_use(), 3u);
  EXPECT_EQ(cache.key(0, 1, 5, scratch)[0], sentinel);

  // A block-aligned sequence has no partial tail: trivially true even with
  // an empty pool.
  cache.truncate(1, 4);
  EXPECT_TRUE(cache.try_unshare_tail(1));
}

TEST(PagedKVTest, AttachPrefixAdoptsReferencesAndExtendsCleanly) {
  const auto cfg = paged_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/16, small_pool(4, 8));
  // Sequence 0 builds 8 tokens = 2 full blocks.
  for (int i = 0; i < 8; ++i) append_all_layers(cache, 0, 1.0f + i);
  const auto table = cache.block_table(0);
  ASSERT_EQ(table.size(), 2u);

  // A prefix-cache-style holder retains the chain, then sequence 1 adopts
  // those references.
  std::vector<std::size_t> chain(table.begin(), table.end());
  for (std::size_t id : chain) cache.retain_block(id);
  cache.attach_prefix(1, chain, 8);
  EXPECT_EQ(cache.seq_len(1), 8u);
  EXPECT_EQ(cache.blocks_in_use(), 2u);  // shared, not copied

  std::vector<float> scratch(cache.kv_dim());
  EXPECT_EQ(cache.key(0, 1, 3, scratch)[0],
            cache.key(0, 0, 3, scratch)[0]);  // same physical rows

  // Appending after a full-chain attach starts a fresh block — the shared
  // blocks are never copy-on-written on the hit path.
  const float sentinel = cache.key(0, 0, 7, scratch)[0];
  append_all_layers(cache, 1, -9.0f);
  EXPECT_EQ(cache.blocks_in_use(), 3u);  // one fresh block, zero COW copies
  EXPECT_EQ(cache.key(0, 0, 7, scratch)[0], sentinel);

  // Each sequence releases independently; block refcounts tie off exactly.
  cache.free_sequence(0);
  EXPECT_EQ(cache.blocks_in_use(), 3u);  // chain survives via sequence 1
  cache.free_sequence(1);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
}

TEST(PagedKVTest, AttachPrefixContractChecks) {
  const auto cfg = paged_test_config();
  KVCache cache(cfg, /*batch=*/2, /*max_seq=*/16, small_pool(4, 8));
  for (int i = 0; i < 6; ++i) append_all_layers(cache, 0, 2.0f);
  std::vector<std::size_t> chain(cache.block_table(0).begin(),
                                 cache.block_table(0).end());
  // 6 tokens do not fill the 2-block chain: only exactly-full chains attach.
  EXPECT_THROW(cache.attach_prefix(1, chain, 6), ContractViolation);
  // Target must be empty.
  append_all_layers(cache, 1, 3.0f);
  EXPECT_THROW(cache.attach_prefix(1, std::vector<std::size_t>{chain[0]}, 4),
               ContractViolation);
}

TEST(PagedKVTest, TruncateReturnsBlocksToThePool) {
  const auto cfg = paged_test_config();
  KVCache cache(cfg, /*batch=*/1, /*max_seq=*/16, small_pool(4, 4));
  for (int i = 0; i < 10; ++i) append_all_layers(cache, 0, 2.0f + i);
  EXPECT_EQ(cache.blocks_in_use(), 3u);

  std::vector<float> scratch(cache.kv_dim());
  const float keep = cache.key(0, 0, 3, scratch)[0];
  cache.truncate(0, 4);  // speculative rejection path
  EXPECT_EQ(cache.blocks_in_use(), 1u);
  EXPECT_EQ(cache.key(0, 0, 3, scratch)[0], keep);  // kept prefix intact

  // The freed blocks are immediately reusable.
  EXPECT_TRUE(cache.try_reserve(0, 12));
}

}  // namespace
}  // namespace orinsim
