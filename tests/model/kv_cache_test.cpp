#include "model/kv_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "model/config.h"
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

TransformerConfig tiny_config() {
  TransformerConfig c;
  c.vocab = 50;
  c.d_model = 16;
  c.n_layers = 2;
  c.n_heads = 4;
  c.n_kv_heads = 2;
  c.d_ff = 32;
  c.max_seq = 64;
  c.validate();
  return c;
}

TEST(KVCacheTest, AppendCommitReadBack) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 2, 8);
  const std::size_t kv = cfg.kv_dim();
  std::vector<float> k(kv, 1.5f), v(kv, -2.5f);

  for (std::size_t l = 0; l < cfg.n_layers; ++l) {
    EXPECT_EQ(cache.append(l, 0, k, v), 0u);
  }
  cache.commit(0);
  EXPECT_EQ(cache.seq_len(0), 1u);
  EXPECT_EQ(cache.seq_len(1), 0u);
  std::vector<float> scratch(kv);
  EXPECT_EQ(cache.key(1, 0, 0, scratch)[0], 1.5f);
  EXPECT_EQ(cache.value(0, 0, 0, scratch)[kv - 1], -2.5f);
}

TEST(KVCacheTest, StagedEntryReadableBeforeCommit) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 1, 4);
  const std::size_t kv = cfg.kv_dim();
  std::vector<float> k(kv, 3.0f), v(kv, 4.0f);
  cache.append(0, 0, k, v);
  // pos == seq_len(b) reads the staged entry.
  std::vector<float> scratch(kv);
  EXPECT_EQ(cache.key(0, 0, 0, scratch)[0], 3.0f);
}

TEST(KVCacheTest, PerSequenceLengthsIndependent) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 3, 8);
  const std::size_t kv = cfg.kv_dim();
  std::vector<float> k(kv, 0.0f), v(kv, 0.0f);
  for (int step = 0; step < 3; ++step) {
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, 1, k, v);
    cache.commit(1);
  }
  EXPECT_EQ(cache.seq_len(0), 0u);
  EXPECT_EQ(cache.seq_len(1), 3u);
}

TEST(KVCacheTest, OverflowRejected) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 1, 2);
  const std::size_t kv = cfg.kv_dim();
  std::vector<float> k(kv), v(kv);
  for (int i = 0; i < 2; ++i) {
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, 0, k, v);
    cache.commit(0);
  }
  EXPECT_THROW(cache.append(0, 0, k, v), ContractViolation);
  EXPECT_THROW(cache.commit(0), ContractViolation);
}

TEST(KVCacheTest, BytesAccountingPagedTracksBlocksInUse) {
  const auto cfg = tiny_config();
  KVCacheOptions opts;
  opts.block_tokens = 4;
  KVCache cache(cfg, 2, 8, opts);
  // Nothing appended yet: no blocks handed out.
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.blocks_in_use(), 0u);
  const std::size_t kv = cfg.kv_dim();
  std::vector<float> k(kv), v(kv);
  // One token maps one block for the sequence (shared by all layers).
  for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, 0, k, v);
  cache.commit(0);
  EXPECT_EQ(cache.blocks_in_use(), 1u);
  EXPECT_EQ(cache.bytes(), cache.block_bytes());
  EXPECT_EQ(cache.used_bytes(), cfg.n_layers * 2 * kv * sizeof(float));
  // Filling past block_tokens positions takes a second block.
  for (std::size_t t = 1; t < 5; ++t) {
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, 0, k, v);
    cache.commit(0);
  }
  EXPECT_EQ(cache.blocks_in_use(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * cache.block_bytes());
  EXPECT_EQ(cache.peak_bytes(), 2 * cache.block_bytes());
  // Truncating back into the first block returns the second to the pool,
  // while the peak counter keeps the high-water mark.
  cache.truncate(0, 2);
  EXPECT_EQ(cache.blocks_in_use(), 1u);
  EXPECT_EQ(cache.peak_bytes(), 2 * cache.block_bytes());
  EXPECT_EQ(cache.seq_len(0), 2u);
  // Truncation only shortens, and growth after the rollback reuses the slots.
  EXPECT_THROW(cache.truncate(0, 3), ContractViolation);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, 0, k, v);
  cache.commit(0);
  EXPECT_EQ(cache.seq_len(0), 3u);
}

TEST(KVCacheTest, ResetClearsLengths) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 1, 4);
  const std::size_t kv = cfg.kv_dim();
  std::vector<float> k(kv), v(kv);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, 0, k, v);
  cache.commit(0);
  cache.reset();
  EXPECT_EQ(cache.seq_len(0), 0u);
}

TEST(KVCacheTest, DimensionMismatchRejected) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 1, 4);
  std::vector<float> wrong(cfg.kv_dim() + 1);
  EXPECT_THROW(cache.append(0, 0, wrong, wrong), ContractViolation);
}

TEST(KVCacheTest, MaxSeqBeyondModelRejected) {
  const auto cfg = tiny_config();
  EXPECT_THROW(KVCache(cfg, 1, cfg.max_seq + 1), ContractViolation);
}

// Row-major [count, kv_dim] block with distinct per-element values.
std::vector<float> ramp_rows(std::size_t count, std::size_t kv, float base) {
  std::vector<float> rows(count * kv);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = base + 0.25f * static_cast<float>(i);
  }
  return rows;
}

TEST(KVCacheTest, AppendManyMatchesSequentialAppends) {
  const auto cfg = tiny_config();
  const std::size_t kv = cfg.kv_dim();
  const std::size_t count = 3;
  const auto ks = ramp_rows(count, kv, 1.0f);
  const auto vs = ramp_rows(count, kv, -2.0f);

  for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
    KVCache bulk(cfg, 1, 8, storage);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
      EXPECT_EQ(bulk.append_many(l, 0, ks, vs, count), 0u);
    }
    bulk.commit(0, count);

    KVCache seq(cfg, 1, 8, storage);
    for (std::size_t p = 0; p < count; ++p) {
      for (std::size_t l = 0; l < cfg.n_layers; ++l) {
        seq.append(l, 0, std::span<const float>(ks.data() + p * kv, kv),
                   std::span<const float>(vs.data() + p * kv, kv));
      }
      seq.commit(0);
    }

    EXPECT_EQ(bulk.seq_len(0), count);
    EXPECT_EQ(seq.seq_len(0), count);
    std::vector<float> s1(kv), s2(kv);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) {
      for (std::size_t p = 0; p < count; ++p) {
        const auto k1 = bulk.key(l, 0, p, s1);
        const auto k2 = seq.key(l, 0, p, s2);
        for (std::size_t i = 0; i < kv; ++i) EXPECT_EQ(k1[i], k2[i]);
        const auto v1 = bulk.value(l, 0, p, s1);
        const auto v2 = seq.value(l, 0, p, s2);
        for (std::size_t i = 0; i < kv; ++i) EXPECT_EQ(v1[i], v2[i]);
      }
    }
  }
}

TEST(KVCacheTest, StagedBlockReadableBeforeCommit) {
  // Chunked attention reads the whole staged block before the commit.
  const auto cfg = tiny_config();
  const std::size_t kv = cfg.kv_dim();
  KVCache cache(cfg, 1, 8);
  const auto ks = ramp_rows(3, kv, 5.0f);
  const auto vs = ramp_rows(3, kv, 7.0f);
  cache.append_many(0, 0, ks, vs, 3);
  EXPECT_EQ(cache.seq_len(0), 0u);
  std::vector<float> scratch(kv);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(cache.key(0, 0, p, scratch)[0], ks[p * kv]);
  }
  // Positions beyond the staged block remain out of range.
  EXPECT_THROW(cache.key(0, 0, 3, scratch), ContractViolation);
}

TEST(KVCacheTest, CommitManyOverflowRejected) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 1, 4);
  const std::size_t kv = cfg.kv_dim();
  const auto ks = ramp_rows(3, kv, 0.0f);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append_many(l, 0, ks, ks, 3);
  cache.commit(0, 3);
  EXPECT_THROW(cache.commit(0, 2), ContractViolation);  // 3 + 2 > 4
}

TEST(KVCacheTest, AppendManyBeyondCapacityRejected) {
  const auto cfg = tiny_config();
  KVCache cache(cfg, 1, 2);
  const std::size_t kv = cfg.kv_dim();
  const auto rows = ramp_rows(3, kv, 0.0f);
  EXPECT_THROW(cache.append_many(0, 0, rows, rows, 3), ContractViolation);
}

// Two sequences appended alternately over 4-token blocks get interleaved,
// non-contiguous tables; sequence 0 ends in a staged, uncommitted, partial
// tail block. Every block read must equal the per-position reads bitwise.
TEST(KVCacheTest, BlockReadsMatchPerPositionReads) {
  const auto cfg = tiny_config();
  const std::size_t kv = cfg.kv_dim();
  KVCacheOptions opts;
  opts.block_tokens = 4;
  for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
    opts.storage = storage;
    KVCache cache(cfg, 2, 16, opts);
    for (std::size_t p = 0; p < 7; ++p) {
      for (std::size_t b = 0; b < 2; ++b) {
        const auto ks = ramp_rows(1, kv, 1.0f + static_cast<float>(10 * p + b));
        const auto vs = ramp_rows(1, kv, -3.0f - static_cast<float>(10 * p + b));
        for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append(l, b, ks, vs);
        cache.commit(b);
      }
    }
    const auto ks = ramp_rows(2, kv, 0.5f);
    const auto vs = ramp_rows(2, kv, -0.5f);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append_many(l, 0, ks, vs, 2);
    ASSERT_EQ(cache.block_table(0).size(), 3u);
    EXPECT_NE(cache.block_table(0)[1], cache.block_table(0)[0] + 1);

    // Readable positions: 0..8 for sequence 0 (two staged), 0..6 for 1.
    const std::size_t readable[] = {9, 7};
    std::vector<float> tile(opts.block_tokens * kv), scratch(kv);
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t l = 0; l < cfg.n_layers; ++l) {
        for (std::size_t j = 0; j * 4 < readable[b]; ++j) {
          const std::size_t rows = std::min<std::size_t>(4, readable[b] - j * 4);
          const auto kblock = cache.key_block(l, b, j, rows, tile);
          ASSERT_EQ(kblock.size(), rows * kv);
          for (std::size_t r = 0; r < rows; ++r) {
            const auto kref = cache.key(l, b, j * 4 + r, scratch);
            for (std::size_t i = 0; i < kv; ++i) {
              EXPECT_EQ(kblock[r * kv + i], kref[i]) << "b=" << b << " l=" << l;
            }
          }
          const auto vblock = cache.value_block(l, b, j, rows, tile);
          ASSERT_EQ(vblock.size(), rows * kv);
          for (std::size_t r = 0; r < rows; ++r) {
            const auto vref = cache.value(l, b, j * 4 + r, scratch);
            for (std::size_t i = 0; i < kv; ++i) {
              EXPECT_EQ(vblock[r * kv + i], vref[i]) << "b=" << b << " l=" << l;
            }
          }
        }
      }
    }
    // Rows past the staged tail, and unmapped blocks, are out of range.
    EXPECT_THROW(cache.key_block(0, 0, 2, 2, tile), ContractViolation);
    EXPECT_THROW(cache.value_block(0, 1, 2, 1, tile), ContractViolation);
  }
}

// The native head_dim-16 attention kernels read the cache block by block.
// For every block of a cache (fp32 or int8 storage; block_tokens 16, 4 and
// 3, so tail blocks are partial), every KV head and every n_pos up to the
// block's rows: each score must equal simd::dot_f32(q, k) * inv_sqrt_d per
// position, and each weighted value sum the plain multiply-then-add loop,
// bitwise, for a GQA group of 4 (llama3-nano) and of 1 (phi2-nano); the
// value kernel also over 1-6 heads per call. Score columns past n_pos and
// floats past the value outputs stay untouched.
TEST(KVCacheTest, Hd16AttentionKernelsMatchReferenceBitwise) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  ScopedLevel native(simd::Level::kNative);
  Rng rng(83);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(simd::kScoreHeadDim));
  const std::size_t hd = simd::kScoreHeadDim;
  for (const char* family : {"llama3", "phi2"}) {
    const TransformerConfig cfg = make_nano_config(family, 64);
    ASSERT_EQ(cfg.head_dim(), hd);
    ASSERT_TRUE(simd::attention_hd16(cfg.head_dim()));
    const std::size_t kv = cfg.kv_dim();
    const std::size_t group = cfg.n_heads / cfg.n_kv_heads;
    std::vector<float> q(cfg.n_heads * hd);
    for (auto& x : q) x = static_cast<float>(rng.normal(0.0, 1.0));
    q[0] = 0.0f;  // signed zeros meet fma-with-zero
    q[1] = -0.0f;
    for (KVStorage storage : {KVStorage::kF32, KVStorage::kI8}) {
      for (std::size_t block : {16u, 4u, 3u}) {
        KVCacheOptions opts;
        opts.storage = storage;
        opts.block_tokens = block;
        const std::size_t len = 37;
        KVCache cache(cfg, 1, len, opts);
        std::vector<float> k(len * kv), v(len * kv);
        for (auto& x : k) x = static_cast<float>(rng.normal(0.0, 1.0));
        for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
        for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append_many(l, 0, k, v, len);
        cache.commit(0, len);

        std::vector<float> tile(block * kv), vtile(block * kv);
        std::vector<float> tiles(simd::transposed_keys_size(block));
        for (std::size_t j = 0; j * block < len; ++j) {
          const std::size_t rows = std::min(block, len - j * block);
          const auto keys = cache.key_block(1, 0, j, rows, tile);
          for (std::size_t g = 0; g < cfg.n_kv_heads; ++g) {
            simd::transpose_keys_hd16(keys.data() + g * hd, kv, rows, tiles.data());
            for (std::size_t n_pos = 1; n_pos <= rows; ++n_pos) {
              const std::size_t stride = n_pos + 1;
              std::vector<float> out(group * stride, std::numeric_limits<float>::quiet_NaN());
              simd::scores_hd16(tiles.data(), n_pos, q.data() + g * group * hd, group,
                                inv_sqrt_d, out.data(), stride);
              for (std::size_t h = 0; h < group; ++h) {
                const float* qh = q.data() + (g * group + h) * hd;
                for (std::size_t p = 0; p < n_pos; ++p) {
                  const float ref = simd::dot_f32(qh, keys.data() + p * kv + g * hd, hd) *
                                    inv_sqrt_d;
                  ASSERT_EQ(std::bit_cast<std::uint32_t>(out[h * stride + p]),
                            std::bit_cast<std::uint32_t>(ref))
                      << family << " block " << block << " j " << j << " g " << g
                      << " n_pos " << n_pos << " h " << h << " p " << p;
                }
                EXPECT_TRUE(std::isnan(out[h * stride + n_pos]));
              }

              // The scores as weights over this block's values, for n_q 1-6
              // heads at once (every nano GQA group, and passes of at most
              // four heads): head h weighs by the group's score row h % group.
              const auto values = cache.value_block(1, 0, j, rows, vtile);
              const float* vg = values.data() + g * hd;
              for (std::size_t n_q = 1; n_q <= 6; ++n_q) {
                std::vector<float> w(n_q * stride), acc(n_q * hd + 1), ref(n_q * hd + 1);
                for (std::size_t h = 0; h < n_q; ++h) {
                  std::copy_n(out.data() + h % group * stride, n_pos, w.data() + h * stride);
                }
                for (std::size_t i = 0; i < n_q * hd; ++i) acc[i] = ref[i] = 0.25f * q[i % q.size()];
                acc[n_q * hd] = ref[n_q * hd] = std::numeric_limits<float>::quiet_NaN();
                simd::accumulate_values_hd16(w.data(), stride, n_q, vg, kv, n_pos, acc.data());
                for (std::size_t h = 0; h < n_q; ++h) {
                  for (std::size_t p = 0; p < n_pos; ++p) {
                    for (std::size_t e = 0; e < hd; ++e) {
                      ref[h * hd + e] += w[h * stride + p] * vg[p * kv + e];
                    }
                  }
                }
                for (std::size_t i = 0; i < n_q * hd; ++i) {
                  ASSERT_EQ(std::bit_cast<std::uint32_t>(acc[i]),
                            std::bit_cast<std::uint32_t>(ref[i]))
                      << family << " block " << block << " j " << j << " g " << g
                      << " n_pos " << n_pos << " n_q " << n_q << " i " << i;
                }
                EXPECT_TRUE(std::isnan(acc[n_q * hd]));
              }
            }
          }
        }
      }
    }
  }
}

// The int8 twins read a cache block's codes and scales in place. For every
// block of an int8 cache (block_tokens 16, 4 and 3, so tail tiles are
// partial), every KV head and every n_pos up to the block's rows, each must
// equal dequantizing the block with value_block/key_block, then running the
// fp32 kernel, bitwise: the transposed tiles (zero padding included), the
// scores taken from them for GQA groups of 4 and 1, and the weighted value
// sums of 1-6 heads per call. Tile storage past the padded n_pos, score
// columns past n_pos and floats past the value outputs stay untouched.
TEST(KVCacheTest, Hd16Int8TwinsMatchDequantizedKernelsBitwise) {
  if (!simd::native_available()) GTEST_SKIP() << "no AVX2/FMA on this host";
  ScopedLevel native(simd::Level::kNative);
  Rng rng(89);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(simd::kScoreHeadDim));
  const std::size_t hd = simd::kScoreHeadDim;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
  for (const char* family : {"llama3", "phi2"}) {
    const TransformerConfig cfg = make_nano_config(family, 64);
    ASSERT_TRUE(simd::attention_hd16(cfg.head_dim()));
    const std::size_t kv = cfg.kv_dim();
    const std::size_t group = cfg.n_heads / cfg.n_kv_heads;
    std::vector<float> q(cfg.n_heads * hd);
    for (auto& x : q) x = static_cast<float>(rng.normal(0.0, 1.0));
    for (std::size_t block : {16u, 4u, 3u}) {
      KVCacheOptions opts;
      opts.storage = KVStorage::kI8;
      opts.block_tokens = block;
      const std::size_t len = 37;
      KVCache cache(cfg, 1, len, opts);
      std::vector<float> k(len * kv), v(len * kv);
      for (auto& x : k) x = static_cast<float>(rng.normal(0.0, 1.0));
      for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
      k[5] = 0.0f;  // a zero code keeps its sign through the scale
      for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append_many(l, 0, k, v, len);
      cache.commit(0, len);

      std::vector<float> ktile(block * kv), vtile(block * kv);
      const std::size_t tiles_size = simd::transposed_keys_size(block);
      for (std::size_t j = 0; j * block < len; ++j) {
        const std::size_t rows = std::min(block, len - j * block);
        const auto keys = cache.key_block(1, 0, j, rows, ktile);
        const auto values = cache.value_block(1, 0, j, rows, vtile);
        const KVCache::Int8Rows keys8 = cache.key_block_i8(1, 0, j, rows);
        const KVCache::Int8Rows values8 = cache.value_block_i8(1, 0, j, rows);
        for (std::size_t g = 0; g < cfg.n_kv_heads; ++g) {
          for (std::size_t n_pos = 1; n_pos <= rows; ++n_pos) {
            const std::string where = std::string(family) + " block " + std::to_string(block) +
                                      " j " + std::to_string(j) + " g " + std::to_string(g) +
                                      " n_pos " + std::to_string(n_pos);
            std::vector<float> ref_tiles(tiles_size + 8, nan), tiles(tiles_size + 8, nan);
            simd::transpose_keys_hd16(keys.data() + g * hd, kv, n_pos, ref_tiles.data());
            simd::transpose_keys_hd16_i8(keys8.codes + g * hd, keys8.scales, kv, n_pos,
                                         tiles.data());
            const std::size_t written = simd::transposed_keys_size(n_pos);
            for (std::size_t i = 0; i < tiles.size(); ++i) {
              if (i < written) {
                ASSERT_EQ(bits(tiles[i]), bits(ref_tiles[i])) << where << " i " << i;
              } else {
                ASSERT_TRUE(std::isnan(tiles[i])) << where << " i " << i;
              }
            }

            const std::size_t stride = n_pos + 1;
            std::vector<float> ref(group * stride, nan), out(group * stride, nan);
            const float* qg = q.data() + g * group * hd;
            simd::scores_hd16(ref_tiles.data(), n_pos, qg, group, inv_sqrt_d, ref.data(), stride);
            simd::scores_hd16(tiles.data(), n_pos, qg, group, inv_sqrt_d, out.data(), stride);
            for (std::size_t h = 0; h < group; ++h) {
              for (std::size_t p = 0; p < n_pos; ++p) {
                ASSERT_EQ(bits(out[h * stride + p]), bits(ref[h * stride + p]))
                    << where << " h " << h << " p " << p;
              }
              EXPECT_TRUE(std::isnan(out[h * stride + n_pos])) << where;
            }

            // The scores as weights over this block's values, for n_q 1-6
            // heads at once; a sentinel after the outputs must survive.
            for (std::size_t n_q = 1; n_q <= 6; ++n_q) {
              std::vector<float> w(n_q * stride), acc(n_q * hd + 1), acc_ref(n_q * hd + 1);
              for (std::size_t h = 0; h < n_q; ++h) {
                std::copy_n(ref.data() + h % group * stride, n_pos, w.data() + h * stride);
              }
              for (std::size_t i = 0; i < n_q * hd; ++i) acc[i] = acc_ref[i] = 0.5f * q[i % q.size()];
              acc[n_q * hd] = acc_ref[n_q * hd] = nan;
              simd::accumulate_values_hd16(w.data(), stride, n_q, values.data() + g * hd, kv,
                                           n_pos, acc_ref.data());
              simd::accumulate_values_hd16_i8(w.data(), stride, n_q, values8.codes + g * hd,
                                              values8.scales, kv, n_pos, acc.data());
              for (std::size_t i = 0; i < n_q * hd; ++i) {
                ASSERT_EQ(bits(acc[i]), bits(acc_ref[i])) << where << " n_q " << n_q << " i " << i;
              }
              EXPECT_TRUE(std::isnan(acc[n_q * hd])) << where;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace orinsim
