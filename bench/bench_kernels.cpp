// google-benchmark microbenchmarks of the functional engine's compute and
// quantization kernels (the "methodology" benches: these are the primitives
// whose efficiency the simulator's calibrated constants summarize).
//
// `bench_kernels --roofline-json[=path]` switches to the roofline tracker:
// it measures this host's peak FMA GFLOP/s (simd::fma_probe_flops on every
// kernel_pool() thread) and peak streaming GB/s, then times each weight-streaming
// kernel and reports measured GB/s, GFLOP/s, arithmetic intensity, the
// roofline ceiling min(peak_flops, AI * peak_bw), and the fraction of that
// ceiling actually reached — the per-kernel efficiency numbers CI archives
// as a JSON artifact. All other arguments run google-benchmark as before.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "model/kv_cache.h"
#include "model/transformer.h"
#include "quant/quantize.h"
#include "quant/weight_matrix.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace {

using namespace orinsim;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed, float scale = 0.1f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

void BM_Softmax(benchmark::State& state) {
  const std::size_t rows = 32, cols = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(rows * cols, 1);
  for (auto _ : state) {
    auto copy = x;
    kernels::softmax_rows(copy, rows, cols);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows * cols);
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

// Runs a benchmark body at one kernel level (0 scalar: libm exp; 1 native:
// the vector exp), restoring the process level afterwards.
class BenchLevel {
 public:
  explicit BenchLevel(benchmark::State& state, std::int64_t native)
      : prev_(simd::active_level()) {
    ok_ = native == 0 || simd::native_available();
    if (!ok_) {
      state.SkipWithError("no AVX2/FMA on this host");
      return;
    }
    simd::set_level(native != 0 ? simd::Level::kNative : simd::Level::kScalar);
    state.SetLabel(simd::level_name(simd::active_level()));
  }
  ~BenchLevel() { simd::set_level(prev_); }
  BenchLevel(const BenchLevel&) = delete;
  BenchLevel& operator=(const BenchLevel&) = delete;
  bool ok() const { return ok_; }

 private:
  simd::Level prev_;
  bool ok_ = false;
};

// Attention's softmax call shape: one (row, head) of `cols` scores per call.
void BM_SoftmaxRow(benchmark::State& state) {
  const BenchLevel level(state, state.range(1));
  if (!level.ok()) return;
  const auto cols = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(cols, 17, 2.0f);
  std::vector<float> row(cols);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), row.begin());
    kernels::softmax_rows(row, 1, cols);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * cols));
}
BENCHMARK(BM_SoftmaxRow)
    ->ArgNames({"cols", "native"})
    ->ArgsProduct({{64, 256, 1024, 4096}, {0, 1}});

// The MLP gate of llama3-nano (d_ff 448) over a decode row or a 32-row chunk.
void BM_SwiGLU(benchmark::State& state) {
  const BenchLevel level(state, state.range(1));
  if (!level.ok()) return;
  const std::size_t n = 448 * static_cast<std::size_t>(state.range(0));
  const auto gate = random_vec(n, 18, 2.0f);
  const auto up = random_vec(n, 19, 1.0f);
  std::vector<float> out(n);
  for (auto _ : state) {
    kernels::swiglu(gate, up, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SwiGLU)->ArgNames({"rows", "native"})->ArgsProduct({{1, 32}, {0, 1}});

void BM_RmsNorm(benchmark::State& state) {
  const std::size_t rows = 32, cols = static_cast<std::size_t>(state.range(0));
  auto x = random_vec(rows * cols, 2);
  std::vector<float> gain(cols, 1.0f), y(rows * cols);
  for (auto _ : state) {
    kernels::rmsnorm_rows(x, gain, y, rows, cols);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows * cols);
}
BENCHMARK(BM_RmsNorm)->Arg(128)->Arg(1024);

void BM_Rope(benchmark::State& state) {
  const std::size_t heads = 8, dim = 64;
  auto qk = random_vec(heads * dim, 3);
  std::size_t pos = 0;
  for (auto _ : state) {
    kernels::rope_inplace(qk, heads, dim, pos++ % 1024);
    benchmark::DoNotOptimize(qk.data());
  }
}
BENCHMARK(BM_Rope);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_vec(n * n, 4);
  auto b = random_vec(n * n, 5);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    kernels::gemm(a, b, c, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Matvec across storage precisions: the functional analogue of the decode
// phase's weight streaming; the INT8/INT4 overhead vs FP16 visible here is
// the CPU version of the effect the paper measures on the Orin GPU.
void BM_WeightMatvec(benchmark::State& state) {
  const auto dt = static_cast<DType>(state.range(0));
  const std::size_t out_f = 1024, in_f = 1024;
  auto w = random_vec(out_f * in_f, 6);
  const auto wm = quant::WeightMatrix::create(w, out_f, in_f, dt);
  auto x = random_vec(in_f, 7, 1.0f);
  std::vector<float> out(out_f);
  quant::ActivationBatchInt8 act;
  for (auto _ : state) {
    wm.matmul(x, out, 1, act);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(dtype_name(dt));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wm.storage_bytes()));
}
BENCHMARK(BM_WeightMatvec)
    ->Arg(static_cast<int>(DType::kF32))
    ->Arg(static_cast<int>(DType::kF16))
    ->Arg(static_cast<int>(DType::kI8))
    ->Arg(static_cast<int>(DType::kI4));

void BM_QuantizeInt8(benchmark::State& state) {
  const std::size_t rows = 256, cols = 1024;
  auto w = random_vec(rows * cols, 8);
  for (auto _ : state) {
    auto q = quant::quantize_rowwise_int8(w, rows, cols, 0.3f);
    benchmark::DoNotOptimize(q.codes.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows * cols);
}
BENCHMARK(BM_QuantizeInt8);

void BM_QuantizeInt4(benchmark::State& state) {
  const std::size_t rows = 256, cols = 1024;
  auto w = random_vec(rows * cols, 9);
  for (auto _ : state) {
    auto q = quant::quantize_block_int4(w, rows, cols);
    benchmark::DoNotOptimize(q.packed.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows * cols);
}
BENCHMARK(BM_QuantizeInt4);

// Dynamic int8 activation quantization of `rows` rows of `cols`: the pass
// every INT8 projection (and INT4 at the native level) runs on its input.
// cols 128 and 448 are llama3-nano's d_model and d_ff.
void BM_QuantizeActivations(benchmark::State& state) {
  const auto cols = static_cast<std::size_t>(state.range(0));
  const auto rows = static_cast<std::size_t>(state.range(1));
  const auto x = random_vec(rows * cols, 14, 1.0f);
  quant::ActivationBatchInt8 acts;
  for (auto _ : state) {
    quant::quantize_activations_int8(x, rows, cols, acts);
    benchmark::DoNotOptimize(acts.codes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows * cols));
}
BENCHMARK(BM_QuantizeActivations)
    ->ArgNames({"cols", "rows"})
    ->ArgsProduct({{128, 448}, {1, 32}});

// INT4 projections at llama3-nano's MLP shapes (out x in: 448x128 gate/up,
// 128x448 down) over 1, 2, 3, 4, 8 and 32 activation rows — decode lanes
// through a prefill chunk (3 is a partial register tile, 4 offline_quant's
// mean decode batch); includes the activation quantization the call runs.
void BM_NanoInt4Projection(benchmark::State& state) {
  const auto out_f = static_cast<std::size_t>(state.range(0));
  const auto in_f = static_cast<std::size_t>(state.range(1));
  const auto rows = static_cast<std::size_t>(state.range(2));
  const auto wm =
      quant::WeightMatrix::create(random_vec(out_f * in_f, 15), out_f, in_f, DType::kI4);
  const auto x = random_vec(rows * in_f, 16, 1.0f);
  std::vector<float> y(rows * out_f);
  quant::ActivationBatchInt8 act;
  for (auto _ : state) {
    wm.matmul(x, y, rows, act);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_NanoInt4Projection)
    ->ArgNames({"out", "in", "rows"})
    ->ArgsProduct({{448}, {128}, {1, 2, 3, 4, 8, 32}})
    ->ArgsProduct({{128}, {448}, {1, 2, 3, 4, 8, 32}});

// One Model::decode step of llama3-nano at int4 weights and int8 KV over
// `lanes` sequences of 160 cached tokens each, truncated back after every
// step so the context stays fixed: offline_quant's decode step. It runs as
// one forward whose projections and attention split over kernel_pool(),
// so OMP_NUM_THREADS matters.
void BM_DecodeStep(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kCached = 160;
  const TransformerConfig cfg = make_nano_config("llama3", 400);
  Model model(MasterWeights::init_random(cfg, 13), DType::kI4, KVStorage::kI8);
  KVCache cache(cfg, lanes, kCached + 1, model.kv_options());
  std::vector<std::size_t> seqs(lanes);
  std::vector<TokenId> tokens(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    const auto kv = random_vec(kCached * cfg.kv_dim(), 30 + b);
    for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append_many(l, b, kv, kv, kCached);
    cache.commit(b, kCached);
    seqs[b] = b;
    tokens[b] = static_cast<TokenId>(b * 7 % cfg.vocab);
  }
  std::vector<float> logits(lanes * cfg.vocab);
  InferenceWorkspace ws(cfg);
  for (auto _ : state) {
    model.decode(tokens, seqs, cache, logits, ws);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
    for (std::size_t b = 0; b < lanes; ++b) cache.truncate(b, kCached);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * lanes));
}
BENCHMARK(BM_DecodeStep)->ArgNames({"lanes"})->Arg(1)->Arg(4)->Arg(8);

// FP32 projections at llama3-nano's width-1 decode shapes (out x in): the
// Q/K/V group 192x128, wo 128x128, the gate/up group 896x128, down 128x448
// and the served lm_head 400x128. One row runs simd::dot_f32_rows' four-row
// tile at the native level; two rows run the multi-column kernel. Calls
// split over kernel_pool() as in a decode step, so OMP_NUM_THREADS matters.
void BM_NanoF32Projection(benchmark::State& state) {
  const auto out_f = static_cast<std::size_t>(state.range(0));
  const auto in_f = static_cast<std::size_t>(state.range(1));
  const auto rows = static_cast<std::size_t>(state.range(2));
  const auto wm =
      quant::WeightMatrix::create(random_vec(out_f * in_f, 17), out_f, in_f, DType::kF32);
  const auto x = random_vec(rows * in_f, 18, 1.0f);
  std::vector<float> y(rows * out_f);
  quant::ActivationBatchInt8 act;
  for (auto _ : state) {
    wm.matmul(x, y, rows, act);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_NanoF32Projection)
    ->ArgNames({"out", "in", "rows"})
    ->ArgsProduct({{192, 128, 896, 400}, {128}, {1, 2}})
    ->ArgsProduct({{128}, {448}, {1, 2}});

// One-sequence Model::forward of llama3-nano (max_seq 4096, fp32 weights)
// whose last row attends to `ctx` positions: a width-1 decode step or a
// 32-row prefill chunk, over fp32 or int8 KV. Attention re-reads the whole
// K/V prefix every step — the paper's Fig 2 sequence-length cost — so it
// dominates at long contexts. ctx 64 and 128 bracket the width-1 step's
// attention split (Model::kAttentionSplitWork): inline at 64, split at 128
// and above when the kernel pool has workers. Reported as the median and
// min-max of 5 repetitions.
void BM_AttentionForward(benchmark::State& state) {
  const auto ctx = static_cast<std::size_t>(state.range(0));
  const auto rows = static_cast<std::size_t>(state.range(1));
  const KVStorage storage = state.range(2) != 0 ? KVStorage::kI8 : KVStorage::kF32;
  TransformerConfig cfg = make_nano_config("llama3", 256);
  cfg.max_seq = 4096;
  Model model(MasterWeights::init_random(cfg, 13), DType::kF32, storage);
  // Cached positions hold random K/V: the step's cost depends on how many
  // there are, not on their values.
  const std::size_t cached = ctx - rows;
  KVCache cache(cfg, 1, ctx, storage);
  const auto kv = random_vec(cached * cfg.kv_dim(), 12);
  for (std::size_t l = 0; l < cfg.n_layers; ++l) cache.append_many(l, 0, kv, kv, cached);
  cache.commit(0, cached);
  std::vector<TokenId> tokens(rows);
  for (std::size_t i = 0; i < rows; ++i) tokens[i] = static_cast<TokenId>(i * 7 % cfg.vocab);
  InferenceWorkspace ws(cfg);
  const std::size_t seq = 0;
  for (auto _ : state) {
    model.forward(tokens, {&seq, 1}, cache, {}, ws);
    benchmark::DoNotOptimize(ws.x.data());
    benchmark::ClobberMemory();
    cache.truncate(0, cached);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
}
BENCHMARK(BM_AttentionForward)
    ->ArgNames({"ctx", "rows", "kv_i8"})
    ->ArgsProduct({{64, 128, 256, 1024, 4096}, {1, 32}, {0, 1}})
    ->Repetitions(5)
    ->ComputeStatistics("min",
                        [](const std::vector<double>& v) {
                          return *std::min_element(v.begin(), v.end());
                        })
    ->ComputeStatistics("max",
                        [](const std::vector<double>& v) {
                          return *std::max_element(v.begin(), v.end());
                        })
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Roofline tracker (--roofline-json).

struct RooflinePoint {
  std::string name;
  double bytes_per_iter = 0.0;  // weight + activation traffic per call
  double flops_per_iter = 0.0;
  double seconds_per_iter = 0.0;
};

// Times fn for ~min_time seconds and returns the best observed seconds/iter
// of three repeats (interference only ever slows a run down, so the fastest
// repeat is the estimate of what the kernel can do).
template <typename Fn>
double time_kernel(Fn&& fn, double min_time = 0.05) {
  fn();  // warm-up / first-touch
  Stopwatch watch;
  fn();
  double once = std::max(watch.elapsed_s(), 1e-9);
  const auto iters = static_cast<std::size_t>(std::max(1.0, min_time / once));
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    watch.reset();
    for (std::size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.elapsed_s() / static_cast<double>(iters));
  }
  return best;
}

// Per-shard partial sums of a kernel_pool() parallel_for, added in shard
// order.
template <class Fn>
double sum_over_shards(std::size_t n, Fn&& fn) {
  ThreadPool& pool = kernel_pool();
  std::vector<double> partial(pool.shard_count(), 0.0);
  pool.parallel_for(0, n, [&](std::size_t shard, std::size_t i) { partial[shard] += fn(i); });
  double sum = 0.0;
  for (double p : partial) sum += p;
  return sum;
}

// Peak FMA throughput: one register-resident probe chain per kernel_pool()
// thread; total FLOPs / wall time. Best of many short repeats.
double measure_peak_gflops() {
  const std::size_t iters = 1 << 21;
  double best = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    Stopwatch watch;
    const double flops = sum_over_shards(kernel_pool().shard_count(),
                                         [&](std::size_t) { return simd::fma_probe_flops(iters); });
    best = std::max(best, flops / watch.elapsed_s());
  }
  return best / 1e9;
}

// Peak streaming bandwidth: all threads stream chunks of two buffers far
// larger than the last-level cache through simd::dot_f32 (multiple
// independent accumulator chains — a plain scalar float sum is a latency
// chain that caps out far below memory bandwidth). Two distinct streams
// match the access pattern of the weight-streaming kernels.
double measure_peak_gbps() {
  const std::size_t n = 16u << 20;  // 2 x 64 MiB of floats
  std::vector<float> a(n, 1.0f), b(n, 1.0f);
  const std::size_t chunks = 64;
  const std::size_t chunk = n / chunks;
  double best = 0.0;
  volatile float sink = 0.0f;
  // Many short passes: on shared hosts the best-of statistic needs enough
  // samples to dodge steal time, like time_kernel's repeats do.
  for (int rep = 0; rep < 10; ++rep) {
    Stopwatch watch;
    const double sum = sum_over_shards(chunks, [&](std::size_t c) {
      return simd::dot_f32(a.data() + c * chunk, b.data() + c * chunk, chunk);
    });
    best = std::max(best, 2.0 * static_cast<double>(n) * sizeof(float) / watch.elapsed_s());
    sink = sink + static_cast<float>(sum);
  }
  (void)sink;
  return best / 1e9;
}

int run_roofline(const std::string& json_path) {
  const simd::Level level = simd::init();
  const double peak_gbps = measure_peak_gbps();
  const double peak_gflops = measure_peak_gflops();

  // 4096x4096 so even the INT4 storage (~8 MiB) streams past the LLC —
  // cache-resident weights would report GB/s above the DRAM roof.
  const std::size_t out_f = 4096, in_f = 4096, lanes = 8;
  auto w = random_vec(out_f * in_f, 6);
  auto x = random_vec(lanes * in_f, 7, 1.0f);
  std::vector<float> y(lanes * out_f);
  const std::span<const float> x1(x.data(), in_f);
  const std::span<float> y1(y.data(), out_f);

  std::vector<RooflinePoint> points;
  const DType dts[] = {DType::kF32, DType::kF16, DType::kI8, DType::kI4};
  for (DType dt : dts) {
    const auto wm = quant::WeightMatrix::create(w, out_f, in_f, dt);
    // Traffic = quantized weights (streamed once per call) + activations in
    // and out; FLOPs counted at the fp32-equivalent 2*out*in per lane.
    const double wbytes = static_cast<double>(wm.storage_bytes());
    RooflinePoint single;
    single.name = "matvec_" + dtype_name(dt);
    single.bytes_per_iter = wbytes + (in_f + out_f) * sizeof(float);
    single.flops_per_iter = 2.0 * static_cast<double>(out_f) * static_cast<double>(in_f);
    quant::ActivationBatchInt8 act;
    single.seconds_per_iter = time_kernel([&] { wm.matmul(x1, y1, 1, act); });
    points.push_back(single);

    RooflinePoint multi;
    multi.name = "matvec_multi8_" + dtype_name(dt);
    multi.bytes_per_iter = wbytes + lanes * (in_f + out_f) * sizeof(float);
    multi.flops_per_iter = single.flops_per_iter * static_cast<double>(lanes);
    multi.seconds_per_iter = time_kernel([&] { wm.matmul(x, y, lanes, act); });
    points.push_back(multi);
  }
  {
    RooflinePoint dot;
    dot.name = "dot_f32";
    const std::size_t n = 1u << 24;  // 2 x 64 MiB streams: DRAM, not cache
    auto a = random_vec(n, 10);
    auto b = random_vec(n, 11);
    dot.bytes_per_iter = 2.0 * n * sizeof(float);
    dot.flops_per_iter = 2.0 * n;
    volatile float sink = 0.0f;
    dot.seconds_per_iter =
        time_kernel([&] { sink = sink + simd::dot_f32(a.data(), b.data(), n); });
    points.push_back(dot);
  }

  std::printf("== Kernel roofline: %s kernels, peak %.1f GFLOP/s, %.1f GB/s ==\n",
              simd::level_name(level), peak_gflops, peak_gbps);
  std::printf("| %-18s | %9s | %9s | %6s | %9s | %6s | %s |\n", "Kernel", "GB/s",
              "GFLOP/s", "AI", "Roof GF/s", "% roof", "Bound");
  std::printf("|--------------------|-----------|-----------|--------|-----------|--------|---------|\n");
  std::string json = "{\n  \"machine\": {\"kernels\": \"";
  json += simd::level_name(level);
  json += "\", \"peak_gflops\": " + std::to_string(peak_gflops);
  json += ", \"peak_gbps\": " + std::to_string(peak_gbps) + "},\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const RooflinePoint& p = points[i];
    const double gbps = p.bytes_per_iter / p.seconds_per_iter / 1e9;
    const double gflops = p.flops_per_iter / p.seconds_per_iter / 1e9;
    const double ai = p.flops_per_iter / p.bytes_per_iter;
    const double roof = std::min(peak_gflops, ai * peak_gbps);
    const double pct = 100.0 * gflops / roof;
    const char* bound = ai * peak_gbps < peak_gflops ? "memory" : "compute";
    std::printf("| %-18s | %9.2f | %9.2f | %6.2f | %9.2f | %5.1f%% | %-7s |\n",
                p.name.c_str(), gbps, gflops, ai, roof, pct, bound);
    json += "    {\"name\": \"" + p.name + "\"";
    json += ", \"bytes_per_iter\": " + std::to_string(p.bytes_per_iter);
    json += ", \"flops_per_iter\": " + std::to_string(p.flops_per_iter);
    json += ", \"seconds_per_iter\": " + std::to_string(p.seconds_per_iter);
    json += ", \"gbps\": " + std::to_string(gbps);
    json += ", \"gflops\": " + std::to_string(gflops);
    json += ", \"arithmetic_intensity\": " + std::to_string(ai);
    json += ", \"roof_gflops\": " + std::to_string(roof);
    json += ", \"pct_of_roof\": " + std::to_string(pct);
    json += std::string(", \"bound\": \"") + bound + "\"}";
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::printf("\nRoof = min(peak FLOP/s, AI x peak GB/s); %% roof is the measured\n");
  std::printf("fraction of that ceiling. Weight-streaming matvecs sit on the memory\n");
  std::printf("slope; FLOPs are counted fp32-equivalent, so INT8/INT4 maddubs\n");
  std::printf("kernels can legitimately land near or above the fp32 FMA roof.\n");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nroofline JSON written to %s\n", json_path.c_str());
  } else {
    std::printf("\n%s", json.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("roofline-json")) {
    // Bare `--roofline-json` (CliArgs stores "true") prints JSON to stdout.
    std::string path = args.get("roofline-json", "");
    if (path == "true") path.clear();
    return run_roofline(path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
