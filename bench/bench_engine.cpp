// google-benchmark over the functional engine: prefill and decode throughput
// of the nano paper architectures across storage precisions. The relative
// numbers mirror the paper's qualitative finding that quantized decoding is
// slower per token despite touching fewer weight bytes.
#include <benchmark/benchmark.h>

#include <map>

#include "model/transformer.h"

namespace {

using namespace orinsim;

std::shared_ptr<MasterWeights> shared_master(const std::string& family) {
  static std::map<std::string, std::shared_ptr<MasterWeights>> cache;
  auto it = cache.find(family);
  if (it == cache.end()) {
    auto config = make_nano_config(family, 512);
    it = cache.emplace(family, MasterWeights::init_random(config, 77)).first;
  }
  return it->second;
}

void BM_Decode(benchmark::State& state) {
  const auto dt = static_cast<DType>(state.range(0));
  auto master = shared_master("llama3");
  Model model(master, dt);
  const TransformerConfig& cfg = model.config();
  KVCache cache(cfg, 1, cfg.max_seq);
  InferenceWorkspace ws(cfg);
  const std::size_t seq = 0;
  TokenId token = 5;
  std::size_t produced = 0;
  for (auto _ : state) {
    if (cache.seq_len(0) + 1 >= cfg.max_seq) {
      state.PauseTiming();
      cache.reset();
      state.ResumeTiming();
    }
    model.forward({&token, 1}, {&seq, 1}, cache, ws.hidden, ws);
    token = static_cast<TokenId>((token * 31 + 7) % cfg.vocab);
    ++produced;
  }
  state.SetLabel(dtype_name(dt));
  state.SetItemsProcessed(static_cast<int64_t>(produced));
}
BENCHMARK(BM_Decode)
    ->Arg(static_cast<int>(DType::kF32))
    ->Arg(static_cast<int>(DType::kF16))
    ->Arg(static_cast<int>(DType::kI8))
    ->Arg(static_cast<int>(DType::kI4));

void BM_PrefillBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto master = shared_master("llama3");
  Model model(master, DType::kF16);
  const TransformerConfig& cfg = model.config();
  const std::vector<TokenId> prompt(32, 9);
  for (auto _ : state) {
    KVCache cache(cfg, batch, 64);
    std::vector<float> hidden(cfg.d_model);
    for (std::size_t b = 0; b < batch; ++b) model.prefill(prompt, b, cache, hidden);
    benchmark::DoNotOptimize(hidden.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch * prompt.size()));
}
BENCHMARK(BM_PrefillBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_FamilyDecode(benchmark::State& state) {
  static const char* kFamilies[] = {"phi2", "llama3", "mistral", "deepseek-qwen"};
  const char* family = kFamilies[state.range(0)];
  auto master = shared_master(family);
  Model model(master, DType::kF16);
  const TransformerConfig& cfg = model.config();
  KVCache cache(cfg, 1, cfg.max_seq);
  InferenceWorkspace ws(cfg);
  const std::size_t seq = 0;
  TokenId token = 3;
  for (auto _ : state) {
    if (cache.seq_len(0) + 1 >= cfg.max_seq) {
      state.PauseTiming();
      cache.reset();
      state.ResumeTiming();
    }
    model.forward({&token, 1}, {&seq, 1}, cache, ws.hidden, ws);
    token = static_cast<TokenId>((token * 17 + 11) % cfg.vocab);
  }
  state.SetLabel(family);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FamilyDecode)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
