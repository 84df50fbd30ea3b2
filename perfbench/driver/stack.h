// The model stacks the benchmark measures, built in-process.
//
// ServedStack mirrors orinsim_serve's build_stack for the benchmark's fixed
// flags (--max-concurrency=4 --prefix-cache --power-proxy-model=llama3 and
// every other flag at its default): the same tokenizer, seed-7 fp32
// nano-llama3 weights, full KV pool and serial decode. The traced run and
// the correctness reference both run on it, and the reference is checked
// against the binary's streamed text, so a drift between this copy and the
// binary fails the run instead of going unnoticed.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/thread_pool.h"
#include "model/transformer.h"
#include "serving/engine.h"
#include "tokenizer/tokenizer.h"

namespace perfbench {

// orinsim_serve's defaults for the flags the benchmark does not pass.
inline constexpr const char* kModelFamily = "llama3";
inline constexpr std::uint64_t kWeightSeed = 7;
inline constexpr std::size_t kVocabWords = 400;

// The daemon's tokenizer: trained on the WikiText-2-style corpus.
orinsim::Tokenizer serving_tokenizer();

struct StackSpec {
  orinsim::DType dtype = orinsim::DType::kF32;
  orinsim::serving::FunctionalTokenBackend::Config backend;
  std::size_t decode_workers = 0;  // 0: serial decode
};

// The served stack: orinsim_serve --max-concurrency=4 --prefix-cache
// --power-proxy-model=llama3.
StackSpec served_spec();

// Weights, model, optional decode pool and backend for one spec. Members
// are declared in dependency order, so destruction runs backend first;
// release() tears down in the same order (move-assignment would not).
struct Stack {
  std::shared_ptr<const orinsim::MasterWeights> master;
  std::unique_ptr<orinsim::Model> model;
  std::unique_ptr<orinsim::ThreadPool> pool;
  std::unique_ptr<orinsim::serving::FunctionalTokenBackend> backend;
  std::size_t max_seq = 0;

  void release() {
    backend.reset();
    pool.reset();
    model.reset();
    master.reset();
  }
};

// Weight init + quantization to spec.dtype + backend construction.
Stack build_stack(const orinsim::Tokenizer& tokenizer, const StackSpec& spec);

}  // namespace perfbench
