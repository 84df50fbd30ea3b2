#include "driver/stack.h"

#include "model/config.h"
#include "workload/corpus.h"

namespace perfbench {

orinsim::Tokenizer serving_tokenizer() {
  const orinsim::workload::Corpus corpus =
      orinsim::workload::generate_corpus(orinsim::workload::CorpusSpec::wikitext2());
  return orinsim::Tokenizer::train(corpus.text, kVocabWords);
}

StackSpec served_spec() {
  StackSpec spec;
  spec.dtype = orinsim::DType::kF32;
  spec.backend.max_lanes = 4;
  spec.backend.kv_blocks = 0;
  spec.backend.block_tokens = orinsim::kDefaultKVBlockTokens;
  spec.backend.power_proxy_model = "llama3";
  spec.backend.prefix_cache = true;
  spec.backend.prefix_cache_blocks = 0;
  return spec;
}

Stack build_stack(const orinsim::Tokenizer& tokenizer, const StackSpec& spec) {
  Stack stack;
  const orinsim::TransformerConfig config =
      orinsim::make_nano_config(kModelFamily, tokenizer.vocab_size());
  stack.master = orinsim::MasterWeights::init_random(config, kWeightSeed);
  stack.model = std::make_unique<orinsim::Model>(stack.master, spec.dtype);
  stack.max_seq = config.max_seq;
  if (spec.decode_workers > 0) {
    stack.pool = std::make_unique<orinsim::ThreadPool>(spec.decode_workers);
  }
  orinsim::serving::FunctionalTokenBackend::Config bc = spec.backend;
  if (bc.max_seq == 0) bc.max_seq = stack.max_seq;
  stack.backend = std::make_unique<orinsim::serving::FunctionalTokenBackend>(
      *stack.model, bc, stack.pool.get());
  return stack;
}

}  // namespace perfbench
