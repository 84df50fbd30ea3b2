// Extension study: speculative decoding on the edge.
//
// Part 1 (functional): serve one request through the continuous engine with
// the FP16 target's own weights quantized to INT4 and to INT8 as the draft
// (FunctionalTokenBackend + SpeculationConfig), measure the real acceptance
// rates, and check the output equals the target's plain greedy decode. Part 1
// runs under scalar kernels, where the speculative contract is bit-exact;
// the binary exits non-zero if any output differs.
// Part 2 (simulated): feed acceptance rates into the Orin AGX roofline to
// estimate end-to-end decode speedups for paper-scale pairs (Phi-2 drafting
// for Llama-3.1-8B / Mistral-24B), across K and acceptance.
#include <cstdio>

#include "core/cli.h"
#include "core/table.h"
#include "core/units.h"
#include "serving/engine.h"
#include "sim/speculative_sim.h"
#include "tensor/simd.h"
#include "tokenizer/tokenizer.h"
#include "train/readout_trainer.h"
#include "workload/corpus.h"

using namespace orinsim;
using namespace orinsim::sim;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool csv = args.get_bool("csv", false);

  std::printf("== Part 1: measured acceptance rates (functional nano models) ==\n");
  const simd::Level prev_level = simd::active_level();
  simd::set_level(simd::Level::kScalar);
  const workload::Corpus corpus =
      workload::generate_corpus(workload::CorpusSpec::wikitext2());
  const Tokenizer tokenizer = Tokenizer::train(corpus.text, 600);
  const auto tokens = tokenizer.encode(corpus.text);
  auto master =
      MasterWeights::init_random(make_nano_config("llama3", tokenizer.vocab_size()), 55);
  train::TrainConfig tc;
  tc.epochs = 4;
  tc.max_tokens = 10000;
  train::train_readout(*master, tokens, tc);

  Model target(master, DType::kF16);
  const std::vector<TokenId> prompt(tokens.begin() + 500, tokens.begin() + 532);
  const std::size_t new_tokens = 48;

  Table acc_table({"Draft", "K", "Acceptance", "Tokens/round", "Output == greedy"});
  struct DraftCase {
    const char* label;
    DType dtype;
  };
  const DraftCase drafts[] = {
      {"same weights, INT4", DType::kI4},
      {"same weights, INT8", DType::kI8},
  };
  const auto reference = target.generate({prompt}, new_tokens);
  bool all_greedy = true;
  for (const auto& d : drafts) {
    Model draft(master, d.dtype);
    serving::FunctionalTokenBackend::Config bc;
    bc.max_lanes = 1;
    bc.max_seq = prompt.size() + new_tokens;
    bc.speculation.enabled = true;
    bc.speculation.draft_tokens = 4;
    serving::FunctionalTokenBackend backend(target, bc, nullptr, &draft);
    std::vector<serving::Request> request(1);
    request[0].prompt = prompt;
    request[0].prompt_tokens = prompt.size();
    request[0].max_new_tokens = new_tokens;
    const serving::Request served =
        serving::ContinuousPolicy(backend).run(std::move(request)).requests[0];
    const bool greedy = served.output == reference.outputs[0];
    all_greedy = all_greedy && greedy;
    acc_table.new_row()
        .add_cell(d.label)
        .add_cell("4")
        .add_cell(format_double(served.spec.acceptance_rate() * 100.0, 1) + "%")
        .add_number(served.spec.tokens_per_round(), 2)
        .add_cell(greedy ? "yes" : "NO");
  }
  simd::set_level(prev_level);
  std::fputs((csv ? acc_table.to_csv() : acc_table.to_markdown()).c_str(), stdout);

  std::printf("\n== Part 2: simulated Orin AGX speedups (Phi-2 drafting) ==\n");
  Table sim_table({"Target", "Draft", "K", "Acceptance", "Tokens/round", "Draft share",
                   "Speedup"});
  const ModelSpec& phi2 = model_by_key("phi2");
  for (const char* target_key : {"llama3", "mistral"}) {
    const ModelSpec& t = model_by_key(target_key);
    for (std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      for (double a : {0.6, 0.8, 0.9}) {
        const SpeculativeEstimate e =
            estimate_speculative_speedup(t, DType::kF16, phi2, DType::kF16, k, a);
        sim_table.new_row()
            .add_cell(t.display)
            .add_cell("MS-Phi2")
            .add_cell(std::to_string(k))
            .add_cell(format_double(a * 100, 0) + "%")
            .add_number(e.tokens_per_round, 2)
            .add_cell(format_double(e.draft_share * 100, 0) + "%")
            .add_cell("x" + format_double(e.speedup, 2));
      }
    }
  }
  std::fputs((csv ? sim_table.to_csv() : sim_table.to_markdown()).c_str(), stdout);
  std::printf("\nReading: weight-bound decode makes verification nearly free — the cost\n");
  std::printf("of a round is dominated by *drafting*. Phi-2 is a poor draft for\n");
  std::printf("Llama-8B (only a 2.9x weight gap, and Phi-2's own decode is bandwidth-\n");
  std::printf("inefficient): barely break-even. Under Mistral-24B the same draft\n");
  std::printf("delivers up to ~2.2x at 90%% acceptance. Rule of thumb on this device:\n");
  std::printf("speculative decoding pays when the draft streams <1/5 of the target's\n");
  std::printf("weights per step.\n");
  if (!all_greedy) {
    std::printf("ERROR: speculative output differs from plain greedy decoding\n");
    return 1;
  }
  return 0;
}
