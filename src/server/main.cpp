// orinsim_serve: streaming HTTP serving daemon over the request-lifecycle
// engine. Runs the functional nano engine (real greedy decode over a paged
// KV cache) behind an OpenAI-style completions API with SSE streaming,
// Prometheus metrics, queue-cap backpressure, and graceful drain on
// SIGTERM/SIGINT. The flags are in kUsage below, which --help prints; any
// other flag exits with CliArgs::kUsageExitCode.
//
// --speculative serves through draft/verify rounds: a draft model (the same
// master quantized to --draft-dtype) proposes --draft-tokens tokens per
// round and the target verifies them in one chunked pass. Greedy output is
// unchanged, so --offline prints the identical completion with or without
// the flag (under scalar kernels, bit-for-bit).
//
// Offline reference mode (no HTTP) prints the completion for one prompt
// using the identical model/backend construction, so the SSE token stream
// for the same prompt can be checked for bit-identity against it.
#include <cstdio>
#include <memory>
#include <string>

#include "core/cli.h"
#include "model/config.h"
#include "server/engine_host.h"
#include "server/server.h"
#include "serving/engine.h"
#include "tensor/dtype.h"
#include "tokenizer/tokenizer.h"
#include "workload/corpus.h"

using namespace orinsim;
using namespace orinsim::server;

namespace {

constexpr const char* kUsage = R"(usage: orinsim_serve [--port=8080] [--host=127.0.0.1]
                     [--model=llama3] [--seed=7] [--vocab-words=400]
                     [--max-concurrency=4] [--kv-blocks=0] [--block-tokens=16]
                     [--queue-cap=32] [--max-tokens-cap=256]
                     [--prefix-cache] [--prefix-cache-blocks=0]
                     [--speculative] [--draft-tokens=4] [--draft-dtype=i8]
                     [--power-proxy-model=] [--power-cap-w=0] [--thermal]
                     [--max-connections=64]
       orinsim_serve --offline --prompt="..." [--max-tokens=16] [flags...]
Boolean flags also take --no-<flag>. Prefill waves run serially; each
decode step runs on the kernel pool (OMP_NUM_THREADS threads).
)";

// Everything deterministic about the serving stack in one place: the same
// flags always build the same tokenizer, weights, and backend, which is
// what makes the --offline output comparable bit-for-bit with the daemon's
// SSE stream.
struct ServingStack {
  Tokenizer tokenizer;
  std::shared_ptr<const MasterWeights> master;
  std::unique_ptr<Model> model;
  std::unique_ptr<Model> draft;  // --speculative only (same master, draft dtype)
  std::unique_ptr<serving::FunctionalTokenBackend> backend;
  std::size_t max_seq = 0;
};

ServingStack build_stack(const CliArgs& args) {
  ServingStack stack;
  const workload::Corpus corpus =
      workload::generate_corpus(workload::CorpusSpec::wikitext2());
  stack.tokenizer = Tokenizer::train(
      corpus.text, static_cast<std::size_t>(args.get_int("vocab-words", 400)));
  const TransformerConfig config = make_nano_config(
      args.get("model", "llama3"), stack.tokenizer.vocab_size());
  stack.master = MasterWeights::init_random(
      config, static_cast<std::uint64_t>(args.get_int("seed", 7)));
  stack.model = std::make_unique<Model>(stack.master, DType::kF32);
  stack.max_seq = config.max_seq;

  serving::FunctionalTokenBackend::Config bc;
  bc.max_lanes = static_cast<std::size_t>(args.get_int("max-concurrency", 4));
  bc.max_seq = stack.max_seq;
  bc.kv_blocks = static_cast<std::size_t>(args.get_int("kv-blocks", 0));
  bc.block_tokens = static_cast<std::size_t>(
      args.get_int("block-tokens", static_cast<long long>(kDefaultKVBlockTokens)));
  bc.power_proxy_model = args.get("power-proxy-model", "");
  bc.prefix_cache = args.get_bool("prefix-cache", false);
  bc.prefix_cache_blocks =
      static_cast<std::size_t>(args.get_int("prefix-cache-blocks", 0));
  bc.speculation.enabled = args.get_bool("speculative", false);
  bc.speculation.draft_tokens =
      static_cast<std::size_t>(args.get_int("draft-tokens", 4));
  bc.speculation.draft_dtype = parse_dtype(args.get("draft-dtype", "i8"));
  if (bc.speculation.enabled) {
    // Self-draft pairing: the draft shares the target's master weights,
    // quantized down, so the two models agree often enough to accept.
    stack.draft =
        std::make_unique<Model>(stack.master, bc.speculation.draft_dtype);
  }
  stack.backend = std::make_unique<serving::FunctionalTokenBackend>(
      *stack.model, bc, nullptr, stack.draft.get());
  return stack;
}

serving::GovernorConfig governor_from(const CliArgs& args) {
  serving::GovernorConfig governor;
  governor.power_cap_w = args.get_double("power-cap-w", 0.0);
  governor.thermal_enabled = args.get_bool("thermal", false);
  return governor;
}

// Offline reference: run the prompt through the steppable engine in
// offline (virtual clock) mode and print the completion text — the exact
// concatenation a client would receive over SSE.
int run_offline(const CliArgs& args) {
  const std::string prompt = args.get("prompt", "");
  if (prompt.empty()) {
    std::fprintf(stderr, "--offline requires --prompt\n");
    return 1;
  }
  const std::size_t max_tokens =
      static_cast<std::size_t>(args.get_int("max-tokens", 16));
  ServingStack stack = build_stack(args);

  serving::Request req;
  req.prompt = stack.tokenizer.encode(prompt);
  if (req.prompt.empty() || req.prompt.size() + max_tokens > stack.max_seq) {
    std::fprintf(stderr, "prompt does not fit the model context\n");
    return 1;
  }
  req.prompt_tokens = req.prompt.size();
  req.max_new_tokens = max_tokens;

  std::string text;
  serving::StreamCallbacks callbacks;
  callbacks.on_token = [&](const serving::Request&, TokenId token) {
    text += stack.tokenizer.token_text(token);
  };
  serving::ContinuousEngine engine(*stack.backend, governor_from(args));
  engine.submit(std::move(req), std::move(callbacks));
  while (engine.step() == serving::ContinuousEngine::Step::kWorked) {
  }
  engine.finish();
  std::printf("%s\n", text.c_str());
  return 0;
}

int run_server(const CliArgs& args) {
  ServingStack stack = build_stack(args);

  EngineHost::Config host_config;
  host_config.queue_cap = static_cast<std::size_t>(args.get_int("queue-cap", 32));
  host_config.max_new_tokens_cap =
      static_cast<std::size_t>(args.get_int("max-tokens-cap", 256));
  host_config.governor = governor_from(args);
  EngineHost host(*stack.backend, stack.tokenizer, stack.max_seq, host_config);

  ServerConfig server_config;
  server_config.bind_address = args.get("host", "127.0.0.1");
  server_config.port = static_cast<std::uint16_t>(args.get_int("port", 8080));
  server_config.model_name = args.get("model", "llama3") + "-nano";
  server_config.max_connections =
      static_cast<std::size_t>(args.get_int("max-connections", 64));
  Server server(host, server_config);

  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "orinsim_serve: %s\n", error.c_str());
    return 1;
  }
  // The port line is machine-readable on purpose: scripts bind port 0 and
  // scrape the actual port from here.
  std::printf("orinsim_serve listening on %s:%u\n",
              server_config.bind_address.c_str(), server.port());
  std::fflush(stdout);

  server.run_until_signal();
  std::printf("orinsim_serve drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  args.require_known({"port", "host", "model", "seed", "vocab-words", "max-concurrency",
                      "kv-blocks", "block-tokens", "queue-cap", "max-tokens-cap",
                      "prefix-cache-blocks", "draft-tokens", "draft-dtype", "power-proxy-model",
                      "power-cap-w", "max-connections", "prompt", "max-tokens"},
                     {"help", "offline", "prefix-cache", "speculative", "thermal"});
  if (args.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (args.get_bool("offline", false)) return run_offline(args);
  return run_server(args);
}
