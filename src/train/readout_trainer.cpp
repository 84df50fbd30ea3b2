#include "train/readout_trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.h"
#include "core/logging.h"
#include "core/thread_pool.h"
#include "core/rng.h"
#include "tensor/kernels.h"

namespace orinsim::train {

namespace {

// Extract final-hidden features for each position in the stream. Position i's
// feature predicts token i+1. The cache is reset every `window` tokens, so
// features near a window start have short context — same as strided
// perplexity evaluation, and harmless for training.
void extract_features(Model& model, std::span<const TokenId> tokens, std::size_t window,
                      std::vector<float>& features /* [n, d] */) {
  const std::size_t d = model.config().d_model;
  const std::size_t n = tokens.size();
  features.assign(n * d, 0.0f);
  InferenceWorkspace ws(model.config());
  const std::size_t seq = 0;
  for (std::size_t start = 0; start < n; start += window) {
    const std::size_t end = std::min(start + window, n);
    KVCache cache(model.config(), 1, end - start);
    for (std::size_t i = start; i < end; ++i) {
      model.forward(tokens.subspan(i, 1), {&seq, 1}, cache,
                    std::span<float>(features).subspan(i * d, d), ws);
    }
  }
}

}  // namespace

TrainReport train_readout(MasterWeights& master, const std::vector<TokenId>& tokens,
                          const TrainConfig& config) {
  ORINSIM_CHECK(tokens.size() >= 64, "train_readout: need at least 64 tokens");
  const TransformerConfig& mc = master.config;
  const std::size_t d = mc.d_model;
  const std::size_t vocab = mc.vocab;

  std::vector<TokenId> stream(tokens.begin(),
                              tokens.begin() + std::min(tokens.size(), config.max_tokens));
  for (TokenId t : stream) ORINSIM_CHECK(t < vocab, "training token out of vocab");

  // Features from the FP32 body (aliasing shared_ptr: master outlives model).
  Model fp32_model(std::shared_ptr<const MasterWeights>(&master, [](const MasterWeights*) {}),
                   DType::kF32);
  std::vector<float> features;
  const std::size_t window = std::min(config.context_window, mc.max_seq);
  extract_features(fp32_model, stream, window, features);

  // Training pairs: feature[i] -> target stream[i+1].
  const std::size_t n_pairs = stream.size() - 1;
  std::vector<std::size_t> order(n_pairs);
  std::iota(order.begin(), order.end(), 0);

  // Adam state over lm_head [vocab, d].
  std::vector<float>& w = master.lm_head;
  ORINSIM_CHECK(w.size() == vocab * d, "lm_head shape mismatch");
  std::vector<float> m(w.size(), 0.0f), v(w.size(), 0.0f);
  std::vector<float> grad(w.size(), 0.0f);
  // Per-minibatch rows: gathered features [mb, d], and logits [mb, vocab]
  // that become dL/dlogit = softmax(logits) - onehot(target) in place.
  std::vector<float> mb_features(config.minibatch * d);
  std::vector<float> probs(config.minibatch * vocab);

  Rng rng(config.seed);
  TrainReport report;
  report.train_tokens = n_pairs;
  std::size_t adam_t = 0;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Fisher-Yates shuffle of the pair order.
    for (std::size_t i = n_pairs; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    double epoch_loss = 0.0;
    std::size_t seen = 0;

    for (std::size_t base = 0; base < n_pairs; base += config.minibatch) {
      const std::size_t mb = std::min(config.minibatch, n_pairs - base);

      for (std::size_t j = 0; j < mb; ++j) {
        std::copy_n(features.data() + order[base + j] * d, d, mb_features.data() + j * d);
      }
      // Lane j's logits are bit-identical to a matvec over its feature.
      kernels::matvec_multi(w, std::span<const float>(mb_features.data(), mb * d),
                            std::span<float>(probs.data(), mb * vocab), vocab, d, mb);
      for (std::size_t j = 0; j < mb; ++j) {
        const std::span<float> pj(probs.data() + j * vocab, vocab);
        const TokenId target = stream[order[base + j] + 1];
        const double lse = kernels::logsumexp(pj);
        epoch_loss += lse - pj[target];
        ++seen;
        for (float& p : pj) p = static_cast<float>(std::exp(static_cast<double>(p) - lse));
        pj[target] -= 1.0f;
      }
      // One region per minibatch, split over vocab rows: each row
      // accumulates the minibatch in order, so every gradient element sums
      // in the same order as a per-token pass, whatever the split.
      kernel_pool().parallel_rows(vocab, 1, [&](std::size_t c0, std::size_t c1) {
        for (std::size_t c = c0; c < c1; ++c) {
          float* gc = grad.data() + c * d;
          std::fill(gc, gc + d, 0.0f);
          for (std::size_t j = 0; j < mb; ++j) {
            const float p = probs[j * vocab + c];
            if (p == 0.0f) continue;
            const float* h = mb_features.data() + j * d;
            for (std::size_t k = 0; k < d; ++k) gc[k] += p * h[k];
          }
        }
      });

      // Adam step (bias-corrected), batch-mean gradient + decoupled decay.
      ++adam_t;
      const float inv_mb = 1.0f / static_cast<float>(mb);
      const float bc1 = 1.0f - std::pow(config.beta1, static_cast<float>(adam_t));
      const float bc2 = 1.0f - std::pow(config.beta2, static_cast<float>(adam_t));
      kernel_pool().parallel_rows(w.size(), 1, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float g = grad[i] * inv_mb;
          m[i] = config.beta1 * m[i] + (1.0f - config.beta1) * g;
          v[i] = config.beta2 * v[i] + (1.0f - config.beta2) * g * g;
          const float mhat = m[i] / bc1;
          const float vhat = v[i] / bc2;
          w[i] -= config.learning_rate *
                  (mhat / (std::sqrt(vhat) + config.epsilon) + config.weight_decay * w[i]);
        }
      });
    }

    report.epoch_loss.push_back(epoch_loss / static_cast<double>(seen));
    if (epoch == 0) report.initial_loss = report.epoch_loss.front();
    LOG_DEBUG << "readout epoch " << epoch << " loss " << report.epoch_loss.back();
  }
  report.final_loss = report.epoch_loss.back();
  return report;
}

double unigram_cross_entropy(const std::vector<TokenId>& tokens, std::size_t vocab) {
  ORINSIM_CHECK(!tokens.empty(), "unigram_cross_entropy: empty stream");
  std::vector<double> counts(vocab, 1.0);  // Laplace smoothing
  for (TokenId t : tokens) {
    ORINSIM_CHECK(t < vocab, "token out of vocab");
    counts[t] += 1.0;
  }
  const double total = std::accumulate(counts.begin(), counts.end(), 0.0);
  double ce = 0.0;
  for (TokenId t : tokens) ce -= std::log(counts[t] / total);
  return ce / static_cast<double>(tokens.size());
}

}  // namespace orinsim::train
