#include "sim/memory_model.h"

namespace orinsim::sim {

MemoryBreakdown MemoryModel::workload_memory(const ModelSpec& m, DType dt,
                                             std::size_t batch, std::size_t in_tokens,
                                             std::size_t out_tokens,
                                             bool kv_cache_int8) const {
  MemoryBreakdown mem;
  const double bs = static_cast<double>(batch);
  const double seq = static_cast<double>(in_tokens + out_tokens);

  mem.weights_gb = m.weight_gb(dt);
  mem.kv_gb = bs * seq * m.kv_bytes_per_token(kv_cache_int8) / 1e9;
  mem.attn_quad_gb = bs * static_cast<double>(m.n_heads) * seq * seq * 4.0 /*fp32*/ *
                     2.0 /*scores + probs*/ * m.attn_quad_layers / 1e9;
  mem.logits_gb = bs * static_cast<double>(m.vocab) * 4.0 * 2.0 / 1e9;
  mem.act_gb = bs * m.act_mb_per_seq / 1e3;
  mem.fixed_gb = m.fixed_overhead_gb;
  return mem;
}

bool MemoryModel::model_oom(const ModelSpec& m, DType dt) const {
  return m.weight_gb(dt) > usable_gb();
}

bool MemoryModel::workload_oom(const MemoryBreakdown& mem) const {
  return mem.total_gb() > usable_gb();
}

bool MemoryModel::workload_fits(const ModelSpec& m, DType dt, std::size_t batch,
                                std::size_t in_tokens, std::size_t out_tokens) const {
  return !model_oom(m, dt) &&
         !workload_oom(workload_memory(m, dt, batch, in_tokens, out_tokens));
}

}  // namespace orinsim::sim
