// Shared-RAM memory model for the Orin AGX (64GB CPU+GPU unified memory).
//
// Total footprint of a workload = model weights (Table 1 anchors) +
// incremental components the paper's "incremental peak memory" metric
// captures:
//
//   kv_gb        : KV cache, fp16, batch * seq_total * kv_bytes/token
//   attn_quad_gb : materialized attention score/probability tensors,
//                  batch * heads * seq^2 * fp32 * 2 * attn_quad_layers.
//                  Phi-2's eager attention keeps these for many layers,
//                  which is what drives its OOM at bs=32, sl>=512 with only
//                  a 5.6 GB model (Table 6); SDPA-based models keep ~1.
//   logits_gb    : fp32 logits (+ one working copy) for the batch
//   act_gb       : per-sequence activation workspace (incl. LLM.int8()'s
//                  fp16 activation copies for INT8 models)
//   fixed_gb     : allocator / CUDA workspace growth at workload start
//
// OOM when weights + incremental exceed usable RAM (64GB minus the OS/
// desktop/CUDA baseline).
#pragma once

#include <cstddef>

#include "sim/device.h"
#include "sim/model_catalog.h"
#include "tensor/dtype.h"

namespace orinsim::sim {

struct MemoryBreakdown {
  double weights_gb = 0.0;
  double kv_gb = 0.0;
  double attn_quad_gb = 0.0;
  double logits_gb = 0.0;
  double act_gb = 0.0;
  double fixed_gb = 0.0;

  double incremental_gb() const {
    return kv_gb + attn_quad_gb + logits_gb + act_gb + fixed_gb;
  }
  double total_gb() const { return weights_gb + incremental_gb(); }
};

class MemoryModel {
 public:
  explicit MemoryModel(const DeviceSpec& device = orin_agx_64gb()) : device_(device) {}

  MemoryBreakdown workload_memory(const ModelSpec& m, DType dt, std::size_t batch,
                                  std::size_t in_tokens, std::size_t out_tokens,
                                  bool kv_cache_int8 = false) const;

  // True if just loading the model weights exceeds usable RAM.
  bool model_oom(const ModelSpec& m, DType dt) const;

  // True if the workload (weights + incremental) exceeds usable RAM.
  bool workload_oom(const MemoryBreakdown& mem) const;

  // The serving memory gate: the weights load and `batch` sequences of
  // in_tokens + out_tokens fit beside them (neither OOM above).
  bool workload_fits(const ModelSpec& m, DType dt, std::size_t batch,
                     std::size_t in_tokens, std::size_t out_tokens) const;

  double usable_gb() const { return device_.usable_ram_gb(); }

 private:
  DeviceSpec device_;
};

}  // namespace orinsim::sim
