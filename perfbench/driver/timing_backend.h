// Timing decorator over serving::TokenBackend: the traced run's only probe.
//
// It forwards every virtual method to the wrapped backend unchanged and
// records, for the calls the engine makes per step (admit, prefill, extend,
// decode, release), the wall time of the call and the lanes and tokens it
// covered. Records stay in memory; summaries are computed after the run.
// The engine calls its backend from one thread, and EngineHost's metrics
// reads go through the same engine mutex, so calls never overlap; the
// decorator's own lock only orders reset()/snapshot() on the driver thread
// against recording on the engine thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "driver/load_gen.h"
#include "serving/engine.h"

namespace perfbench {

class TimingBackend : public orinsim::serving::TokenBackend {
 public:
  // What one engine request went through, keyed by engine request id.
  struct RequestSpans {
    std::uint64_t prompt_hash = 0;
    std::size_t prompt_tokens = 0;
    double arrival_s = -1.0;       // engine arrival stamp, on the epoch
    double admit_s = -1.0;         // end of the first successful admit
    double prefill_end_s = -1.0;   // end of the wave that sampled token 1
    std::vector<double> decode_end_s;  // end of each decode call it joined
    std::size_t prefix_cached = 0;
    std::size_t preemptions = 0;
  };

  struct Wave {  // one prefill call
    double start_s = 0.0, end_s = 0.0;
    std::size_t requests = 0;
    std::size_t computed_tokens = 0;   // prompt tokens actually run
    std::size_t recompute_tokens = 0;  // of those, re-run after preemption
  };

  struct Step {  // one decode call
    double start_s = 0.0, end_s = 0.0;
    std::size_t lanes = 0;
    double ctx_sum = 0.0;  // sum of lane contexts (attention load)
    std::size_t kv_used = 0, kv_total = 0, kv_block_bytes = 0;
  };

  struct Call {  // every timed call, in order, for engine self time
    double start_s = 0.0, end_s = 0.0;
    bool decode = false;
    bool idle_after = false;  // no request held a lane after this call
  };

  struct Records {
    std::map<std::size_t, RequestSpans> requests;
    std::vector<Wave> waves;
    std::vector<Step> steps;
    std::vector<Call> calls;
    std::vector<double> admit_s, release_s, extend_s;  // call durations
    std::size_t admit_refusals = 0;
    std::size_t extend_refusals = 0;
    std::size_t preemptions = 0;
    orinsim::serving::PrefixCacheStats prefix_at_reset;
    orinsim::serving::PrefixCacheStats prefix_at_snapshot;
  };

  explicit TimingBackend(orinsim::serving::TokenBackend& inner) : inner_(inner) {}

  // Drops all records and restarts the clocks: timestamps are seconds from
  // `epoch`, engine arrival stamps are seconds from `engine_epoch`.
  void reset(Clock::time_point epoch, Clock::time_point engine_epoch);
  // Copy of the records, with the prefix-cache counters read now.
  Records snapshot() const;

  std::size_t max_lanes() const override { return inner_.max_lanes(); }
  bool try_admit(orinsim::serving::Request& req) override;
  orinsim::serving::StepCost prefill(const std::vector<orinsim::serving::Request*>& admitted,
                                     std::size_t active_after) override;
  bool try_extend(orinsim::serving::Request& req) override;
  orinsim::serving::StepCost decode_step(
      const std::vector<orinsim::serving::Request*>& active) override;
  void release(orinsim::serving::Request& req) override;
  KVUsage kv_usage() const override { return inner_.kv_usage(); }
  std::string name() const override { return inner_.name(); }
  bool set_power_mode(const orinsim::sim::PowerMode& mode) override {
    return inner_.set_power_mode(mode);
  }
  double idle_power_w() const override { return inner_.idle_power_w(); }
  bool prefix_cache_enabled() const override { return inner_.prefix_cache_enabled(); }
  orinsim::serving::PrefixCacheStats prefix_cache_stats() const override {
    return inner_.prefix_cache_stats();
  }
  bool speculation_enabled() const override { return inner_.speculation_enabled(); }

 private:
  double now() const { return since(epoch_, Clock::now()); }
  void push_call(double start, double end, bool decode);
  RequestSpans& spans_for(const orinsim::serving::Request& req);

  orinsim::serving::TokenBackend& inner_;
  mutable std::mutex mu_;  // guards everything below
  Clock::time_point epoch_ = Clock::now();
  double engine_offset_s_ = 0.0;  // engine epoch on our clock
  std::size_t active_ = 0;        // requests holding a lane
  Records records_;
};

}  // namespace perfbench
