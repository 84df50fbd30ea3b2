#include "driver/timing_backend.h"

#include "driver/prompts.h"

namespace perfbench {

using orinsim::serving::Request;
using orinsim::serving::StepCost;

void TimingBackend::reset(Clock::time_point epoch, Clock::time_point engine_epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  epoch_ = epoch;
  engine_offset_s_ = since(epoch, engine_epoch);
  records_ = Records{};
  records_.prefix_at_reset = inner_.prefix_cache_stats();
}

TimingBackend::Records TimingBackend::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  Records out = records_;
  out.prefix_at_snapshot = inner_.prefix_cache_stats();
  return out;
}

void TimingBackend::push_call(double start, double end, bool decode) {
  records_.calls.push_back(Call{start, end, decode, active_ == 0});
}

TimingBackend::RequestSpans& TimingBackend::spans_for(const Request& req) {
  RequestSpans& spans = records_.requests[req.id];
  if (spans.prompt_tokens == 0) {
    spans.prompt_hash = token_hash(req.prompt);
    spans.prompt_tokens = req.prompt_tokens;
    spans.arrival_s = engine_offset_s_ + req.arrival_s;
  }
  return spans;
}

bool TimingBackend::try_admit(Request& req) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_.try_admit(req);
  const Clock::time_point t1 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  const double start = since(epoch_, t0);
  const double end = since(epoch_, t1);
  records_.admit_s.push_back(end - start);
  RequestSpans& spans = spans_for(req);
  if (ok) {
    ++active_;
    if (spans.admit_s < 0.0) {
      spans.admit_s = end;
      spans.prefix_cached = req.prefix_cached;
    }
  } else {
    ++records_.admit_refusals;
  }
  push_call(start, end, false);
  return ok;
}

StepCost TimingBackend::prefill(const std::vector<Request*>& admitted,
                                std::size_t active_after) {
  Wave wave;
  wave.requests = admitted.size();
  std::vector<bool> fresh;
  fresh.reserve(admitted.size());
  for (const Request* r : admitted) {
    fresh.push_back(r->generated == 0);
    if (r->generated == 0) {
      wave.computed_tokens += r->prompt_tokens - r->prefix_cached;
    } else {
      // Resume: the whole prompt re-prefills, then all but the last
      // recorded output token replay.
      const std::size_t replay = r->prompt_tokens + r->generated - 1;
      wave.computed_tokens += replay;
      wave.recompute_tokens += replay;
    }
  }
  const Clock::time_point t0 = Clock::now();
  StepCost cost = inner_.prefill(admitted, active_after);
  const Clock::time_point t1 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  wave.start_s = since(epoch_, t0);
  wave.end_s = since(epoch_, t1);
  records_.waves.push_back(wave);
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    if (fresh[i]) spans_for(*admitted[i]).prefill_end_s = wave.end_s;
  }
  push_call(wave.start_s, wave.end_s, false);
  return cost;
}

bool TimingBackend::try_extend(Request& req) {
  const Clock::time_point t0 = Clock::now();
  const bool ok = inner_.try_extend(req);
  const Clock::time_point t1 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  const double start = since(epoch_, t0);
  const double end = since(epoch_, t1);
  records_.extend_s.push_back(end - start);
  if (!ok) ++records_.extend_refusals;
  push_call(start, end, false);
  return ok;
}

StepCost TimingBackend::decode_step(const std::vector<Request*>& active) {
  Step step;
  step.lanes = active.size();
  for (const Request* r : active) step.ctx_sum += static_cast<double>(r->context());
  const Clock::time_point t0 = Clock::now();
  StepCost cost = inner_.decode_step(active);
  const Clock::time_point t1 = Clock::now();
  const KVUsage kv = inner_.kv_usage();
  std::lock_guard<std::mutex> lk(mu_);
  step.start_s = since(epoch_, t0);
  step.end_s = since(epoch_, t1);
  step.kv_used = kv.used_blocks;
  step.kv_total = kv.total_blocks;
  step.kv_block_bytes = kv.block_bytes;
  records_.steps.push_back(step);
  for (const Request* r : active) spans_for(*r).decode_end_s.push_back(step.end_s);
  push_call(step.start_s, step.end_s, true);
  return cost;
}

void TimingBackend::release(Request& req) {
  const bool preempted = !req.done();
  const Clock::time_point t0 = Clock::now();
  inner_.release(req);
  const Clock::time_point t1 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  const double start = since(epoch_, t0);
  const double end = since(epoch_, t1);
  records_.release_s.push_back(end - start);
  if (preempted) {
    ++records_.preemptions;
    ++spans_for(req).preemptions;
  }
  if (active_ > 0) --active_;
  push_call(start, end, false);
}

}  // namespace perfbench
