// Request arrival processes for the serving simulators.
//
// The paper's methodology forms batches from a pool (a closed system); a
// deployed endpoint sees an open arrival stream. Four standard processes:
//  - kDeterministic: fixed spacing (the schedulers' original behaviour)
//  - kPoisson: exponential inter-arrivals at the same mean rate
//  - kBursty: Markov-modulated Poisson, alternating quiet and burst phases
//    (mean rate preserved; burstiness is what stresses tail latency).
//  - kDiurnal: piecewise-constant rate Poisson following a repeating daily
//    rate curve (the fleet simulator's traffic shape: troughs overnight,
//    peaks at the busy hours). Within each segment arrivals are Poisson at
//    rate_rps * multiplier; memorylessness makes restarting the exponential
//    draw at segment boundaries exact.
#pragma once

#include <cstddef>
#include <vector>

#include "core/rng.h"

namespace orinsim::workload {

enum class ArrivalKind { kDeterministic, kPoisson, kBursty, kDiurnal };

// Default diurnal shape: a scaled-down day of six equal segments, trough to
// evening peak and back. Mean multiplier is 1.0, so rate_rps stays the mean
// rate over a full period.
std::vector<double> diurnal_default_curve();

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kDeterministic;
  double rate_rps = 2.0;
  // kBursty: the burst phase runs at burst_factor x rate, the quiet phase at
  // rate / burst_factor; phases alternate with these mean durations.
  double burst_factor = 4.0;
  double mean_phase_s = 10.0;
  // kDiurnal: the rate curve, as multipliers on rate_rps over equal-length
  // segments spanning diurnal_period_s, repeated until `count` arrivals are
  // drawn. Empty selects diurnal_default_curve().
  std::vector<double> diurnal_multipliers;
  double diurnal_period_s = 60.0;
  std::uint64_t seed = 42;
};

// `count` arrival timestamps, non-decreasing, starting at t >= 0.
std::vector<double> generate_arrivals(const ArrivalSpec& spec, std::size_t count);

// The arrival model every serving run consumes: generate() feeds
// serving::requests_from_arrivals for the static and continuous policies,
// the functional engine and the fleet, so one workload definition moves
// between schedulers without field-by-field copying.
struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kDeterministic;
  double rate_rps = 2.0;
  std::uint64_t seed = 42;
  std::size_t total_requests = 64;
  // Shape knobs for the modulated processes; ignored by the others (defaults
  // match ArrivalSpec, so configs written before these fields existed keep
  // their exact arrival streams).
  double burst_factor = 4.0;
  double mean_phase_s = 10.0;
  std::vector<double> diurnal_multipliers;
  double diurnal_period_s = 60.0;

  ArrivalSpec spec() const {
    ArrivalSpec s;
    s.kind = kind;
    s.rate_rps = rate_rps;
    s.burst_factor = burst_factor;
    s.mean_phase_s = mean_phase_s;
    s.diurnal_multipliers = diurnal_multipliers;
    s.diurnal_period_s = diurnal_period_s;
    s.seed = seed;
    return s;
  }
  // The total_requests timestamps of this configuration.
  std::vector<double> generate() const { return generate_arrivals(spec(), total_requests); }
};

// Sample statistics used by tests: mean rate and squared coefficient of
// variation of the inter-arrival times (1 for Poisson, ~0 deterministic,
// > 1 bursty).
struct ArrivalStats {
  double mean_rate_rps = 0.0;
  double interarrival_scv = 0.0;
};
ArrivalStats analyze_arrivals(const std::vector<double>& arrivals);

// Per-segment empirical rates of a diurnal stream: arrivals falling in
// segment k of the repeating curve (all periods pooled), divided by the
// total time spent in that segment. The shape pin tests compare these
// against rate_rps * multiplier[k].
std::vector<double> diurnal_segment_rates(const std::vector<double>& arrivals,
                                          const std::vector<double>& multipliers,
                                          double period_s);

}  // namespace orinsim::workload
