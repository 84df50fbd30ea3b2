// Distribution summaries for the benchmark's end-to-end and per-layer
// metrics.
//
// Tail rule: a tail percentile is only reported where at least
// kTailBeyond samples lie beyond it, so a p95 needs 200 samples and a p99
// needs 1000. tail_supported() answers that question for one percentile;
// highest_supported_tail() picks the highest standard percentile a sample
// count supports, and supported_tail() reads a tail at the highest
// percentile up to the one asked for that the samples support.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/stats.h"

namespace perfbench {

inline constexpr std::size_t kTailBeyond = 10;

// Linear-interpolated percentile (p in [0, 100]) and mean; NaN for no samples.
using orinsim::mean;
using orinsim::percentile;
inline double median(std::span<const double> values) { return percentile(values, 50.0); }

// True when n samples leave at least `beyond` of them above percentile p.
bool tail_supported(std::size_t n, double p, std::size_t beyond = kTailBeyond);

// Highest of {99.9, 99, 95, 90, 75, 50} that n samples support; 0 when none.
double highest_supported_tail(std::size_t n, std::size_t beyond = kTailBeyond);

// The p-th percentile of `values` where they support it, otherwise the
// percentile at min(p, highest_supported_tail()); NaN when not even the
// median is supported. The percentile used goes to *used_pct (0 for NaN).
double supported_tail(std::span<const double> values, double p, double* used_pct = nullptr);

// Gaps between consecutive timestamps (times.size() - 1 values, or none).
std::vector<double> gaps(std::span<const double> times);

}  // namespace perfbench
