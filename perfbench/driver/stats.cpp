#include "driver/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

bool tail_supported(std::size_t n, double p, std::size_t beyond) {
  // Samples strictly above the p-th percentile: n * (1 - p/100). Compared
  // in integer thousandths of a percent so 200 samples do support p95.
  const auto milli = static_cast<std::size_t>(p * 1000.0 + 0.5);
  if (milli >= 100000) return false;
  return n * (100000 - milli) >= beyond * 100000;
}

double highest_supported_tail(std::size_t n, std::size_t beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (tail_supported(n, p, beyond)) return p;
  }
  return 0.0;
}

double supported_tail(std::span<const double> values, double p, double* used_pct) {
  const double pct = std::min(p, highest_supported_tail(values.size()));
  if (used_pct != nullptr) *used_pct = pct;
  return pct > 0.0 ? percentile(values, pct) : std::nan("");
}

std::vector<double> gaps(std::span<const double> times) {
  std::vector<double> out;
  if (times.size() < 2) return out;
  out.reserve(times.size() - 1);
  for (std::size_t i = 1; i < times.size(); ++i) out.push_back(times[i] - times[i - 1]);
  return out;
}

}  // namespace perfbench
