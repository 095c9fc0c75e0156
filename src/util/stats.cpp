#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace madpipe::stats {

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) {
    MP_EXPECT(x > 0.0, "geometric mean requires strictly positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double q) {
  MP_EXPECT(q >= 0.0 && q <= 1.0, "percentile rank must be in [0,1]");
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace madpipe::stats
