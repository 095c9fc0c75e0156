// Small statistics helpers: geometric means of period ratios (the experiment
// harness) and latency percentiles.
#pragma once

#include <span>
#include <vector>

namespace madpipe::stats {

/// Geometric mean; requires all values strictly positive. 0 for empty.
double geometric_mean(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0,1]. Copies and sorts.
double percentile(std::span<const double> xs, double q);

}  // namespace madpipe::stats
