// Discretization grids for the continuous state variables of MadPipe-DP
// (§5.1 of the paper): t_P (special-processor load), m_P (special-processor
// memory) and V (forward/backward delay). The paper uses 101 / 11 / 51
// equally-spaced points respectively; the granularity is configurable and
// its effect is quantified by the ablation benchmark.
#pragma once

#include "core/types.hpp"

namespace madpipe {

enum class RoundingMode {
  Nearest,  ///< highest fidelity (paper behaviour, default)
  Up,       ///< conservative: never underestimate load/memory/delay
};

/// Uniform grid over [0, max_value] with `points` samples.
class Grid {
 public:
  Grid(double max_value, int points);

  int points() const noexcept { return points_; }

  /// Grid value of index i (clamped to the grid).
  double value(int index) const;

  /// Index of `v` under the rounding mode; values beyond max clamp to the
  /// top index (callers must treat the top as "at least this much").
  int index(double v, RoundingMode mode = RoundingMode::Nearest) const;

  /// Round `v` onto the grid.
  double snap(double v, RoundingMode mode = RoundingMode::Nearest) const {
    return value(index(v, mode));
  }

 private:
  double max_value_;
  double step_;
  int points_;
};

/// The three DP grids.
struct Discretization {
  int load_points = 101;    ///< t_P grid over [0, U(1,L)]
  int memory_points = 11;   ///< m_P grid over [0, M]
  int delay_points = 51;    ///< V grid over [0, U(1,L) + Σ C]
  RoundingMode rounding = RoundingMode::Nearest;

  /// A coarser grid preset that keeps full-sweep benchmarks fast.
  static Discretization coarse() {
    return Discretization{41, 9, 21, RoundingMode::Nearest};
  }
  /// The paper's granularity.
  static Discretization paper() { return Discretization{}; }
};

}  // namespace madpipe
