// ASCII rendering of periodic patterns (the Figure 2/3-style pictures of
// the paper): one row per resource, one period wide, forward ops as
// uppercase stage letters, backwards as lowercase, communications as '·'
// fills with direction arrows.
#pragma once

#include <string>

#include "core/pattern.hpp"

namespace madpipe {

struct GanttOptions {
  int width = 100;   ///< characters per period
  int periods = 2;   ///< how many copies of the pattern to draw
};

/// Render `pattern` as a fixed-width Gantt chart with index shifts noted.
std::string render_gantt(const PeriodicPattern& pattern,
                         const GanttOptions& options = {});

}  // namespace madpipe
