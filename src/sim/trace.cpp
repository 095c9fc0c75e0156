#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/expect.hpp"
#include "util/format.hpp"

namespace madpipe {

namespace {

char op_symbol(const PatternOp& op) {
  switch (op.kind) {
    case OpKind::Forward:
      return static_cast<char>('A' + op.stage % 26);
    case OpKind::Backward:
      return static_cast<char>('a' + op.stage % 26);
    case OpKind::CommForward:
      return '>';
    case OpKind::CommBackward:
      return '<';
  }
  return '?';
}

}  // namespace

std::string render_gantt(const PeriodicPattern& pattern,
                         const Allocation& allocation, const Chain& chain,
                         const GanttOptions& options) {
  MP_EXPECT(options.width >= 10 && options.periods >= 1,
            "unreasonable gantt geometry");
  const Seconds T = pattern.period;
  const int total_width = options.width * options.periods;

  std::map<ResourceId, std::string> rows;
  for (const PatternOp& op : pattern.ops) {
    rows.emplace(op.resource, std::string(total_width, '.'));
  }

  for (const PatternOp& op : pattern.ops) {
    std::string& row = rows[op.resource];
    for (int period = 0; period < options.periods; ++period) {
      const double begin =
          (op.start / T + period) * options.width;
      const double end = begin + op.duration / T * options.width;
      int c0 = static_cast<int>(std::floor(begin));
      int c1 = std::max(c0 + 1, static_cast<int>(std::ceil(end)));
      c0 = std::clamp(c0, 0, total_width - 1);
      c1 = std::clamp(c1, c0 + 1, total_width);
      for (int c = c0; c < c1; ++c) {
        // Wrap long ops around the drawing area.
        row[static_cast<std::size_t>(c % total_width)] = op_symbol(op);
      }
    }
  }

  std::ostringstream os;
  os << "period " << fmt::seconds(T) << ", " << options.periods
     << " period(s), stage letters A.. = forward, a.. = backward, >/< = comm\n";
  for (const auto& [resource, row] : rows) {
    os << resource.to_string();
    os << std::string(resource.to_string().size() < 10
                          ? 10 - resource.to_string().size()
                          : 1,
                      ' ');
    os << '|' << row << "|\n";
  }
  // Shift annotations.
  os << "shifts: ";
  for (const PatternOp& op : pattern.ops) {
    os << to_string(op.kind) << op.stage << "=" << op.shift << ' ';
  }
  os << '\n';
  (void)allocation;
  (void)chain;
  return os.str();
}

}  // namespace madpipe
