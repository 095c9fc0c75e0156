#include "report/timeline_export.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "obs/trace.hpp"
#include "util/expect.hpp"
#include "util/json.hpp"

namespace madpipe::report {

namespace {

/// Stable Chrome color names, rotated by stage so adjacent stages contrast.
constexpr const char* kStagePalette[] = {
    "thread_state_running", "rail_response",      "rail_animation",
    "rail_load",            "cq_build_passed",    "thread_state_iowait",
    "rail_idle",            "cq_build_failed",
};
constexpr int kPaletteSize =
    static_cast<int>(sizeof(kStagePalette) / sizeof(kStagePalette[0]));

}  // namespace

void write_timeline(json::Writer& w, const PeriodicPattern& pattern,
                    const Allocation& allocation,
                    const TimelineOptions& options) {
  MP_EXPECT(options.periods >= 1, "need at least one period to export");

  // One Chrome process per resource: GPUs in index order first (idle GPUs
  // included, so gaps in the allocation are visible), then links.
  std::vector<ResourceId> order;
  for (int p = 0; p < allocation.num_processors(); ++p) {
    order.push_back(ResourceId::processor(p));
  }
  std::vector<ResourceId> links;
  for (const PatternOp& op : pattern.ops) {
    if (op.resource.kind != ResourceId::Kind::Link) continue;
    if (std::find(links.begin(), links.end(), op.resource) == links.end()) {
      links.push_back(op.resource);
    }
  }
  std::sort(links.begin(), links.end());
  order.insert(order.end(), links.begin(), links.end());

  std::map<ResourceId, long long> pid_of;
  long long next_pid = 1;  // some viewers special-case pid 0
  for (const ResourceId& resource : order) pid_of[resource] = next_pid++;

  obs::begin_chrome_trace(w);
  for (const ResourceId& resource : order) {
    obs::write_trace_metadata(w, "process_name", pid_of.at(resource), 0,
                              resource.to_string());
  }

  const double to_us = 1e6;
  for (int period = 0; period < options.periods; ++period) {
    for (const PatternOp& op : pattern.ops) {
      const long long batch = period - op.shift;
      if (batch < 0) continue;  // the pipeline has not filled this deep yet
      const bool compute =
          op.kind == OpKind::Forward || op.kind == OpKind::Backward;
      obs::begin_complete_event(
          w,
          std::string(to_string(op.kind)) + std::to_string(op.stage) + " b" +
              std::to_string(batch),
          compute ? "compute" : "comm", pid_of.at(op.resource), 0,
          (op.start + period * pattern.period) * to_us, op.duration * to_us,
          kStagePalette[op.stage % kPaletteSize]);
      w.key("args");
      w.begin_object();
      w.key("batch");
      w.value(batch);
      w.key("stage");
      w.value(op.stage);
      w.key("shift");
      w.value(op.shift);
      w.end_object();
      w.end_object();
    }
  }
  obs::end_chrome_trace(w);
}

std::string timeline_to_chrome_json(const PeriodicPattern& pattern,
                                    const Allocation& allocation,
                                    const TimelineOptions& options) {
  json::Writer writer;
  write_timeline(writer, pattern, allocation, options);
  return writer.str();
}

}  // namespace madpipe::report
