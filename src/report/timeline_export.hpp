// Unrolled Chrome-trace export of a periodic pattern: one trace *process*
// per platform resource (GPUs first, then links), `periods` repetitions of
// the steady pattern, F/B/comm events colored by stage and annotated with
// the mini-batch index. Load the output in chrome://tracing or Perfetto.
//
// This is the one pattern exporter: `madpipe plan --trace`,
// `madpipe explain --timeline-out` and the committed example timeline all
// come from it. Per-resource processes give each GPU and link its own group
// and make per-GPU bubble gaps visually obvious. The JSON emission helpers
// are shared with the span tracer in obs/trace.hpp.
#pragma once

#include <string>

#include "core/partition.hpp"
#include "core/pattern.hpp"

namespace madpipe::json {
class Writer;
}

namespace madpipe::report {

struct TimelineOptions {
  int periods = 6;  ///< steady periods to unroll (fill phase included)
};

/// Append the unrolled timeline as one Chrome trace-event JSON document.
void write_timeline(json::Writer& writer, const PeriodicPattern& pattern,
                    const Allocation& allocation,
                    const TimelineOptions& options = {});

std::string timeline_to_chrome_json(const PeriodicPattern& pattern,
                                    const Allocation& allocation,
                                    const TimelineOptions& options = {});

}  // namespace madpipe::report
