// Shared pieces of the seeded planner benchmark: command-line arguments, the
// bench-side span log, the metric table every run reports into, seeded
// input generation and the output checks. See README.md for the workloads
// and the metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/chain.hpp"
#include "core/plan.hpp"
#include "core/platform.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// CPU time of this process so far, all threads included (also threads
/// that have ended). A guest kernel with paravirtual steal accounting
/// leaves out the time the hypervisor ran other guests, so on a shared
/// virtual machine this clock holds still where wall time does not.
double cpu_seconds();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required
  bool trace = false;
  /// Fast mode: one cell per plan workload, a short serve burst, and the
  /// corrupted-plan check.
  bool self_test = false;
  std::string spans_out;  ///< where the traced run writes its spans
};

/// Spans recorded from the benchmark's own files around calls into the
/// planner's public functions. Kept in memory, written once at the end.
/// Single-threaded: only the benchmark's main thread records.
class SpanLog {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    long long op = 0;     ///< the cell or frame the span worked on
    int parent = -1;      ///< index of the enclosing span, -1 at top level
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Recording is off until enabled; a disabled log costs one branch.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int open(const char* name, long long op);
  void close(int index);

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations(std::string_view name) const;
  /// Mean duration in seconds, 0 when no such span was recorded.
  double mean_seconds(std::string_view name) const;

  /// One JSON object per line: name, op, parent, start/end in ns.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, long long op)
      : log_(log), index_(log.enabled() ? log.open(name, op) : -1) {}
  ~Scoped() {
    if (index_ >= 0) log_.close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// What one run reports: operation counts and metric values by name.
/// Extra facts (sample counts, the host) go to the info line.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;
};

// --- statistics -----------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double geomean(const std::vector<double>& values);
/// Peak resident memory of this process so far.
double peak_rss_mb();

/// Host CPU time counters from /proc/stat, in clock ticks.
struct HostTicks {
  long long busy = 0;   ///< user + nice + system + irq + softirq
  long long steal = 0;  ///< wanted by this machine, run for other guests
};
HostTicks host_ticks();
/// Share of the CPU time this machine wanted between two readings that the
/// hypervisor gave to other guests: recorded on the info line, it tells a
/// run whose wall times are slowed by the host from one slowed by the code.
double steal_fraction(const HostTicks& before, const HostTicks& after);

// --- seeded inputs ---------------------------------------------------------

/// One grid cell of the paper's evaluation: network × P × M (β = 12 GB/s).
struct Cell {
  std::string network;
  int gpus = 0;
  double memory_gb = 0.0;
};

std::string cell_name(const Cell& cell);

/// The pre-classified cell pools of the two plan workloads. Phase 1 of
/// every plan_noncontig cell ends in a non-contiguous allocation (so phase
/// 2 is the cyclic search), of every plan_contig cell in a contiguous one
/// (so phase 2 is the closed-form 1F1B*).
std::vector<Cell> plan_pool(const std::string& workload);

/// The evaluation chain of a cell: the paper's 1000x1000, batch-8 profile
/// coarsened to 24 layers, or the full-depth transformer preset.
madpipe::Chain cell_chain(const std::string& network);

/// Exact power-of-two unit change: every duration × 2^time_exp, every byte
/// quantity × 2^byte_exp. The bandwidth scales so that transfer times scale
/// like durations; a plan of the scaled input is the scaled plan.
struct Units {
  int time_exp = 0;
  int byte_exp = 0;
  double time_scale() const;
  double byte_scale() const;
};

madpipe::Chain scale_chain(const madpipe::Chain& chain, const Units& units);
madpipe::Platform cell_platform(const Cell& cell, const Units& units);

/// Seeded units in [-2, 2] × [-2, 2].
Units draw_units(madpipe::util::Rng& rng);

// --- output checks ---------------------------------------------------------

/// Every plan must pass validate_pattern, its simulated steady period must
/// not exceed the plan's period and its simulated memory peaks must fit M.
/// Returns an empty string when the plan passes, else the first reason.
std::string check_plan(const madpipe::Plan& plan, const madpipe::Chain& chain,
                       const madpipe::Platform& platform);

/// Run the check on a copy of `plan` whose longest op starts half a period
/// later; true when the check rejects it.
bool corrupted_copy_is_rejected(const madpipe::Plan& plan,
                                const madpipe::Chain& chain,
                                const madpipe::Platform& platform);

// --- layer composition -----------------------------------------------------

/// Sums of the per-layer counters over the plans compose_plan rebuilt.
/// Phase-1 and phase-2 speculation are read from their own results
/// (Phase1Result, PeriodSearchResult), never from the merged Plan::stats.
struct LayerTotals {
  long long plans = 0;
  long long dp_probes = 0, dp_states = 0;
  long long memo_hits = 0, memo_lookups = 0;
  long long transition_hits = 0, transition_lookups = 0;
  long long phase1_spec_probes = 0, phase1_spec_hits = 0;
  long long state_budget_hits = 0;
  long long searches = 0;  ///< non-contiguous plans (find_min_period ran)
  long long phase2_probes = 0, phase2_spec_probes = 0, phase2_spec_hits = 0;
  long long nodes_at_period = 0, nodes_at_lb = 0, budget_hits_at_lb = 0;
};

/// Rebuild the plan from the layers' public calls, with a span around each:
/// madpipe_phase1, then plan_one_f_one_b (contiguous allocation) or
/// find_min_period plus two bb_schedule probes, at the found period and at
/// the phase-1 lower bound (non-contiguous), then validate_pattern. Returns
/// a non-empty error unless period, phase-1 period and allocation are
/// bit-identical to `reference`, the plan_madpipe result.
std::string compose_plan(const madpipe::Chain& chain,
                         const madpipe::Platform& platform, long long op,
                         const madpipe::Plan& reference, SpanLog& spans,
                         LayerTotals& totals);

/// The madpipe, cyclic, schedule, core and models per-layer metrics.
void report_plan_layers(const SpanLog& spans, const LayerTotals& totals,
                        RunResult& result);

// --- workloads -------------------------------------------------------------

void run_plan_workload(const Args& args, SpanLog& spans, RunResult& result);
void run_serve_workload(const Args& args, SpanLog& spans, RunResult& result);

}  // namespace perfbench
