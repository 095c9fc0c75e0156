// plan_noncontig and plan_contig: one caller in a closed loop, one cold
// plan_madpipe at a time with default options, over the workload's cell
// pool. Every pass plans every cell of the pool once, in pool order, so each
// run times the same mix of cells whatever the seed; the seed picks each
// cell's power-of-two units (a plan of the rescaled input is the rescaled
// plan, so the work is the same).
//
// The traced run adds, per cell, the same plan built layer by layer from
// the public calls — madpipe_phase1, then plan_one_f_one_b (contiguous) or
// find_min_period (non-contiguous) — which must match plan_madpipe bit for
// bit, plus two extra bb_schedule probes (at the found period and at the
// phase-1 lower bound) and a timed validate_pattern.
#include <cmath>
#include <cstring>
#include <cstdio>
#include <exception>

#include "bench.hpp"
#include "cyclic/bb_scheduler.hpp"
#include "cyclic/period_search.hpp"
#include "cyclic/stage_graph.hpp"
#include "madpipe/planner.hpp"
#include "schedule/one_f_one_b.hpp"

namespace perfbench {

using namespace madpipe;

namespace {

struct Input {
  Cell cell;
  Chain chain;
  Platform platform;
};

struct Output {
  std::size_t input = 0;
  std::optional<Plan> plan;
  std::string error;  ///< a throw, or a failed composition check
};

double ratio(long long num, long long den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Build the inputs of every cell; returns the set-up's CPU time in seconds.
double build_inputs(const std::vector<Cell>& cells,
                    const std::vector<Units>& units, SpanLog& spans,
                    std::vector<Input>& inputs) {
  const double start = cpu_seconds();
  std::vector<Input> built;
  built.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::optional<Chain> chain;
    {
      Scoped span(spans, "models.build_chain", static_cast<long long>(i));
      chain = cell_chain(cells[i].network);
    }
    built.push_back(Input{cells[i], scale_chain(*chain, units[i]),
                          cell_platform(cells[i], units[i])});
  }
  const double seconds = cpu_seconds() - start;
  inputs = std::move(built);
  return seconds;
}

Output plan_once(const std::vector<Input>& inputs, std::size_t i) {
  Output output;
  output.input = i;
  try {
    output.plan = plan_madpipe(inputs[i].chain, inputs[i].platform);
    if (!output.plan) output.error = "no plan for a feasible cell";
  } catch (const std::exception& exception) {
    output.error = std::string("plan_madpipe threw: ") + exception.what();
  }
  return output;
}

}  // namespace

std::string compose_plan(const Chain& chain, const Platform& platform,
                         long long op, const Plan& reference, SpanLog& spans,
                         LayerTotals& totals) {
  const MadPipeOptions options;
  std::optional<Phase1Result> phase1;
  {
    Scoped span(spans, "madpipe.phase1", op);
    phase1 = madpipe_phase1(chain, platform, options.phase1);
  }
  ++totals.plans;
  const PlannerStats& s = phase1->stats;
  totals.dp_probes += s.dp_probes;
  totals.dp_states += s.dp_states;
  totals.memo_hits += s.memo_hits;
  totals.memo_lookups += s.memo_probes + s.memo_child_lookups;
  totals.transition_hits += s.transition_hits;
  totals.transition_lookups += s.transition_lookups;
  totals.phase1_spec_probes += s.speculative_probes;
  totals.phase1_spec_hits += s.speculative_hits;
  totals.state_budget_hits += s.state_budget_hits;
  if (!phase1->feasible()) return "phase 1 found no allocation";
  const Allocation& allocation = *phase1->allocation;

  std::optional<Plan> composed;
  if (allocation.contiguous()) {
    Scoped span(spans, "schedule.plan_one_f_one_b", op);
    composed = plan_one_f_one_b(allocation, chain, platform);
  } else {
    std::optional<PeriodSearchResult> search;
    {
      Scoped span(spans, "cyclic.find_min_period", op);
      search = find_min_period(allocation, chain, platform,
                               phase1->period, options.phase2);
    }
    ++totals.searches;
    totals.phase2_probes += search->probes;
    totals.phase2_spec_probes += search->speculative_probes;
    totals.phase2_spec_hits += search->speculative_hits;
    if (search->feasible) {
      composed = Plan{"madpipe", allocation, search->pattern, 0.0, 0.0,
                      PlannerStats{}};
      const CyclicProblem problem =
          build_cyclic_problem(allocation, chain, platform);
      {
        Scoped span(spans, "cyclic.bb_schedule_at_period", op);
        totals.nodes_at_period += static_cast<long long>(
            bb_schedule(problem, allocation, chain, platform,
                        search->period, options.phase2.bb)
                .nodes_visited);
      }
      Scoped span(spans, "cyclic.bb_schedule_at_lb", op);
      const BBResult at_lb =
          bb_schedule(problem, allocation, chain, platform,
                      phase1->period, options.phase2.bb);
      totals.nodes_at_lb += static_cast<long long>(at_lb.nodes_visited);
      totals.budget_hits_at_lb += at_lb.node_budget_hit ? 1 : 0;
    }
  }
  if (!composed) return "phase 2 found no pattern";
  {
    Scoped span(spans, "core.validate_pattern", op);
    validate_pattern(composed->pattern, allocation, chain,
                     platform);
  }
  if (!same_bits(composed->period(), reference.period()) ||
      !same_bits(phase1->period, reference.phase1_period) ||
      !(allocation == reference.allocation)) {
    return "layer composition differs from plan_madpipe";
  }
  return "";
}

void report_plan_layers(const SpanLog& spans, const LayerTotals& t,
                        RunResult& result) {
  auto& m = result.metrics;
  const double plans = static_cast<double>(t.plans);
  const double searches = static_cast<double>(t.searches);
  double phase1_total = 0.0;
  for (const double d : spans.durations("madpipe.phase1")) phase1_total += d;
  m["madpipe.phase1_s"] = spans.mean_seconds("madpipe.phase1");
  m["madpipe.dp_probes"] = plans > 0 ? t.dp_probes / plans : 0.0;
  m["madpipe.dp_states"] = plans > 0 ? t.dp_states / plans : 0.0;
  m["madpipe.states_per_s"] =
      phase1_total > 0 ? static_cast<double>(t.dp_states) / phase1_total : 0.0;
  m["madpipe.memo_hit_ratio"] = ratio(t.memo_hits, t.memo_lookups);
  m["madpipe.transition_hit_ratio"] =
      ratio(t.transition_hits, t.transition_lookups);
  m["madpipe.spec_useful_ratio"] =
      ratio(t.phase1_spec_hits, t.phase1_spec_probes);
  m["madpipe.state_budget_hits"] =
      plans > 0 ? t.state_budget_hits / plans : 0.0;
  m["cyclic.phase2_s"] = spans.mean_seconds("cyclic.find_min_period");
  m["cyclic.probes"] = searches > 0 ? t.phase2_probes / searches : 0.0;
  m["cyclic.spec_probes"] =
      searches > 0 ? t.phase2_spec_probes / searches : 0.0;
  m["cyclic.spec_useful_ratio"] =
      ratio(t.phase2_spec_hits, t.phase2_spec_probes);
  m["cyclic.bb_nodes_at_period"] =
      searches > 0 ? t.nodes_at_period / searches : 0.0;
  m["cyclic.bb_nodes_at_lb"] = searches > 0 ? t.nodes_at_lb / searches : 0.0;
  m["cyclic.bb_budget_hit_frac_at_lb"] =
      ratio(t.budget_hits_at_lb, t.searches);
  m["schedule.one_f_one_b_s"] = spans.mean_seconds("schedule.plan_one_f_one_b");
  m["core.validate_s"] = spans.mean_seconds("core.validate_pattern");
  m["models.build_chain_s"] = spans.mean_seconds("models.build_chain");
  result.info["traced_plans"] = plans;
  result.info["traced_searches"] = searches;
}

void run_plan_workload(const Args& args, SpanLog& spans, RunResult& result) {
  std::vector<Cell> cells = plan_pool(args.workload);
  if (args.self_test) cells.resize(1);
  util::Rng rng(args.seed);
  std::vector<Units> units;
  for (std::size_t i = 0; i < cells.size(); ++i) units.push_back(draw_units(rng));

  // Set-up: build every cell's chain and platform. It takes about 0.1 ms,
  // so it is repeated at the start and after every plan: setup_s is the
  // median over the whole run, not over its first milliseconds.
  std::vector<Input> inputs;
  std::vector<double> setup_seconds;
  const int setups_per_plan = args.self_test ? 0 : 5;
  auto set_up = [&](int times) {
    for (int rep = 0; rep < times; ++rep) {
      setup_seconds.push_back(build_inputs(cells, units, spans, inputs));
    }
  };
  spans.set_enabled(args.trace);
  set_up(1);
  spans.set_enabled(false);

  // Passes over the pool until the time is up; at least three. In the
  // traced run every cell is planned twice per pass, untraced and traced,
  // in an order that alternates from cell to cell and pass to pass, and the
  // traced plan is rebuilt layer by layer. Each plan records its wall time
  // and the process CPU time it took (all planner threads together).
  struct Sample {
    double wall = 0.0;
    double cpu = 0.0;
  };
  std::vector<Output> outputs;
  std::vector<std::vector<Sample>> untraced(inputs.size()), traced(inputs.size());
  LayerTotals totals;
  const int min_passes = args.self_test ? 1 : (args.trace ? 1 : 3);
  const HostTicks ticks_before = host_ticks();
  const Clock::time_point start = Clock::now();
  double last_pass = 0.0;
  int passes = 0;
  while (passes < min_passes ||
         (!args.self_test && seconds_since(start) + last_pass <= args.seconds)) {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const long long op = static_cast<long long>(i);
      const bool traced_first = (i + static_cast<std::size_t>(passes)) % 2 == 1;
      for (const bool with_spans : {traced_first, !traced_first}) {
        if (with_spans && !args.trace) continue;
        spans.set_enabled(with_spans);
        const double cpu0 = cpu_seconds();
        const Clock::time_point t0 = Clock::now();
        Output output;
        {
          Scoped span(spans, "plan_madpipe", op);
          output = plan_once(inputs, i);
        }
        const Sample sample{seconds_since(t0), cpu_seconds() - cpu0};
        if (with_spans) {
          traced[i].push_back(sample);
          if (output.plan) {
            output.error = compose_plan(inputs[i].chain, inputs[i].platform,
                                        op, *output.plan, spans, totals);
          }
        } else {
          untraced[i].push_back(sample);
        }
        outputs.push_back(std::move(output));
        spans.set_enabled(false);
        set_up(setups_per_plan);
      }
    }
    spans.set_enabled(false);
    last_pass = seconds_since(pass_start);
    ++passes;
  }
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.info["host_steal_frac"] = steal_fraction(ticks_before, host_ticks());

  // Checks, outside the timed region.
  std::vector<double> ratios(inputs.size(), 0.0);
  for (const Output& output : outputs) {
    ++result.attempted;
    const Input& input = inputs[output.input];
    std::string error = output.error;
    if (error.empty() && output.plan) {
      error = check_plan(*output.plan, input.chain, input.platform);
      if (ratios[output.input] == 0.0) {
        ratios[output.input] = output.plan->period() / output.plan->phase1_period;
      }
      const bool contiguous = output.plan->allocation.contiguous();
      if (contiguous != (args.workload == "plan_contig")) {
        std::fprintf(stderr, "note: %s left its pool's class (contiguous=%d)\n",
                     cell_name(input.cell).c_str(), contiguous ? 1 : 0);
      }
    }
    if (!error.empty()) {
      ++result.failed;
      std::fprintf(stderr, "FAIL %s: %s\n", cell_name(input.cell).c_str(),
                   error.c_str());
    }
  }
  if (args.self_test && !outputs.empty() && outputs.front().plan) {
    const Input& input = inputs[outputs.front().input];
    if (corrupted_copy_is_rejected(*outputs.front().plan, input.chain,
                                   input.platform)) {
      result.info["corrupted_plan_rejected"] = 1;
    } else {
      ++result.failed;
      std::fprintf(stderr, "FAIL self-test: corrupted plan passed the check\n");
    }
  }

  // Per cell, the median CPU time of its plans; the wall times go to the
  // info line.
  auto cell_medians = [&](const std::vector<std::vector<Sample>>& samples,
                          double Sample::*clock) {
    std::vector<double> medians;
    for (const std::vector<Sample>& cell : samples) {
      std::vector<double> values;
      for (const Sample& sample : cell) values.push_back(sample.*clock);
      medians.push_back(median(values));
    }
    return medians;
  };
  const std::vector<double> cell_cpu = cell_medians(untraced, &Sample::cpu);
  std::vector<double> plan_cpu, plan_wall;
  for (const std::vector<Sample>& cell : untraced) {
    for (const Sample& sample : cell) {
      plan_cpu.push_back(sample.cpu);
      plan_wall.push_back(sample.wall);
    }
  }
  result.info["cells"] = static_cast<double>(inputs.size());
  result.info["passes"] = passes;
  result.info["plan_samples"] = static_cast<double>(plan_cpu.size());
  result.info["setup_samples"] = static_cast<double>(setup_seconds.size());
  result.info["plan_wall_s_p50"] = median(plan_wall);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    result.info["cell_cpu_s_p50." + cell_name(inputs[i].cell)] = cell_cpu[i];
  }
  if (!args.trace) {
    auto& m = result.metrics;
    m["setup_s"] = median(setup_seconds);
    // One pass over the pool at the median cost of each cell.
    double median_pass = 0.0;
    for (const double seconds : cell_cpu) median_pass += seconds;
    m["plans_per_s"] = static_cast<double>(inputs.size()) / median_pass;
    m["requests_per_s"] = m["plans_per_s"];
    m["plan_s_p50"] = median(plan_cpu);
    bool all_ratios = true;
    for (const double r : ratios) all_ratios = all_ratios && r > 0.0;
    // Each pass plans the cells in pool order, so the product is taken in
    // the same order on every run.
    m["period_ratio_geomean"] = all_ratios ? geomean(ratios) : 0.0;
  } else {
    report_plan_layers(spans, totals, result);
    // The same cells planned with and without spans, in CPU time.
    double traced_pass = 0.0;
    for (const double seconds : cell_medians(traced, &Sample::cpu)) {
      traced_pass += seconds;
    }
    double untraced_pass = 0.0;
    for (const double seconds : cell_cpu) untraced_pass += seconds;
    result.metrics["trace_overhead_frac"] =
        untraced_pass > 0.0 ? traced_pass / untraced_pass - 1.0 : 0.0;
  }
}

}  // namespace perfbench
