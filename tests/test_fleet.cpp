// Fleet simulator tests: trace parsing (strict, table-driven bad inputs),
// seeded synthesis, exact jobs-in == jobs-out accounting, the
// pool-resize -> preemption -> replanning-through-PlanService path (the
// ISSUE acceptance criterion), per-policy placement behavior, event-log
// bit-identity, and the wall-clock plan-deadline degradation valve.
#include "fleet/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "fleet/trace.hpp"

namespace madpipe::fleet {
namespace {

/// A small hand-built trace: short chains keep planner runs cheap so the
/// whole file stays fast even though every placement is a real DP run.
FleetTrace tiny_trace() {
  FleetTrace trace;
  trace.pool_gpus = 8;
  trace.profile.chain_length = 4;
  return trace;
}

JobSpec job(const std::string& id, double arrival, int gpus, int min_gpus,
            long long batches) {
  JobSpec spec;
  spec.id = id;
  spec.arrival_s = arrival;
  spec.gpus = gpus;
  spec.min_gpus = min_gpus;
  spec.batches = batches;
  return spec;
}

const JobOutcome& outcome(const FleetResult& result, const std::string& id) {
  auto it = std::find_if(result.jobs.begin(), result.jobs.end(),
                         [&](const JobOutcome& o) { return o.id == id; });
  EXPECT_NE(it, result.jobs.end()) << "no outcome for job " << id;
  return *it;
}

bool log_contains(const FleetResult& result, const std::string& needle) {
  return std::any_of(result.event_log.begin(), result.event_log.end(),
                     [&](const std::string& line) {
                       return line.find(needle) != std::string::npos;
                     });
}

// ---------------------------------------------------------------- traces

TEST(FleetTrace, JsonRoundTripsThroughTheStrictParser) {
  FleetTrace trace = tiny_trace();
  trace.jobs.push_back(job("a", 0.0, 4, 2, 100));
  trace.jobs.push_back(job("b", 1.5, 8, 4, 200));
  trace.jobs[1].network = "resnet101";
  trace.jobs[1].deadline_s = 300.0;
  trace.pool_events.push_back({2.0, 4});
  trace.pool_events.push_back({5.0, 8});

  const std::string text = fleet_trace_to_json(trace);
  const FleetTraceParse parse = fleet_trace_from_json(text);
  ASSERT_TRUE(parse.ok()) << parse.error;
  EXPECT_EQ(parse.trace.pool_gpus, 8);
  EXPECT_EQ(parse.trace.profile.chain_length, 4);
  ASSERT_EQ(parse.trace.jobs.size(), 2u);
  EXPECT_EQ(parse.trace.jobs[1].id, "b");
  EXPECT_EQ(parse.trace.jobs[1].network, "resnet101");
  EXPECT_EQ(parse.trace.jobs[1].min_gpus, 4);
  EXPECT_EQ(parse.trace.jobs[1].deadline_s, 300.0);
  ASSERT_EQ(parse.trace.pool_events.size(), 2u);
  EXPECT_EQ(parse.trace.pool_events[0].gpus, 4);
  // Serializing the parsed trace again is a fixed point.
  EXPECT_EQ(fleet_trace_to_json(parse.trace), text);
}

TEST(FleetTrace, ParserRejectsBadDocuments) {
  FleetTrace trace = tiny_trace();
  trace.jobs.push_back(job("a", 0.0, 4, 2, 100));
  const std::string good = fleet_trace_to_json(trace);
  ASSERT_TRUE(fleet_trace_from_json(good).ok());

  struct Case {
    const char* label;
    std::string from, to;  // string surgery on the good document
    const char* expect;    // substring of the error
  };
  const std::vector<Case> cases = {
      {"unknown top-level key", "\"pool_gpus\"", "\"pool_gpuz\"", "pool_gpuz"},
      {"wrong schema", "fleet-trace-v1", "fleet-trace-v9", "schema"},
      {"unknown job key", "\"batches\"", "\"batchez\"", "batchez"},
      {"non-numeric gpus", "\"gpus\":4", "\"gpus\":\"four\"", "gpus"},
      {"not json at all", good, "{]", ""},
  };
  for (const Case& c : cases) {
    std::string text = good;
    const std::size_t pos = text.find(c.from);
    ASSERT_NE(pos, std::string::npos) << c.label;
    text.replace(pos, c.from.size(), c.to);
    const FleetTraceParse parse = fleet_trace_from_json(text);
    EXPECT_FALSE(parse.ok()) << c.label;
    EXPECT_NE(parse.error.find(c.expect), std::string::npos)
        << c.label << ": error was: " << parse.error;
  }
}

TEST(FleetTrace, ValidateCatchesSemanticProblems) {
  FleetTrace base = tiny_trace();
  base.jobs.push_back(job("a", 0.0, 4, 2, 100));
  ASSERT_EQ(fleet_trace_validate(base), "");

  FleetTrace dup = base;
  dup.jobs.push_back(job("a", 1.0, 2, 1, 10));
  EXPECT_NE(fleet_trace_validate(dup), "");

  FleetTrace unknown_net = base;
  unknown_net.jobs[0].network = "resnet5000";
  EXPECT_NE(fleet_trace_validate(unknown_net), "");

  FleetTrace inverted = base;
  inverted.jobs[0].min_gpus = 9;  // > gpus
  EXPECT_NE(fleet_trace_validate(inverted), "");

  // A job whose floor exceeds the FINAL pool capacity can never place:
  // the validator refuses rather than stranding it at runtime.
  FleetTrace stranded = base;
  stranded.pool_events.push_back({1.0, 1});  // below min_gpus=2, forever
  EXPECT_NE(fleet_trace_validate(stranded), "");
  stranded.pool_events.push_back({2.0, 8});  // restored -> fine again
  EXPECT_EQ(fleet_trace_validate(stranded), "");

  FleetTrace unsorted = base;
  unsorted.jobs.push_back(job("b", -1.0, 2, 1, 10));
  EXPECT_NE(fleet_trace_validate(unsorted), "");
}

TEST(FleetTrace, SynthesisIsSeedDeterministicAndValid) {
  SyntheticTraceConfig config;
  config.jobs = 12;
  const FleetTrace a = synthesize_fleet_trace(config);
  const FleetTrace b = synthesize_fleet_trace(config);
  EXPECT_EQ(fleet_trace_to_json(a), fleet_trace_to_json(b));
  EXPECT_EQ(fleet_trace_validate(a), "");
  EXPECT_FALSE(fleet_trace_has_plan_deadlines(a));
  EXPECT_EQ(a.jobs.size(), 12u);
  EXPECT_FALSE(a.pool_events.empty());  // the shrink/restore cycle

  config.seed = 43;
  const FleetTrace c = synthesize_fleet_trace(config);
  EXPECT_NE(fleet_trace_to_json(a), fleet_trace_to_json(c));
}

// ------------------------------------------------------------- simulator

TEST(FleetSimulator, AccountsForEveryJobExactly) {
  SyntheticTraceConfig config;
  config.jobs = 12;
  const FleetTrace trace = synthesize_fleet_trace(config);
  for (const std::string& policy : list_policies()) {
    FleetOptions options;
    options.policy = policy;
    const FleetResult result = run_fleet(trace, options);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.jobs_in, 12);
    EXPECT_TRUE(result.accounting_exact()) << policy;
    EXPECT_EQ(result.stranded, 0) << policy;
    EXPECT_EQ(result.jobs.size(), 12u);
    EXPECT_GT(result.utilization, 0.0);
    EXPECT_LE(result.utilization, 1.0);
    EXPECT_EQ(result.cache_hits + result.cache_misses,
              result.plans_requested);
    ASSERT_GT(result.plans_requested, 0) << policy;
    EXPECT_EQ(result.cache_hit_rate,
              static_cast<double>(result.cache_hits) /
                  static_cast<double>(result.plans_requested))
        << policy;
    for (const double wait : {result.wait_mean_s, result.wait_p50_s,
                              result.wait_p99_s, result.wait_max_s}) {
      EXPECT_TRUE(std::isfinite(wait)) << policy;
      EXPECT_GE(wait, 0.0) << policy;
    }
    EXPECT_LE(result.wait_p50_s, result.wait_p99_s) << policy;
    EXPECT_LE(result.wait_p99_s, result.wait_max_s) << policy;
  }
}

TEST(FleetSimulator, PoolShrinkPreemptsAndReplansThroughPlanService) {
  // One job wide enough to feel the shrink: placed at 8 GPUs, preempted
  // when the pool halves, re-placed at 4 — a different width, hence a
  // different canonical cache key, hence a second real PlanService plan.
  FleetTrace trace = tiny_trace();
  trace.jobs.push_back(job("wide", 0.0, 8, 4, 1'000'000));
  trace.pool_events.push_back({1.0, 4});

  FleetOptions options;
  const FleetResult result = run_fleet(trace, options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.accounting_exact());
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.preemptions, 1);
  EXPECT_GE(result.replans, 1);  // the re-placement after preemption

  const JobOutcome& wide = outcome(result, "wide");
  EXPECT_TRUE(wide.completed);
  EXPECT_EQ(wide.preemptions, 1);
  EXPECT_GE(wide.plans, 2);          // initial plan + forced replan
  EXPECT_EQ(wide.placed_gpus, 4);    // final width is the shrunken pool
  // Two distinct widths means two distinct canonical requests: the
  // service must have planned (not cache-hit) both.
  EXPECT_EQ(result.cache_misses, 2);
  EXPECT_TRUE(log_contains(result, "resize gpus=4"));
  EXPECT_TRUE(log_contains(result, "preempt job=wide"));
  EXPECT_TRUE(log_contains(result, "place job=wide gpus=4"));
}

TEST(FleetSimulator, PreemptedJobKeepsItsProgress) {
  // Measure the per-width periods with two unperturbed runs, then check
  // that the shrink run finishes at "60 s of width-8 progress plus the
  // remainder at width 4": preemption must conserve completed batches,
  // neither resurrecting finished work nor dropping it.
  const long long kBatches = 50'000;
  FleetTrace wide8 = tiny_trace();
  wide8.jobs.push_back(job("wide", 0.0, 8, 4, kBatches));
  const FleetResult at8 = run_fleet(wide8, FleetOptions{});
  ASSERT_TRUE(at8.ok()) << at8.error;
  ASSERT_EQ(at8.completed, 1);
  const double p8 = outcome(at8, "wide").finish_s / kBatches;

  FleetTrace narrow = tiny_trace();
  narrow.pool_gpus = 4;
  narrow.jobs.push_back(job("wide", 0.0, 8, 4, kBatches));
  const FleetResult at4 = run_fleet(narrow, FleetOptions{});
  ASSERT_TRUE(at4.ok()) << at4.error;
  ASSERT_EQ(at4.completed, 1);
  const double p4 = outcome(at4, "wide").finish_s / kBatches;
  ASSERT_GT(p8, 0.0);
  ASSERT_GT(p4, 0.0);

  FleetTrace shrink = tiny_trace();
  shrink.jobs.push_back(job("wide", 0.0, 8, 4, kBatches));
  shrink.pool_events.push_back({60.0, 4});
  const FleetResult preempted = run_fleet(shrink, FleetOptions{});
  ASSERT_TRUE(preempted.ok()) << preempted.error;
  ASSERT_EQ(preempted.preemptions, 1);
  ASSERT_EQ(preempted.completed, 1);
  const long long done = static_cast<long long>(60.0 / p8);
  ASSERT_GT(done, 0);
  // +/- one batch of tolerance absorbs the floor-at-epsilon boundary.
  EXPECT_NEAR(outcome(preempted, "wide").finish_s,
              60.0 + static_cast<double>(kBatches - done) * p4, 2.0 * p4);
}

TEST(FleetSimulator, FifoBlocksBehindTheHeadOfLine) {
  // head wants the whole pool while busy holds 6 of 8 GPUs; small fits in
  // the 2 free GPUs but FIFO must not let it jump the queue.
  FleetTrace trace = tiny_trace();
  trace.jobs.push_back(job("busy", 0.0, 6, 6, 30'000));
  trace.jobs.push_back(job("head", 0.1, 8, 8, 100));
  trace.jobs.push_back(job("small", 0.2, 2, 2, 100));

  FleetOptions fifo;
  fifo.policy = "fifo";
  const FleetResult strict = run_fleet(trace, fifo);
  ASSERT_TRUE(strict.ok()) << strict.error;
  EXPECT_EQ(strict.completed, 3);
  EXPECT_GE(outcome(strict, "small").first_start_s,
            outcome(strict, "head").first_start_s);

  // The deadline policy backfills: small starts immediately in the gap.
  FleetOptions edf;
  edf.policy = "deadline";
  const FleetResult backfilled = run_fleet(trace, edf);
  ASSERT_TRUE(backfilled.ok()) << backfilled.error;
  EXPECT_EQ(backfilled.completed, 3);
  EXPECT_LT(outcome(backfilled, "small").first_start_s,
            outcome(backfilled, "head").first_start_s);
  EXPECT_EQ(outcome(backfilled, "small").first_start_s, 0.2);
}

TEST(FleetSimulator, DeadlinePolicyOrdersByUrgency) {
  // Both waiters fit once the opener finishes; EDF must start the later
  // arrival first because its deadline is tighter.
  FleetTrace trace = tiny_trace();
  trace.jobs.push_back(job("opener", 0.0, 8, 8, 5'000));
  JobSpec relaxed = job("relaxed", 0.1, 8, 8, 100);
  relaxed.deadline_s = 100'000.0;
  JobSpec urgent = job("urgent", 0.2, 8, 8, 100);
  urgent.deadline_s = 5'000.0;
  trace.jobs.push_back(relaxed);
  trace.jobs.push_back(urgent);

  FleetOptions edf;
  edf.policy = "deadline";
  const FleetResult result = run_fleet(trace, edf);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.completed, 3);
  EXPECT_LT(outcome(result, "urgent").first_start_s,
            outcome(result, "relaxed").first_start_s);

  FleetOptions fifo;
  fifo.policy = "fifo";
  const FleetResult in_order = run_fleet(trace, fifo);
  ASSERT_TRUE(in_order.ok()) << in_order.error;
  EXPECT_LT(outcome(in_order, "relaxed").first_start_s,
            outcome(in_order, "urgent").first_start_s);
}

TEST(FleetSimulator, AffinityReusesWarmPlansAtLeastAsWellAsFifo) {
  // Seed-42 traces on 8 GPUs. Steering onto warm (network, width) pairs can
  // only help; on the 10- and 32-job traces it strictly helps (54.5% vs
  // 50.0% and 79.4% vs 73.5% hit rate).
  for (const auto& [jobs, strictly_better] :
       {std::pair{16, false}, std::pair{10, true}, std::pair{32, true}}) {
    SyntheticTraceConfig config;
    config.jobs = jobs;
    const FleetTrace trace = synthesize_fleet_trace(config);
    FleetOptions fifo;
    fifo.policy = "fifo";
    FleetOptions affinity;
    affinity.policy = "affinity";
    const FleetResult cold = run_fleet(trace, fifo);
    const FleetResult warm = run_fleet(trace, affinity);
    ASSERT_TRUE(cold.ok()) << cold.error;
    ASSERT_TRUE(warm.ok()) << warm.error;
    if (strictly_better) {
      EXPECT_GT(warm.cache_hit_rate, cold.cache_hit_rate) << jobs << " jobs";
    } else {
      EXPECT_GE(warm.cache_hit_rate, cold.cache_hit_rate) << jobs << " jobs";
    }
    EXPECT_GT(warm.cache_hit_rate, 0.0) << jobs << " jobs";
  }
}

TEST(FleetSimulator, EventLogIsBitIdenticalAcrossRuns) {
  SyntheticTraceConfig config;
  config.jobs = 10;
  const FleetTrace trace = synthesize_fleet_trace(config);
  for (const std::string& policy : list_policies()) {
    FleetOptions options;
    options.policy = policy;
    const FleetResult a = run_fleet(trace, options);
    const FleetResult b = run_fleet(trace, options);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_FALSE(a.event_log.empty());
    EXPECT_EQ(a.event_log, b.event_log) << policy;
    EXPECT_EQ(a.event_log_hash, b.event_log_hash) << policy;
    EXPECT_EQ(a.event_log_hash, hash_event_log(a.event_log));
  }
}

TEST(FleetSimulator, PoliciesProduceDistinctLogsOnContendedTraces) {
  SyntheticTraceConfig config;
  config.jobs = 16;
  const FleetTrace trace = synthesize_fleet_trace(config);
  FleetOptions fifo;
  fifo.policy = "fifo";
  FleetOptions edf;
  edf.policy = "deadline";
  const FleetResult a = run_fleet(trace, fifo);
  const FleetResult b = run_fleet(trace, edf);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.event_log_hash, b.event_log_hash);
}

TEST(FleetSimulator, PlanDeadlineValveDegradesWithoutChangingAccounting) {
  // A wall-clock planning budget that is already over forces the
  // deadline->DP-budget valve on a cold plan. Degradation is a wall-clock
  // fact: reported in counters, never in the (sim-time) event log.
  FleetTrace trace = tiny_trace();
  trace.profile.chain_length = 8;  // enough DP states for the valve to bind
  trace.jobs.push_back(job("rushed", 0.0, 4, 4, 100));
  trace.jobs[0].plan_deadline_ms = 1e-6;
  EXPECT_TRUE(fleet_trace_has_plan_deadlines(trace));

  // Zoo chains at this scale fit under the default 20k-state floor, so
  // the floor itself must be lowered for the valve to observably bind.
  serve::ServiceOptions service_options;
  service_options.min_state_budget = 1;
  const FleetResult result = run_fleet(trace, FleetOptions{}, service_options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.completed, 1);
  EXPECT_TRUE(result.accounting_exact());
  EXPECT_GE(result.degraded_plans, 1);
  EXPECT_FALSE(log_contains(result, "degraded"));
}

TEST(FleetSimulator, RejectsUnknownPolicyAndBadTraceGracefully) {
  const FleetTrace trace = synthesize_fleet_trace({});
  FleetOptions options;
  options.policy = "round-robin";
  const FleetResult bad_policy = run_fleet(trace, options);
  EXPECT_FALSE(bad_policy.ok());
  EXPECT_NE(bad_policy.error.find("round-robin"), std::string::npos);

  FleetTrace broken = tiny_trace();
  broken.jobs.push_back(job("", 0.0, 4, 2, 100));  // empty id
  const FleetResult bad_trace = run_fleet(broken, FleetOptions{});
  EXPECT_FALSE(bad_trace.ok());
}

TEST(FleetSimulator, ReportAndJsonCarryTheHeadlineNumbers) {
  SyntheticTraceConfig config;
  config.jobs = 8;
  const FleetTrace trace = synthesize_fleet_trace(config);
  const FleetResult result = run_fleet(trace, FleetOptions{});
  ASSERT_TRUE(result.ok()) << result.error;

  const std::string report = fleet_result_report(result);
  EXPECT_NE(report.find("fifo"), std::string::npos);
  EXPECT_NE(report.find("utilization"), std::string::npos);

  const std::string json = fleet_result_to_json(result, true);
  EXPECT_NE(json.find(kFleetReportSchema), std::string::npos);
  EXPECT_NE(json.find("\"event_log\":"), std::string::npos);
  const std::string lean = fleet_result_to_json(result, false);
  // The hash key ("event_log_hash") stays; the log array itself goes.
  EXPECT_EQ(lean.find("\"event_log\":"), std::string::npos);
  EXPECT_NE(lean.find("\"event_log_hash\":"), std::string::npos);
  EXPECT_LT(lean.size(), json.size());
}

}  // namespace
}  // namespace madpipe::fleet
