// Tests for the schedule-introspection subsystem (src/report/): the
// property matrix over the paper's evaluation networks × P ∈ {2, 4, 8}
// (report memory peaks must be bit-identical to the verifier's event
// sweep, utilizations in [0, 1], decomposition terms consistent), the
// strict madpipe-explain-v1 JSON schema, the unrolled Chrome-trace
// timeline (one process per GPU and per link), and the serve-facing
// ExplainSummary including its exact power-of-two rescaling.
#include "report/plan_report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "explain_check.hpp"
#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "report/timeline_export.hpp"
#include "sim/event_sim.hpp"
#include "util/json.hpp"

namespace madpipe {

namespace test {
namespace {

/// `object[key]` as a number; NaN, which fails every comparison, when it is
/// missing.
double number(const json::Value& object, const char* key) {
  const json::Value* value = object.find(key);
  if (value == nullptr || !value->is_number()) {
    ADD_FAILURE() << "missing number '" << key << "'";
    return std::numeric_limits<double>::quiet_NaN();
  }
  return value->as_number();
}

const std::vector<json::Value>& array(const json::Value& object,
                                      const char* key) {
  static const std::vector<json::Value> kEmpty;
  const json::Value* value = object.find(key);
  if (value == nullptr || !value->is_array()) {
    ADD_FAILURE() << "missing array '" << key << "'";
    return kEmpty;
  }
  return value->items();
}

}  // namespace

void expect_valid_explain_v1(const json::Value& document) {
  EXPECT_EQ(document.string_or("schema", ""), report::kExplainSchema);
  const double period = number(document, "period_seconds");
  EXPECT_TRUE(period > 0.0 && std::isfinite(period)) << period;
  const double gpus = number(document, "gpus");

  const std::vector<json::Value>& stages = array(document, "stages");
  EXPECT_EQ(static_cast<double>(stages.size()),
            number(document, "num_stages"));
  for (const json::Value& stage : stages) {
    EXPECT_GE(number(stage, "max_in_flight"), 1.0);
    EXPECT_GE(number(stage, "processor"), 0.0);
    EXPECT_LT(number(stage, "processor"), gpus);
  }

  // Utilizations are fractions of the period, and the critical resource is
  // the argmax of the table.
  const std::vector<json::Value>& resources = array(document, "resources");
  EXPECT_GE(static_cast<double>(resources.size()), gpus);
  const std::string critical = document.string_or("critical_resource", "");
  const double critical_utilization =
      number(document, "critical_utilization");
  bool critical_listed = false;
  for (const json::Value& resource : resources) {
    const std::string name = resource.string_or("resource", "");
    const double utilization = number(resource, "utilization");
    EXPECT_GE(utilization, 0.0) << name;
    EXPECT_LE(utilization, 1.0) << name;
    EXPECT_NEAR(utilization + number(resource, "bubble_fraction"), 1.0, 1e-9)
        << name;
    EXPECT_LE(utilization, critical_utilization) << name;
    if (name == critical) {
      critical_listed = true;
      EXPECT_EQ(utilization, critical_utilization) << name;
    }
  }
  EXPECT_TRUE(critical_listed) << critical;
  EXPECT_GE(number(document, "mean_gpu_utilization"), 0.0);
  EXPECT_LE(number(document, "mean_gpu_utilization"), 1.0);

  const std::vector<json::Value>& memory = array(document, "memory");
  EXPECT_EQ(static_cast<double>(memory.size()), gpus);
  for (const json::Value& gpu : memory) {
    const std::string where =
        "gpu " + std::to_string(static_cast<int>(gpu.number_or("gpu", -1)));
    const double peak = number(gpu, "peak_bytes");
    EXPECT_EQ(number(gpu, "headroom_bytes"),
              number(gpu, "limit_bytes") - peak)
        << where;
    const double terms =
        number(gpu, "weights_bytes") + number(gpu, "scratch_bytes") +
        number(gpu, "comm_buffers_bytes") +
        number(gpu, "activations_peak_bytes");
    EXPECT_NEAR(terms, peak, 1e-6 * std::max(1.0, std::abs(peak))) << where;
    const std::string binding = gpu.string_or("binding_term", "");
    EXPECT_TRUE(binding == "weights" || binding == "activations" ||
                binding == "comm_buffers")
        << where << ": " << binding;
    const std::vector<json::Value>& curve = array(gpu, "curve");
    EXPECT_FALSE(curve.empty()) << where;
    double previous = -1.0, highest = 0.0;
    for (const json::Value& point : curve) {
      const double time = number(point, "time_seconds");
      EXPECT_GE(time, 0.0) << where;
      EXPECT_LT(time, period) << where;
      EXPECT_GT(time, previous) << where;
      previous = time;
      highest = std::max(highest, number(point, "bytes"));
    }
    EXPECT_EQ(highest, peak) << where;
  }
  // The ASAP execution of a valid pattern never runs slower than the
  // pattern's own period.
  if (document.bool_or("simulated", false)) {
    EXPECT_LE(number(document, "period_delta_fraction"), 1e-6);
  }
}

}  // namespace test

namespace {

struct ZooCell {
  std::string network;
  int processors = 0;
};

std::string cell_name(const ::testing::TestParamInfo<ZooCell>& info) {
  return info.param.network + "_P" + std::to_string(info.param.processors);
}

MadPipeOptions quick_options() {
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  return options;
}

Chain zoo_chain(const std::string& network) {
  models::NetworkConfig config;
  config.network = network;
  config.image_size = 500;  // half the paper's size: keeps tests fast
  config.batch = 8;
  config.chain_length = 16;
  return models::build_network(config);
}

class PlanReportZoo : public ::testing::TestWithParam<ZooCell> {};

// The report's per-GPU watermark is the verifier's own number, bit for bit,
// its decomposition sums back to the peak, and every utilization is a
// fraction of the period.
TEST_P(PlanReportZoo, PeakBitMatchesVerifierAndBoundsSimulation) {
  const Chain chain = zoo_chain(GetParam().network);
  const Platform platform{GetParam().processors, 8 * GB, 12 * GB};
  const std::optional<Plan> plan = plan_madpipe(chain, platform, quick_options());
  if (!plan) GTEST_SKIP() << "infeasible";

  const ValidationResult check =
      validate_pattern(plan->pattern, plan->allocation, chain, platform);
  ASSERT_TRUE(check.valid) << (check.errors.empty() ? "" : check.errors[0]);

  report::PlanReportOptions options;
  options.simulation_batches = 48;
  const report::PlanReport rep =
      report::build_plan_report(*plan, chain, platform, options);

  EXPECT_EQ(rep.gpus, platform.processors);
  ASSERT_EQ(rep.memory.size(), static_cast<std::size_t>(platform.processors));
  ASSERT_EQ(rep.stages.size(), static_cast<std::size_t>(rep.num_stages));

  for (int p = 0; p < platform.processors; ++p) {
    const report::GpuMemoryReport& mem = rep.memory[p];
    // Bitwise: the report reuses the verifier's event sweep and sums the
    // identical static_memory + peak_activation expression.
    EXPECT_EQ(mem.peak_bytes, check.processor_memory_peak[p]) << "gpu" << p;
    EXPECT_EQ(mem.headroom_bytes, mem.limit_bytes - mem.peak_bytes);
    EXPECT_EQ(mem.limit_bytes, platform.memory_per_processor);
    EXPECT_LE(mem.peak_bytes, mem.limit_bytes * (1.0 + 1e-9));
    // The §3 decomposition covers the peak (terms are summed in a
    // different order than static_memory, so compare with a relative
    // tolerance, not bitwise).
    const Bytes sum = mem.weights_bytes + mem.scratch_bytes +
                      mem.comm_buffers_bytes + mem.activations_peak_bytes;
    EXPECT_NEAR(sum, mem.peak_bytes, 1e-9 * std::max(1.0, mem.peak_bytes));
    // The curve never exceeds the watermark and is time-sorted in [0, T).
    ASSERT_FALSE(mem.curve.empty());
    for (std::size_t i = 0; i < mem.curve.size(); ++i) {
      EXPECT_LE(mem.curve[i].bytes, mem.peak_bytes * (1.0 + 1e-12));
      EXPECT_GE(mem.curve[i].time, 0.0);
      EXPECT_LT(mem.curve[i].time, rep.period);
      if (i > 0) {
        EXPECT_GT(mem.curve[i].time, mem.curve[i - 1].time);
      }
    }
    const auto highest =
        std::max_element(mem.curve.begin(), mem.curve.end(),
                         [](const report::MemoryCurvePoint& a,
                            const report::MemoryCurvePoint& b) {
                           return a.bytes < b.bytes;
                         });
    EXPECT_EQ(highest->bytes, mem.peak_bytes);
  }

  double max_utilization = 0.0;
  for (const report::ResourceReport& resource : rep.resources) {
    EXPECT_GE(resource.utilization, 0.0) << resource.resource.to_string();
    EXPECT_LE(resource.utilization, 1.0) << resource.resource.to_string();
    EXPECT_DOUBLE_EQ(resource.bubble_fraction, 1.0 - resource.utilization);
    max_utilization = std::max(max_utilization, resource.utilization);
  }
  EXPECT_DOUBLE_EQ(rep.critical_utilization, max_utilization);
  EXPECT_GE(rep.mean_gpu_utilization, 0.0);
  EXPECT_LE(rep.mean_gpu_utilization, 1.0);

  // The ASAP execution never holds more memory than the pattern's steady
  // state certifies (it can only free earlier), and never runs slower.
  ASSERT_TRUE(rep.simulated);
  const SimulationResult sim = simulate_pattern(plan->pattern, plan->allocation,
                                                chain, platform, {48});
  for (int p = 0; p < platform.processors; ++p) {
    EXPECT_LE(sim.processor_memory_peak[p],
              rep.memory[p].peak_bytes * (1.0 + 1e-9))
        << "gpu" << p;
  }
  EXPECT_LE(rep.simulated_period, rep.period * (1.0 + 1e-6));
  EXPECT_LE(rep.period_delta_fraction, 1e-6);

  // The summary digests the same report: max peak, min headroom.
  const report::ExplainSummary summary = report::summarize(rep);
  Bytes max_peak = 0.0;
  Bytes min_headroom = rep.memory[0].headroom_bytes;
  for (const report::GpuMemoryReport& mem : rep.memory) {
    max_peak = std::max(max_peak, mem.peak_bytes);
    min_headroom = std::min(min_headroom, mem.headroom_bytes);
  }
  EXPECT_EQ(summary.memory_peak_bytes, max_peak);
  EXPECT_EQ(summary.memory_headroom_bytes, min_headroom);
  EXPECT_EQ(summary.period, rep.period);
  EXPECT_EQ(summary.critical_resource, rep.critical_resource.to_string());
  EXPECT_EQ(summary.binding_term,
            rep.memory[summary.binding_gpu].binding_term);

  const json::ParseResult parsed =
      json::parse(report::plan_report_to_json(rep));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  test::expect_valid_explain_v1(parsed.value);
}

std::vector<ZooCell> zoo_matrix() {
  std::vector<ZooCell> cells;
  for (const std::string& network : models::list_networks()) {
    for (const int processors : {2, 4, 8}) {
      cells.push_back({network, processors});
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(Zoo, PlanReportZoo, ::testing::ValuesIn(zoo_matrix()),
                         cell_name);

struct TinyCase {
  Chain chain;
  Platform platform;
  Plan plan;
};

TinyCase tiny_case() {
  Chain chain = make_uniform_chain(4, ms(2), ms(4), MB, 8 * MB, MB);
  const Platform platform{2, 2 * GB, 12 * GB};
  std::optional<Plan> plan = plan_madpipe(chain, platform, quick_options());
  // .value() throws (failing the test) if the tiny case ever went infeasible.
  return {std::move(chain), platform, std::move(plan.value())};
}

TEST(PlanReportJson, EmitsStrictExplainV1Schema) {
  const TinyCase t = tiny_case();
  const Chain& chain = t.chain;
  const Platform& platform = t.platform;
  const Plan& plan = t.plan;
  const report::PlanReport rep = report::build_plan_report(plan, chain, platform);
  const json::ParseResult parsed = json::parse(report::plan_report_to_json(rep));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const json::Value& root = parsed.value;
  EXPECT_EQ(root.string_or("schema", ""), report::kExplainSchema);
  EXPECT_GT(root.number_or("period_seconds", 0.0), 0.0);
  EXPECT_EQ(root.number_or("gpus", 0.0), 2.0);
  const json::Value* stages = root.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  for (const json::Value& stage : stages->items()) {
    EXPECT_NE(stage.find("processor"), nullptr);
    EXPECT_NE(stage.find("forward_seconds"), nullptr);
    EXPECT_NE(stage.find("backward_seconds"), nullptr);
    EXPECT_NE(stage.find("weight_bytes"), nullptr);
    EXPECT_NE(stage.find("max_in_flight"), nullptr);
  }
  const json::Value* resources = root.find("resources");
  ASSERT_NE(resources, nullptr);
  ASSERT_GE(resources->items().size(), 2u);  // 2 GPUs + any links
  const json::Value* memory = root.find("memory");
  ASSERT_NE(memory, nullptr);
  ASSERT_EQ(memory->items().size(), 2u);
  for (const json::Value& gpu : memory->items()) {
    const double limit = gpu.number_or("limit_bytes", -1.0);
    const double peak = gpu.number_or("peak_bytes", -1.0);
    EXPECT_EQ(gpu.number_or("headroom_bytes", -1.0), limit - peak);
    EXPECT_NE(gpu.find("binding_term"), nullptr);
    const json::Value* curve = gpu.find("curve");
    ASSERT_NE(curve, nullptr);
    EXPECT_FALSE(curve->items().empty());
  }
  EXPECT_NE(root.find("critical_resource"), nullptr);
  EXPECT_NE(root.find("mean_gpu_utilization"), nullptr);
}

// The committed `madpipe explain` example stays a consistent document.
TEST(PlanReportJson, CommittedExampleIsConsistent) {
  std::ifstream in(std::string(MADPIPE_SOURCE_DIR) +
                   "/examples/explain_resnet50_p2.json");
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::ParseResult parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  test::expect_valid_explain_v1(parsed.value);
}

// The human rendering mentions every section a user debugs with.
TEST(PlanReportJson, HumanRenderingHasAllSections) {
  const TinyCase t = tiny_case();
  const Chain& chain = t.chain;
  const Platform& platform = t.platform;
  const Plan& plan = t.plan;
  report::PlanReportOptions options;
  options.run_simulation = false;
  const std::string text = report::plan_report_to_string(
      report::build_plan_report(plan, chain, platform, options));
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("critical resource"), std::string::npos);
  EXPECT_NE(text.find("gpu0"), std::string::npos);
  EXPECT_NE(text.find("headroom"), std::string::npos);
}

TEST(PlanReportTimeline, OneProcessPerGpuAndPerLink) {
  const TinyCase t = tiny_case();
  const Platform& platform = t.platform;
  const Plan& plan = t.plan;
  constexpr int kPeriods = 3;
  const std::string text = report::timeline_to_chrome_json(
      plan.pattern, plan.allocation, {kPeriods});
  const json::ParseResult parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const json::Value* events = parsed.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Expected processes: every GPU of the platform plus every link the
  // pattern communicates over.
  std::set<std::string> expected;
  for (int p = 0; p < platform.processors; ++p) {
    expected.insert(ResourceId::processor(p).to_string());
  }
  for (const PatternOp& op : plan.pattern.ops) {
    if (op.resource.kind == ResourceId::Kind::Link) {
      expected.insert(op.resource.to_string());
    }
  }

  std::set<std::string> named;
  std::set<double> named_pids;
  std::size_t slices = 0;
  for (const json::Value& event : events->items()) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "M") {
      ASSERT_EQ(event.string_or("name", ""), "process_name");
      const json::Value* margs = event.find("args");
      ASSERT_NE(margs, nullptr);
      named.insert(margs->string_or("name", ""));
      named_pids.insert(event.number_or("pid", -1.0));
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++slices;
    EXPECT_GE(event.number_or("ts", -1.0), 0.0);
    EXPECT_GT(event.number_or("dur", 0.0), 0.0);
    const json::Value* args = event.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_GE(args->number_or("batch", -1.0), 0.0);
    EXPECT_GE(args->number_or("stage", -1.0), 0.0);
    // Every slice lands in a declared process and carries a palette color.
    EXPECT_EQ(named_pids.count(event.number_or("pid", -1.0)), 1u);
    EXPECT_FALSE(event.string_or("cname", "").empty());
  }
  EXPECT_EQ(named, expected);
  EXPECT_EQ(named_pids.size(), expected.size());
  // Unrolling emits at most ops × periods slices; ops whose shift exceeds
  // the period index are skipped (their batch would be < 0), so warm-up
  // periods emit fewer.
  EXPECT_GT(slices, 0u);
  EXPECT_LE(slices, plan.pattern.ops.size() * kPeriods);
}

TEST(PlanReportSummary, ScaleSummaryIsExactForPowerOfTwoUnits) {
  const TinyCase t = tiny_case();
  const Chain& chain = t.chain;
  const Platform& platform = t.platform;
  const Plan& plan = t.plan;
  const report::ExplainSummary base =
      report::build_explain_summary(plan, chain, platform);
  const report::ExplainSummary scaled = report::scale_summary(base, 4.0, 0.5);
  EXPECT_EQ(scaled.period, base.period * 4.0);
  EXPECT_EQ(scaled.memory_peak_bytes, base.memory_peak_bytes * 0.5);
  EXPECT_EQ(scaled.memory_headroom_bytes, base.memory_headroom_bytes * 0.5);
  // Ratios and labels are unit-free.
  EXPECT_EQ(scaled.critical_utilization, base.critical_utilization);
  EXPECT_EQ(scaled.bubble_fraction, base.bubble_fraction);
  EXPECT_EQ(scaled.mean_gpu_utilization, base.mean_gpu_utilization);
  EXPECT_EQ(scaled.critical_resource, base.critical_resource);
  EXPECT_EQ(scaled.binding_gpu, base.binding_gpu);
  EXPECT_EQ(scaled.binding_term, base.binding_term);
}

TEST(PlanReportSummary, BuildExplainSummaryMatchesFullReport) {
  const TinyCase t = tiny_case();
  const Chain& chain = t.chain;
  const Platform& platform = t.platform;
  const Plan& plan = t.plan;
  report::PlanReportOptions options;
  options.run_simulation = false;
  const report::ExplainSummary direct =
      report::build_explain_summary(plan, chain, platform);
  const report::ExplainSummary via_report =
      report::summarize(report::build_plan_report(plan, chain, platform, options));
  EXPECT_EQ(direct.period, via_report.period);
  EXPECT_EQ(direct.memory_peak_bytes, via_report.memory_peak_bytes);
  EXPECT_EQ(direct.memory_headroom_bytes, via_report.memory_headroom_bytes);
  EXPECT_EQ(direct.critical_resource, via_report.critical_resource);
  EXPECT_EQ(direct.critical_utilization, via_report.critical_utilization);
}

}  // namespace
}  // namespace madpipe
