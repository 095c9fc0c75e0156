// Seed pins: the periods and allocations the planner and the plan service
// produced on paper cells before any of their fast paths existed, asserted
// bit for bit. Every later speedup (speculative bisection, the flat DP
// engine, its transition panels, the phase-2 leaf gate) had to be a pure
// speedup; a row that moves here means a result changed. Doubles are
// recorded as IEEE-754 bit patterns, the way Phase2Golden records them.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace madpipe {
namespace {

/// What one row runs. Plan / Phase1 / DpProbe use the paper grid; the
/// Serve* rows send the request with default options through a fresh
/// PlanService and also check the served plan against direct planning.
enum class Probe { Plan, Phase1, DpProbe, ServeMiss, ServeHit, ServeScaledHit };

struct SeedPin {
  const char* name;
  Probe probe;
  const char* network;  ///< models::paper_network (1000x1000, batch 8)
  int gpus;
  double memory_gb;
  std::uint64_t period_bits;
  std::uint64_t phase1_period_bits;
  const char* allocation;  ///< serve::allocation_fingerprint
};

// The Serve* rows' phase-1 periods are the direct plan's (x4 when rescaled);
// everything else is copied from the recorded seed.
const SeedPin kSeedPins[] = {
    {"plan_resnet50_p4_m8", Probe::Plan, "resnet50", 4, 8.0,
     0x3fcc8ff660b0e19fULL, 0x3fc513c93c555ca9ULL,
     "1-3@3;4-7@0;8-9@3;10-13@1;14-17@2;18-18@3"},
    {"plan_resnet101_24_p4_m8", Probe::Plan, "resnet101", 4, 8.0,
     0x3fd4f412657368d4ULL, 0x3fd298be0ab6a220ULL,
     "1-3@3;4-8@0;9-10@3;11-16@1;17-24@2"},
    {"plan_resnet101_24_p8_m8", Probe::Plan, "resnet101", 8, 8.0,
     0x3fca4acc6368645aULL, 0x3fc5199e5965c90bULL,
     "1-2@0;3-3@7;4-6@1;7-8@2;9-10@3;11-11@7;12-14@4;15-19@5;20-20@7;"
     "21-24@6"},
    {"plan_resnet101_24_p8_m16", Probe::Plan, "resnet101", 8, 16.0,
     0x3fc43d4e12d53e3aULL, 0x3fc43d4e12d53e3aULL,
     "1-2@0;3-5@1;6-7@7;8-9@2;10-11@3;12-14@4;15-19@5;20-23@6;24-24@7"},
    {"phase1_resnet101_24_p8_m8", Probe::Phase1, "resnet101", 8, 8.0,
     0x3fc5199e5965c90bULL, 0x3fc5199e5965c90bULL,
     "1-2@0;3-3@7;4-6@1;7-8@2;9-10@3;11-11@7;12-14@4;15-19@5;20-20@7;"
     "21-24@6"},
    {"dp_resnet101_24_p4_m8", Probe::DpProbe, "resnet101", 4, 8.0,
     0x3fd298be0ab6a220ULL, 0x3fd298be0ab6a220ULL,
     "1-3@3;4-8@0;9-10@3;11-16@1;17-24@2"},
    {"serve_miss", Probe::ServeMiss, "resnet101", 4, 8.0,
     0x3fd4f412657368d4ULL, 0x3fd298be0ab6a220ULL,
     "1-3@3;4-8@0;9-10@3;11-16@1;17-24@2"},
    {"serve_hit", Probe::ServeHit, "resnet101", 4, 8.0,
     0x3fd4f412657368d4ULL, 0x3fd298be0ab6a220ULL,
     "1-3@3;4-8@0;9-10@3;11-16@1;17-24@2"},
    {"serve_scaled_hit", Probe::ServeScaledHit, "resnet101", 4, 8.0,
     0x3ff4f412657368d4ULL, 0x3ff298be0ab6a220ULL,
     "1-3@3;4-8@0;9-10@3;11-16@1;17-24@2"},
};

/// gtest puts the printed parameter in each test's listed name. Without this
/// it prints the struct's raw bytes, and the pointer fields among them move
/// with every build and every load address, so the names would too.
void PrintTo(const SeedPin& pin, std::ostream* os) {
  switch (pin.probe) {
    case Probe::Plan: *os << "Plan"; return;
    case Probe::Phase1: *os << "Phase1"; return;
    case Probe::DpProbe: *os << "DpProbe"; return;
    case Probe::ServeMiss: *os << "ServeMiss"; return;
    case Probe::ServeHit: *os << "ServeHit"; return;
    case Probe::ServeScaledHit: *os << "ServeScaledHit"; return;
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// The chain with every duration x time_factor and every byte quantity x
/// byte_factor (powers of two here, so the scaling is exact).
Chain scale_chain(const Chain& chain, double time_factor, double byte_factor) {
  std::vector<Layer> layers;
  for (int l = 1; l <= chain.length(); ++l) {
    Layer layer = chain.layer(l);
    layer.forward_time *= time_factor;
    layer.backward_time *= time_factor;
    layer.weight_bytes *= byte_factor;
    layer.output_bytes *= byte_factor;
    layer.scratch_bytes *= byte_factor;
    layers.push_back(std::move(layer));
  }
  return Chain(chain.name() + "_scaled", chain.activation(0) * byte_factor,
               std::move(layers));
}

serve::PlanRequest serve_request(const Chain& chain, const Platform& platform) {
  return serve::PlanRequest{"seed",           chain,
                            platform,         serve::PlannerKind::MadPipe,
                            MadPipeOptions{}, 0.0};
}

/// A served plan, after checking its cache outcome and that it is bit
/// identical to planning the same request directly.
std::optional<Plan> served_plan(serve::PlanService& service,
                                const serve::PlanRequest& request,
                                serve::CacheOutcome expected) {
  const serve::PlanResponse response = service.plan(request);
  EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
  EXPECT_EQ(response.cache, expected);
  const std::optional<Plan> direct =
      plan_madpipe(request.chain, request.platform, request.options);
  if (response.plan.has_value() && direct.has_value()) {
    EXPECT_TRUE(serve::plans_bit_identical(*response.plan, *direct));
  }
  return response.plan;
}

class SeedPins : public ::testing::TestWithParam<SeedPin> {};

TEST_P(SeedPins, PeriodAndAllocationMatchTheSeed) {
  const SeedPin& pin = GetParam();
  const Chain chain = models::paper_network(pin.network);
  const Platform platform{pin.gpus, pin.memory_gb * GB, 12 * GB};
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::paper();

  double period = 0.0, phase1_period = 0.0;
  std::optional<Allocation> allocation;
  switch (pin.probe) {
    case Probe::Plan: {
      const std::optional<Plan> plan = plan_madpipe(chain, platform, options);
      ASSERT_TRUE(plan.has_value());
      period = plan->period();
      phase1_period = plan->phase1_period;
      allocation = plan->allocation;
      break;
    }
    case Probe::Phase1: {
      const Phase1Result phase1 =
          madpipe_phase1(chain, platform, options.phase1);
      ASSERT_TRUE(phase1.feasible());
      period = phase1_period = phase1.period;
      allocation = phase1.allocation;
      break;
    }
    case Probe::DpProbe: {
      const MadPipeDPResult probe = madpipe_dp(
          chain, platform, chain.total_compute() / pin.gpus, options.phase1.dp);
      ASSERT_TRUE(probe.allocation.has_value());
      period = phase1_period = probe.period;
      allocation = probe.allocation;
      break;
    }
    case Probe::ServeMiss:
    case Probe::ServeHit:
    case Probe::ServeScaledHit: {
      serve::PlanService service;
      const serve::PlanRequest request = serve_request(chain, platform);
      std::optional<Plan> plan =
          served_plan(service, request, serve::CacheOutcome::Miss);
      if (pin.probe == Probe::ServeHit) {
        plan = served_plan(service, request, serve::CacheOutcome::Hit);
      } else if (pin.probe == Probe::ServeScaledHit) {
        // Durations x4, bytes x2, with M and beta following: the same
        // canonical request, so a hit rescaled to the new units.
        const Platform scaled{platform.processors,
                              platform.memory_per_processor * 2,
                              platform.bandwidth * 2 / 4};
        plan = served_plan(service,
                           serve_request(scale_chain(chain, 4, 2), scaled),
                           serve::CacheOutcome::Hit);
      }
      ASSERT_TRUE(plan.has_value());
      period = plan->period();
      phase1_period = plan->phase1_period;
      allocation = plan->allocation;
      break;
    }
  }
  EXPECT_EQ(bits(period), pin.period_bits) << period;
  EXPECT_EQ(bits(phase1_period), pin.phase1_period_bits) << phase1_period;
  ASSERT_TRUE(allocation.has_value());
  EXPECT_EQ(serve::allocation_fingerprint(*allocation), pin.allocation);
}

INSTANTIATE_TEST_SUITE_P(
    Seed, SeedPins, ::testing::ValuesIn(kSeedPins),
    [](const ::testing::TestParamInfo<SeedPin>& row) {
      return std::string(row.param.name);
    });

}  // namespace
}  // namespace madpipe
