// Planner runtime microbenchmarks (google-benchmark): the cost of
// MadPipe-DP as a function of chain length, processor count and grid
// granularity, plus the supporting machinery (1F1B* and the cyclic
// scheduler). The paper reports "several seconds … up to 15 minutes"
// at its discretization on its (longer) profiled chains; these measurements
// document where our implementation stands.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "pipedream/pipedream.hpp"
#include "schedule/one_f_one_b.hpp"

namespace {

using namespace madpipe;

Chain bench_chain(int length) {
  models::NetworkConfig config;
  config.network = "resnet101";
  config.image_size = 1000;
  config.batch = 8;
  config.chain_length = length;
  return models::build_network(config);
}

void BM_MadPipeDP_ChainLength(benchmark::State& state) {
  const Chain chain = bench_chain(static_cast<int>(state.range(0)));
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  options.grid = Discretization::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        madpipe_dp(chain, platform, chain.total_compute() / 4, options));
  }
}
BENCHMARK(BM_MadPipeDP_ChainLength)->Arg(8)->Arg(16)->Arg(24)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_MadPipeDP_Processors(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  options.grid = Discretization::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(madpipe_dp(
        chain, platform, chain.total_compute() / platform.processors,
        options));
  }
}
BENCHMARK(BM_MadPipeDP_Processors)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MadPipeDP_GridPoints(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{4, 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  const int scale = static_cast<int>(state.range(0));
  options.grid = Discretization{25 * scale + 1, 5 * scale + 1, 12 * scale + 1,
                                RoundingMode::Nearest};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        madpipe_dp(chain, platform, chain.total_compute() / 4, options));
  }
}
BENCHMARK(BM_MadPipeDP_GridPoints)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MadPipePhase1_Full(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  Phase1Options options;
  options.dp.grid = Discretization::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(madpipe_phase1(chain, platform, options));
  }
}
BENCHMARK(BM_MadPipePhase1_Full)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// One DP probe at paper discretization with state-rate and cache-behaviour
// counters: the unit of work every phase-1 iteration repeats.
void BM_MadPipeDPProbe(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  MadPipeDPOptions options;
  options.grid = Discretization::paper();
  const Seconds target = chain.total_compute() / platform.processors;
  PlannerStats total;
  std::size_t states = 0;
  for (auto _ : state) {
    const MadPipeDPResult dp = madpipe_dp(chain, platform, target, options);
    benchmark::DoNotOptimize(dp.period);
    states += dp.states_visited;
    total.absorb(dp.stats);
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  if (total.memo_child_lookups > 0) {
    state.counters["memo_hit%"] =
        100.0 * static_cast<double>(total.memo_hits) /
        static_cast<double>(total.memo_child_lookups);
  }
  if (total.transition_lookups > 0) {
    state.counters["trans_hit%"] =
        100.0 * static_cast<double>(total.transition_hits) /
        static_cast<double>(total.transition_lookups);
  }
}
BENCHMARK(BM_MadPipeDPProbe)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Full Algorithm-1 bisection with the probe-level counters aggregated, so a
// states/s regression is visible end to end and not only per probe.
void BM_Phase1(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{static_cast<int>(state.range(0)), 8 * GB, 12 * GB};
  Phase1Options options;
  options.dp.grid = Discretization::paper();
  PlannerStats total;
  for (auto _ : state) {
    const Phase1Result phase1 = madpipe_phase1(chain, platform, options);
    benchmark::DoNotOptimize(phase1.period);
    total.absorb(phase1.stats);
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(total.dp_states), benchmark::Counter::kIsRate);
  state.counters["dp_probes"] = static_cast<double>(total.dp_probes);
  state.counters["spec_hits"] = static_cast<double>(total.speculative_hits);
}
BENCHMARK(BM_Phase1)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_PipeDreamPartition(benchmark::State& state) {
  const Chain chain = bench_chain(static_cast<int>(state.range(0)));
  const Platform platform{8, 8 * GB, 12 * GB};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipedream_partition(chain, platform));
  }
}
BENCHMARK(BM_PipeDreamPartition)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_OneFOneBPlan(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{8, 8 * GB, 12 * GB};
  const auto partition = pipedream_partition(chain, platform);
  if (!partition) {
    state.SkipWithError("no partition");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan_one_f_one_b(partition->allocation, chain, platform));
  }
}
BENCHMARK(BM_OneFOneBPlan)->Unit(benchmark::kMicrosecond);

void BM_CyclicScheduler(benchmark::State& state) {
  const Chain chain = bench_chain(24);
  const Platform platform{4, 8 * GB, 12 * GB};
  // A representative non-contiguous allocation: split the PipeDream
  // partition's first stage off to a shared processor.
  Phase1Options options;
  options.dp.grid = Discretization::paper();
  const Phase1Result phase1 = madpipe_phase1(chain, platform, options);
  if (!phase1.feasible()) {
    state.SkipWithError("phase 1 infeasible");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_min_period(*phase1.allocation, chain,
                                             platform, phase1.period));
  }
}
BENCHMARK(BM_CyclicScheduler)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
