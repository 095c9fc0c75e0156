// Ablations of MadPipe's design choices (DESIGN.md experiment index):
//   1. special processor on/off (non-contiguous vs memory-aware contiguous);
//   2. discretization granularity of the DP grids;
//   3. phase-1 lower bound vs the period phase 2 (branch-and-bound) reaches;
//   4. the ⊕-delay communication-term variant (paper-literal vs
//      boundary-consistent, see DESIGN.md "known paper typo");
//   5. eager 1F1B execution vs 1F1B* memory floors (Proposition 1 in vivo);
// plus a batch-size sensitivity sweep (§5.1 argues small-memory scenarios
// stand in for larger batches/images — this shows the equivalence directly).
#include <cstdio>

#include "common.hpp"
#include "cyclic/period_search.hpp"
#include "madpipe/search.hpp"
#include "models/zoo.hpp"
#include "pipedream/pipedream.hpp"
#include "schedule/eager.hpp"
#include "schedule/one_f_one_b.hpp"
#include "util/format.hpp"

using namespace madpipe;
using namespace madpipe::bench;

namespace {

std::string period_or_dash(bool ok, Seconds period) {
  return ok ? fmt::fixed(period * 1e3, 1) : std::string("-");
}

void ablate_special_and_grids() {
  std::printf("-- Ablation 1+2: special processor and grid granularity "
              "(ResNet-50, beta = 12 GB/s, periods in ms) --\n");
  fmt::Table table({"P", "M(GB)", "full/paper", "full/coarse", "no-special",
                    "pipedream"});
  for (const int processors : {2, 4, 8}) {
    for (const double memory : {3.0, 6.0, 10.0, 16.0}) {
      const auto run = [&](bool special, Discretization grid) {
        CellConfig config;
        config.network = "resnet50";
        config.processors = processors;
        config.memory_gb = memory;
        config.madpipe.phase1.dp.grid = grid;
        config.madpipe.phase1.dp.allow_special = special;
        return run_cell(config);
      };
      const CellResult paper_grid = run(true, Discretization::paper());
      const CellResult coarse_grid = run(true, Discretization::coarse());
      const CellResult no_special = run(false, Discretization::paper());
      table.add_row({std::to_string(processors), fmt::fixed(memory, 0),
                     period_cell(paper_grid.madpipe),
                     period_cell(coarse_grid.madpipe),
                     period_cell(no_special.madpipe),
                     period_cell(paper_grid.pipedream)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void ablate_phase2_gap() {
  std::printf("-- Ablation 3: phase-1 lower bound vs B&B period on "
              "non-contiguous allocations (ResNet-50) --\n");
  fmt::Table table({"P", "M(GB)", "phase1(ms)", "bb(ms)"});
  for (const int processors : {2, 4}) {
    for (const double memory : {4.0, 8.0}) {
      const Chain& chain = evaluation_chain("resnet50");
      const Platform platform{processors, memory * GB, 12 * GB};
      Phase1Options options;
      options.dp.grid = Discretization::paper();
      const Phase1Result phase1 = madpipe_phase1(chain, platform, options);
      if (!phase1.feasible() || phase1.allocation->contiguous()) {
        table.add_row({std::to_string(processors), fmt::fixed(memory, 0),
                       phase1.feasible() ? "contiguous" : "inf", "-"});
        continue;
      }
      const PeriodSearchResult bb =
          find_min_period(*phase1.allocation, chain, platform, phase1.period);
      table.add_row({std::to_string(processors), fmt::fixed(memory, 0),
                     fmt::fixed(phase1.period * 1e3, 1),
                     bb.feasible ? fmt::fixed(bb.period * 1e3, 1) : "inf"});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void ablate_delay_variant() {
  std::printf("-- Ablation 4: V-propagation communication term --\n");
  fmt::Table table({"P", "M(GB)", "boundary-consistent", "paper-literal"});
  for (const int processors : {4, 8}) {
    for (const double memory : {4.0, 8.0}) {
      std::vector<std::string> row{std::to_string(processors),
                                   fmt::fixed(memory, 0)};
      for (const auto variant : {DelayCommVariant::BoundaryConsistent,
                                 DelayCommVariant::PaperLiteral}) {
        CellConfig config;
        config.network = "resnet50";
        config.processors = processors;
        config.memory_gb = memory;
        config.madpipe.phase1.dp.grid = Discretization::paper();
        config.madpipe.phase1.dp.delay_comm_variant = variant;
        row.push_back(period_cell(run_cell(config).madpipe));
      }
      table.add_row(std::move(row));
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void ablate_eager_memory() {
  std::printf("-- Ablation 5: eager 1F1B vs 1F1B* memory peaks "
              "(ResNet-50 on PipeDream's partition, M = 16 GB) --\n");
  fmt::Table table({"P", "eager-peak", "1f1b*-peak", "eager/1f1b*",
                    "eager-period(ms)", "1f1b*-period(ms)"});
  for (const int processors : {2, 4, 8}) {
    const Chain& chain = evaluation_chain("resnet50");
    const Platform platform{processors, 16 * GB, 12 * GB};
    const auto partition = pipedream_partition(chain, platform);
    if (!partition) continue;
    const auto eager = simulate_eager(partition->allocation, chain, platform,
                                      {0, 48, true});
    const auto plan = plan_one_f_one_b(partition->allocation, chain, platform);
    if (!plan) continue;
    const auto check =
        validate_pattern(plan->pattern, plan->allocation, chain, platform);
    Bytes eager_peak = 0.0, star_peak = 0.0;
    for (int p = 0; p < processors; ++p) {
      eager_peak = std::max(eager_peak, eager.processor_memory_peak[p]);
      star_peak = std::max(star_peak, check.processor_memory_peak[p]);
    }
    table.add_row({std::to_string(processors), fmt::bytes(eager_peak),
                   fmt::bytes(star_peak),
                   fmt::fixed(eager_peak / star_peak, 2),
                   fmt::fixed(eager.steady_period * 1e3, 1),
                   fmt::fixed(plan->period() * 1e3, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

void batch_size_sensitivity() {
  std::printf("-- Batch-size sensitivity (ResNet-50, P = 4, M = 16 GB): the\n"
              "   paper's 'small memory stands in for large batches' claim --\n");
  fmt::Table table({"batch", "U(1,L)(ms)", "pipedream(ms)", "madpipe(ms)",
                    "PD/MP"});
  for (const int batch : {2, 4, 8, 16, 32}) {
    models::NetworkConfig config;
    config.network = "resnet50";
    config.image_size = 1000;
    config.batch = batch;
    config.chain_length = 24;
    const Chain chain = models::build_network(config);
    const Platform platform{4, 16 * GB, 12 * GB};
    const auto pd = plan_pipedream(chain, platform);
    const auto mp = plan_madpipe(chain, platform, default_bench_options());
    std::string ratio = "-";
    if (pd && mp) ratio = fmt::fixed(pd->period() / mp->period(), 2);
    table.add_row({std::to_string(batch),
                   fmt::fixed(chain.total_compute() * 1e3, 1),
                   period_or_dash(pd.has_value(), pd ? pd->period() : 0),
                   period_or_dash(mp.has_value(), mp ? mp->period() : 0),
                   ratio});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  std::printf("=== MadPipe design-choice ablations ===\n\n");
  ablate_special_and_grids();
  ablate_phase2_gap();
  ablate_delay_variant();
  ablate_eager_memory();
  batch_size_sensitivity();
  return 0;
}
