// How much GPU memory does a training setup actually need? This example
// walks a memory ladder for a chosen network and reports, per memory size,
// what each planning strategy can achieve — the single-machine what-if tool
// the paper's Figure 6 is built from, extended with the memory-aware
// contiguous ablation.
//
//   $ ./examples/memory_exploration [network] [num_gpus]
//     network in {resnet50, resnet101, inception_v3, densenet121}
#include <cstdio>
#include <cstdlib>
#include <string>

#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "pipedream/pipedream.hpp"
#include "util/format.hpp"

using namespace madpipe;

namespace {

std::string describe(const std::optional<Plan>& plan, const Chain& chain) {
  if (!plan) return "infeasible";
  return fmt::seconds(plan->period()) + " (" +
         fmt::fixed(plan->speedup(chain), 2) + "x)";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string network = argc > 1 ? argv[1] : "densenet121";
  const int gpus = argc > 2 ? std::atoi(argv[2]) : 4;

  const Chain chain = models::paper_network(network);
  std::printf("%s @ 1000x1000 batch 8 on %d GPUs — period (speedup over "
              "sequential %s)\n\n", network.c_str(), gpus,
              fmt::seconds(chain.total_compute()).c_str());

  fmt::Table table({"memory", "pipedream", "madpipe", "madpipe-contiguous"});
  for (const double memory_gb : {2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0}) {
    const Platform platform{gpus, memory_gb * GB, 12 * GB};

    const auto pipedream = plan_pipedream(chain, platform);

    MadPipeOptions madpipe_options;
    const auto madpipe_plan = plan_madpipe(chain, platform, madpipe_options);

    MadPipeOptions contiguous_options;
    contiguous_options.phase1.dp.allow_special = false;
    const auto contiguous = plan_madpipe(chain, platform, contiguous_options);

    table.add_row({fmt::bytes(memory_gb * GB), describe(pipedream, chain),
                   describe(madpipe_plan, chain),
                   describe(contiguous, chain)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Reading: 'infeasible' means weights plus a single in-flight\n"
              "batch of activations exceed the per-GPU memory under every\n"
              "possible split — more GPUs or more memory is required.\n");
  return 0;
}
