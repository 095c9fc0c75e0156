// Renders the periodic patterns of the paper's illustrations: the valid
// pattern of Figure 2 and a 1F1B* group schedule in the spirit of Figure 3,
// as ASCII Gantt charts, plus a MadPipe plan on a real network profile.
//
//   $ ./examples/gantt_visualizer
#include <cstdio>

#include "madpipe/planner.hpp"
#include "models/zoo.hpp"
#include "schedule/one_f_one_b.hpp"
#include "sim/trace.hpp"
#include "util/format.hpp"

using namespace madpipe;

namespace {

void show(const char* title, const Plan& plan, const Chain& chain) {
  std::printf("== %s ==\n", title);
  std::printf("%s", plan_to_string(plan, chain,
                                   Platform{plan.allocation.num_processors(),
                                            1e9 * GB, 12 * GB})
                        .c_str());
  std::printf("%s\n", render_gantt(plan.pattern, {96, 2}).c_str());
}

}  // namespace

int main() {
  // A three-stage toy pipeline (Figure 2/3 scale): uneven stages so the
  // group structure of 1F1B* is visible.
  std::vector<Layer> layers{
      {"front", ms(12), ms(24), 4 * MB, 60 * MB},
      {"mid1", ms(6), ms(12), 8 * MB, 40 * MB},
      {"mid2", ms(5), ms(10), 8 * MB, 30 * MB},
      {"back", ms(4), ms(7), 16 * MB, 4 * MB},
  };
  const Chain toy("toy", 50 * MB, std::move(layers));
  const Platform platform{3, 2 * GB, 12 * GB};

  const Allocation allocation =
      make_contiguous_allocation(toy, {{1, 1}, {2, 3}, {4, 4}}, 3);
  const auto plan = plan_one_f_one_b(allocation, toy, platform);
  if (plan) show("1F1B* on a 3-stage toy pipeline", *plan, toy);

  // The same machinery on the paper's ResNet-50 profile with MadPipe.
  const Chain resnet = models::paper_network("resnet50");
  const Platform cluster{4, 8 * GB, 12 * GB};
  const auto madpipe_plan = plan_madpipe(resnet, cluster);
  if (madpipe_plan) {
    show("MadPipe on ResNet-50 @ 1000x1000 (4 GPUs, 8 GB)", *madpipe_plan,
         resnet);
  }
  return 0;
}
