#include "madpipe/planner_stats.hpp"

#include "util/json.hpp"

namespace madpipe {

void PlannerStats::absorb(const PlannerStats& other) noexcept {
#define MADPIPE_PLANNER_ABSORB(kind, field, metric, help) \
  field = obs::merge(obs::kind{}, field, other.field);
  MADPIPE_PLANNER_STATS(MADPIPE_PLANNER_ABSORB)
#undef MADPIPE_PLANNER_ABSORB
}

void PlannerStats::write_json(json::Writer& writer) const {
  writer.begin_object();
#define MADPIPE_PLANNER_JSON(kind, field, metric, help) \
  writer.key(#field);                                   \
  writer.value(field);
  MADPIPE_PLANNER_STATS(MADPIPE_PLANNER_JSON)
#undef MADPIPE_PLANNER_JSON
  writer.end_object();
}

void PlannerStats::publish() const {
  // Every row's registry entity, bound together on the first publish
  // (entities are process-lifetime); publish() itself is only relaxed
  // atomic updates.
  struct Bound {
#define MADPIPE_PLANNER_BIND(kind, field, metric, help) \
  obs::kind::entity& field = obs::bind(obs::kind{}, metric, help);
    MADPIPE_PLANNER_STATS(MADPIPE_PLANNER_BIND)
#undef MADPIPE_PLANNER_BIND
  };
  static const Bound bound;
#define MADPIPE_PLANNER_PUBLISH(kind, field, metric, help) \
  obs::record(bound.field, field);
  MADPIPE_PLANNER_STATS(MADPIPE_PLANNER_PUBLISH)
#undef MADPIPE_PLANNER_PUBLISH
}

}  // namespace madpipe
