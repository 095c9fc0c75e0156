// Speculative probe runner for bisection searches, shared by Algorithm 1's
// MadPipe-DP probes (madpipe/search.cpp) and the cyclic period search's
// branch-and-bound probes (cyclic/period_search.cpp).
//
// A bisection consumes probe results strictly in sequence, but the point it
// probes next is a deterministic function of its loop state and of the
// pending probe's outcome. Each search describes that as an outcome tree: a
// node is a point to probe plus enough loop state to predict the nodes the
// search could demand right after it, computed with the search's own
// floating-point expressions and stop rules. When the search demands a point
// that is not cached, the runner expands the tree breadth-first from it
// into a batch of up to W points that are neither cached nor already in the
// batch, and runs the whole batch concurrently. Results are cached under the
// exact bit pattern of their point, so a result is only ever reused for a
// point bit-identical to the one the sequential search would request:
// mispredicted probes are simply never consumed, and consumed results match
// a sequential run for every W.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "util/expect.hpp"
#include "util/threading.hpp"

namespace madpipe::par {

/// Cache of probe results keyed by the probed point, with speculative batch
/// launching. `Node::at` (a double) is the point a node probes.
template <typename Node, typename Result>
class SpeculativeBisection {
 public:
  /// `speculation` is the width W (0 = auto: min(4, hardware threads)).
  /// A batch runs on one lane per probe.
  explicit SpeculativeBisection(int speculation)
      : width_(speculation > 0 ? static_cast<std::size_t>(speculation)
                               : std::min<std::size_t>(4, default_workers())) {}

  /// The result at `node.at`, launching a batch rooted at `node` on a cache
  /// miss. `children(node, out)` appends the nodes the search could demand
  /// right after `node`, in the order to speculate them; `probe(node)` runs
  /// one probe and is called concurrently for the nodes of a batch. The
  /// reference stays valid for the runner's lifetime.
  template <typename Children, typename Probe>
  const Result& demand(const Node& node, Children&& children, Probe&& probe) {
    if (const Result* hit = find(node.at)) {
      ++speculative_hits_;
      return *hit;
    }
    launch_batch(node, children, probe);
    const Result* result = find(node.at);
    MP_ENSURE(result != nullptr, "demanded probe missing from its batch");
    return *result;
  }

  /// Every result launched so far, speculative ones included, in launch
  /// order.
  const std::deque<Result>& results() const noexcept { return results_; }
  /// Probes launched ahead of need (every batch member but its root).
  long long speculative_probes() const noexcept {
    return speculative_probes_;
  }
  /// Demands served by an earlier batch.
  long long speculative_hits() const noexcept { return speculative_hits_; }

 private:
  static std::uint64_t key(double at) {
    return std::bit_cast<std::uint64_t>(at);
  }

  const Result* find(double at) const {
    const auto it = index_.find(key(at));
    return it == index_.end() ? nullptr : &results_[it->second];
  }

  template <typename Children, typename Probe>
  void launch_batch(const Node& root, Children& children, Probe& probe) {
    std::vector<Node> batch{root};
    std::vector<Node> next;
    for (std::size_t i = 0; i < batch.size() && batch.size() < width_; ++i) {
      next.clear();
      children(batch[i], next);
      for (const Node& child : next) {
        if (batch.size() >= width_) break;
        const std::uint64_t child_key = key(child.at);
        if (index_.count(child_key)) continue;
        const bool queued =
            std::any_of(batch.begin(), batch.end(), [&](const Node& pending) {
              return key(pending.at) == child_key;
            });
        if (!queued) batch.push_back(child);
      }
    }

    std::vector<Result> results(batch.size());
    parallel_for(
        0, batch.size(), [&](std::size_t i) { results[i] = probe(batch[i]); },
        batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      index_.emplace(key(batch[i].at), results_.size());
      results_.push_back(std::move(results[i]));
    }
    speculative_probes_ += static_cast<long long>(batch.size()) - 1;
  }

  const std::size_t width_;
  std::deque<Result> results_;  ///< a deque keeps handed-out references valid
  std::unordered_map<std::uint64_t, std::size_t> index_;  ///< key → results_
  long long speculative_probes_ = 0;
  long long speculative_hits_ = 0;
};

}  // namespace madpipe::par
