#include "src/coloring/conflict.hpp"

#include <algorithm>

#include "src/dist/reducer.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

int ConflictView::max_degree() const { return max_conflict_degree(*this, nullptr); }

int max_conflict_degree(const ConflictView& view, const ExecBackend* exec) {
  if (exec == nullptr) exec = &serial_backend();
  DeterministicReducer<int> best(exec->lanes(), 0);
  exec->for_indices(view.num_active(), [&](int lane, int s) {
    best.lane(lane) = std::max(best.lane(lane), static_cast<int>(view.row(s).size()));
  });
  return best.max();
}

LineGraphConflict::LineGraphConflict(const Graph& g, const EdgeSubset& subset,
                                     const ExecBackend* exec) {
  const trace::Span span("line-graph", "engine");
  QPLEC_REQUIRE(subset.universe_size() == g.num_edges());
  const ExecBackend& ex = exec != nullptr ? *exec : serial_backend();
  slot_.assign(static_cast<std::size_t>(g.num_edges()), -1);
  item_.reserve(static_cast<std::size_t>(subset.size()));
  subset.for_each([&](EdgeId e) {
    slot_[static_cast<std::size_t>(e)] = num_active();
    item_.push_back(e);
  });
  // Degree pass, serial prefix sum, fill pass: each slot writes only its own
  // count and row.  On the full graph the degree is the O(1) edge degree.
  const bool full = subset.size() == g.num_edges();
  const int n = num_active();
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  ex.for_indices(n, [&](int, int s) {
    const EdgeId e = item_[static_cast<std::size_t>(s)];
    offsets_[static_cast<std::size_t>(s) + 1] = static_cast<std::size_t>(
        full ? g.edge_degree(e) : subset.induced_edge_degree(g, e));
  });
  for (std::size_t s = 0; s < static_cast<std::size_t>(n); ++s) offsets_[s + 1] += offsets_[s];
  nbrs_.resize(offsets_.back());
  ex.for_indices(n, [&](int, int s) {
    std::size_t w = offsets_[static_cast<std::size_t>(s)];
    const EdgeId e = item_[static_cast<std::size_t>(s)];
    if (full) {
      // Every edge is its own slot.
      g.for_each_edge_neighbor(e, [&](EdgeId f) { nbrs_[w++] = f; });
      return;
    }
    g.for_each_edge_neighbor(e, [&](EdgeId f) {
      const int t = slot_[static_cast<std::size_t>(f)];
      if (t >= 0) nbrs_[w++] = t;
    });
  });
}

ExplicitConflict::ExplicitConflict(int universe, const std::vector<int>& active_items,
                                   const std::vector<std::pair<int, int>>& conflicts) {
  QPLEC_REQUIRE(universe >= 0);
  slot_.assign(static_cast<std::size_t>(universe), -1);
  for (int item : active_items) {
    QPLEC_REQUIRE(item >= 0 && item < universe);
    slot_[static_cast<std::size_t>(item)] = 0;
  }
  for (int i = 0; i < universe; ++i) {
    if (slot_[static_cast<std::size_t>(i)] < 0) continue;
    slot_[static_cast<std::size_t>(i)] = num_active();
    item_.push_back(i);
  }
  // Both directions of every pair as (slot, neighbor slot), sorted and
  // deduplicated: the rows come out grouped by slot in increasing order.
  std::vector<std::pair<int, int>> directed;
  directed.reserve(2 * conflicts.size());
  for (const auto& [a, b] : conflicts) {
    QPLEC_REQUIRE(a >= 0 && a < universe && b >= 0 && b < universe);
    QPLEC_REQUIRE_MSG(a != b, "self-conflict on item " << a);
    QPLEC_REQUIRE_MSG(active(a) && active(b), "conflict between inactive items");
    directed.emplace_back(slot(a), slot(b));
    directed.emplace_back(slot(b), slot(a));
  }
  std::sort(directed.begin(), directed.end());
  directed.erase(std::unique(directed.begin(), directed.end()), directed.end());
  offsets_.assign(static_cast<std::size_t>(num_active()) + 1, 0);
  nbrs_.reserve(directed.size());
  for (const auto& [s, t] : directed) {
    ++offsets_[static_cast<std::size_t>(s) + 1];
    nbrs_.push_back(t);
  }
  for (std::size_t s = 0; s + 1 < offsets_.size(); ++s) offsets_[s + 1] += offsets_[s];
}

}  // namespace qplec
