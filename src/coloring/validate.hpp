// Validators — every guarantee the paper proves is checked by one of these.
//
// The validators are used both by the test suite and by the solvers
// themselves (the solver validates its own output before returning; a theory
// reproduction must never return an invalid coloring silently).
//
// The three edge-coloring checks share one node-local kernel: a coloring is
// proper exactly when every node sees distinct colors on its incident
// edges, so one walk over Graph::incident that stamps each color's slot with
// the node decides it in O(n + m) — a slot already holding the node is a
// conflict there.  Colors above a bound linear in m (hostile palettes) or
// below zero sort each node's colors instead, so memory stays O(m).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/problem.hpp"
#include "src/dist/reducer.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

/// True iff no two adjacent edges share a color and every edge is colored.
/// On failure, fills *why (if non-null) with a description.
bool is_proper_edge_coloring(const Graph& g, const EdgeColoring& colors,
                             std::string* why = nullptr);

/// True iff the coloring is proper AND every edge uses a color from its list.
bool is_valid_list_coloring(const ListEdgeColoringInstance& instance,
                            const EdgeColoring& colors, std::string* why = nullptr);

/// Throws InvariantViolation unless is_valid_list_coloring holds.
void expect_valid_solution(const ListEdgeColoringInstance& instance,
                           const EdgeColoring& colors);

/// True iff the (possibly partial) coloring has no conflict among colored
/// edges inside the subset.  Costs one walk over every node's incidences
/// whatever the subset's size; on failure, *why names the first conflicted
/// subset edge in id order.
bool is_proper_partial(const Graph& g, const EdgeSubset& subset, const EdgeColoring& colors,
                       std::string* why = nullptr);

/// Defect of edge e under the class assignment `cls` within subset H: the
/// number of H-neighbors of e in the same class.
int edge_defect(const Graph& g, const EdgeSubset& H, const std::vector<int>& cls, EdgeId e);

/// Max defect over H.
int max_defect(const Graph& g, const EdgeSubset& H, const std::vector<int>& cls);

/// True iff `colors` (any integral type, indexed by item) is proper on the
/// conflict view: active items have colors distinct from all their conflict
/// neighbors.  The slot scan fans out over the backend's lanes (null =
/// serial) and the per-lane verdicts fold with an order-invariant `all`, so
/// a sharded solve does not serialize on its own validators.
template <typename ColorT>
bool is_proper_on_conflict(const ConflictView& view, const std::vector<ColorT>& colors,
                           const ExecBackend& exec = serial_backend()) {
  DeterministicReducer<char> ok(exec.lanes(), 1);
  exec.for_indices(view.num_active(), [&](int lane, int s) {
    if (ok.lane(lane) == 0) return;
    const ColorT c = colors[static_cast<std::size_t>(view.item(s))];
    for (const int f : view.row(s)) {
      if (colors[static_cast<std::size_t>(view.item(f))] == c) ok.lane(lane) = 0;
    }
  });
  return ok.all();
}

}  // namespace qplec
