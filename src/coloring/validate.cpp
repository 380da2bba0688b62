#include "src/coloring/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

namespace qplec {

namespace {

/// Largest color the stamp table indexes directly: linear in the edge
/// count, so the table stays O(m) words whatever the palette.
std::int64_t stamp_limit(int num_edges) {
  return 4 * static_cast<std::int64_t>(num_edges) + 1024;
}

/// The first node, in node order, at which two counted edges share a color;
/// -1 if there is none.  [lo, hi] bounds the counted edges' colors.  Each
/// color's slot holds the last node that saw it; colors outside
/// [0, stamp_limit] (hostile palettes, stray negatives) sort each node's
/// colors instead.
template <typename Counted>
NodeId first_shared_color_node(const Graph& g, const EdgeColoring& colors, Color lo, Color hi,
                               Counted&& counted) {
  if (lo > hi) return -1;  // nothing counted
  const auto color_of = [&](EdgeId e) { return colors[static_cast<std::size_t>(e)]; };
  if (lo >= 0 && hi <= stamp_limit(g.num_edges())) {
    std::vector<NodeId> stamp(static_cast<std::size_t>(hi) + 1, -1);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const Incidence& inc : g.incident(v)) {
        if (!counted(inc.edge)) continue;
        NodeId& slot = stamp[static_cast<std::size_t>(color_of(inc.edge))];
        if (slot == v) return v;
        slot = v;
      }
    }
    return -1;
  }
  std::vector<Color> seen;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    seen.clear();
    for (const Incidence& inc : g.incident(v)) {
      if (counted(inc.edge)) seen.push_back(color_of(inc.edge));
    }
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) return v;
  }
  return -1;
}

}  // namespace

bool is_proper_edge_coloring(const Graph& g, const EdgeColoring& colors, std::string* why) {
  if (static_cast<int>(colors.size()) != g.num_edges()) {
    if (why != nullptr) *why = "color vector size mismatch";
    return false;
  }
  Color lo = std::numeric_limits<Color>::max();
  Color hi = std::numeric_limits<Color>::min();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Color c = colors[static_cast<std::size_t>(e)];
    if (c == kUncolored) {
      if (why != nullptr) *why = "edge " + std::to_string(e) + " is uncolored";
      return false;
    }
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  const NodeId v = first_shared_color_node(g, colors, lo, hi, [](EdgeId) { return true; });
  if (v < 0) return true;
  if (why != nullptr) *why = "two edges at node " + std::to_string(v) + " share a color";
  return false;
}

bool is_valid_list_coloring(const ListEdgeColoringInstance& instance,
                            const EdgeColoring& colors, std::string* why) {
  if (!is_proper_edge_coloring(instance.graph, colors, why)) return false;
  // Each membership test is a binary search in a list of its own heap
  // block; fetching the list a few edges ahead hides that miss.
  constexpr EdgeId kAhead = 8;
  const EdgeId m = instance.graph.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    if (e + kAhead < m) {
      __builtin_prefetch(instance.lists[static_cast<std::size_t>(e + kAhead)].colors().data());
    }
    const Color c = colors[static_cast<std::size_t>(e)];
    if (!instance.lists[static_cast<std::size_t>(e)].contains(c)) {
      if (why != nullptr) {
        *why = "edge " + std::to_string(e) + " colored " + std::to_string(c) +
               " which is not in its list";
      }
      return false;
    }
  }
  return true;
}

void expect_valid_solution(const ListEdgeColoringInstance& instance,
                           const EdgeColoring& colors) {
  std::string why;
  QPLEC_ASSERT_MSG(is_valid_list_coloring(instance, colors, &why),
                   "invalid solution: " << why);
}

bool is_proper_partial(const Graph& g, const EdgeSubset& subset, const EdgeColoring& colors,
                       std::string* why) {
  const auto color_of = [&](EdgeId e) { return colors[static_cast<std::size_t>(e)]; };
  Color lo = std::numeric_limits<Color>::max();
  Color hi = std::numeric_limits<Color>::min();
  subset.for_each([&](EdgeId e) {
    const Color c = color_of(e);
    if (c == kUncolored) return;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  });
  const auto counted = [&](EdgeId e) { return subset.contains(e) && color_of(e) != kUncolored; };
  if (first_shared_color_node(g, colors, lo, hi, counted) < 0) return true;
  if (why != nullptr) {
    // Name the first subset edge, in id order, with a same-colored subset
    // neighbor: only a failed check pays for the line-graph walk.
    EdgeId first = kInvalidEdge;
    subset.for_each([&](EdgeId e) {
      if (first != kInvalidEdge || !counted(e)) return;
      g.for_each_edge_neighbor(e, [&](EdgeId f) {
        if (subset.contains(f) && color_of(f) == color_of(e)) first = e;
      });
    });
    *why = "partial-coloring conflict at edge " + std::to_string(first);
  }
  return false;
}

int edge_defect(const Graph& g, const EdgeSubset& H, const std::vector<int>& cls, EdgeId e) {
  int defect = 0;
  g.for_each_edge_neighbor(e, [&](EdgeId f) {
    if (H.contains(f) && cls[static_cast<std::size_t>(f)] == cls[static_cast<std::size_t>(e)]) {
      ++defect;
    }
  });
  return defect;
}

int max_defect(const Graph& g, const EdgeSubset& H, const std::vector<int>& cls) {
  int best = 0;
  H.for_each([&](EdgeId e) { best = std::max(best, edge_defect(g, H, cls, e)); });
  return best;
}

}  // namespace qplec
