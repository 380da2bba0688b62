// Differential oracle for the edge-coloring checkers: the per-node sort of
// is_proper_edge_coloring, the list-membership pass of
// is_valid_list_coloring and the line-graph walk of is_proper_partial that
// src/coloring/validate.cpp replaced with one per-node color-stamp kernel,
// kept verbatim (entry points renamed).  Test-only: the Validate suite runs
// both on the same inputs and requires the same verdict and `why` string.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "src/coloring/problem.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {
namespace test_support {

inline bool oracle_is_proper_edge_coloring(const Graph& g, const EdgeColoring& colors,
                                           std::string* why) {
  if (static_cast<int>(colors.size()) != g.num_edges()) {
    if (why != nullptr) *why = "color vector size mismatch";
    return false;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (colors[static_cast<std::size_t>(e)] == kUncolored) {
      if (why != nullptr) *why = "edge " + std::to_string(e) + " is uncolored";
      return false;
    }
  }
  // Per node, check its incident edges have pairwise distinct colors.
  std::vector<Color> seen;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    seen.clear();
    for (const Incidence& inc : g.incident(v)) {
      seen.push_back(colors[static_cast<std::size_t>(inc.edge)]);
    }
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      if (why != nullptr) {
        *why = "two edges at node " + std::to_string(v) + " share a color";
      }
      return false;
    }
  }
  return true;
}

inline bool oracle_is_valid_list_coloring(const ListEdgeColoringInstance& instance,
                                          const EdgeColoring& colors, std::string* why) {
  if (!oracle_is_proper_edge_coloring(instance.graph, colors, why)) return false;
  for (EdgeId e = 0; e < instance.graph.num_edges(); ++e) {
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

inline bool oracle_is_proper_partial(const Graph& g, const EdgeSubset& subset,
                                     const EdgeColoring& colors, std::string* why) {
  bool ok = true;
  subset.for_each([&](EdgeId e) {
    if (!ok) return;
    const Color ce = colors[static_cast<std::size_t>(e)];
    if (ce == kUncolored) return;
    g.for_each_edge_neighbor(e, [&](EdgeId f) {
      if (subset.contains(f) && colors[static_cast<std::size_t>(f)] == ce) ok = false;
    });
    if (!ok && why != nullptr) {
      *why = "partial-coloring conflict at edge " + std::to_string(e);
    }
  });
  return ok;
}

}  // namespace test_support
}  // namespace qplec
