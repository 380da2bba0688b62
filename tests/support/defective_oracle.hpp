// Differential oracle for the defective split: the sort-scan, full-edge-set
// defective_edge_coloring that src/coloring/defective.cpp replaced with a
// partner lookup and a path/cycle system over the conflicted edges only,
// kept verbatim (entry point renamed).  Test-only: the Defective suite runs
// both on the same inputs and requires the same classes, class count,
// rounds, ledger total and validation-gate draws.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/defective.hpp"
#include "src/coloring/three_color.hpp"
#include "src/coloring/validate.hpp"

namespace qplec {
namespace test_support {

/// Numbers each node's H-edges, detects same-(group, temporary color) pairs
/// by sorting (group, temp, edge) triples at every node, and 3-colors the
/// path/cycle system over every edge of H.
inline DefectiveColoring oracle_defective_edge_coloring(
    const Graph& g, const EdgeSubset& H, int beta, const std::vector<std::uint64_t>& phi,
    std::uint64_t phi_palette, RoundLedger& ledger, const ExecBackend* exec = nullptr,
    ValidationGate* gate = nullptr) {
  const ExecBackend& ex = exec != nullptr ? *exec : serial_backend();
  QPLEC_REQUIRE(beta >= 1);
  QPLEC_REQUIRE(H.universe_size() == g.num_edges());
  const int group_cap = 4 * beta;

  DefectiveColoring out;
  out.cls.assign(static_cast<std::size_t>(g.num_edges()), -1);

  struct SideInfo {
    int number = 0;  // 1..4beta
    int group = 0;   // group index at that endpoint
  };
  std::vector<SideInfo> from_u(static_cast<std::size_t>(g.num_edges()));
  std::vector<SideInfo> from_v(static_cast<std::size_t>(g.num_edges()));
  ex.for_nodes(g, [&](int, NodeId v) {
    int idx = 0;
    for (const Incidence& inc : g.incident(v)) {
      if (!H.contains(inc.edge)) continue;
      SideInfo info{idx % group_cap + 1, idx / group_cap};
      const auto& ep = g.endpoints(inc.edge);
      (ep.u == v ? from_u : from_v)[static_cast<std::size_t>(inc.edge)] = info;
      ++idx;
    }
  });
  ledger.charge(1, "defective-numbering");

  auto pair_index = [group_cap](int i, int j) {
    QPLEC_ASSERT(1 <= i && i <= j && j <= group_cap);
    return (j - 1) * j / 2 + (i - 1);
  };
  const int num_pairs = group_cap * (group_cap + 1) / 2;

  std::vector<int> temp(static_cast<std::size_t>(g.num_edges()), -1);
  ex.for_members(H, [&](int, EdgeId e) {
    const int a = from_u[static_cast<std::size_t>(e)].number;
    const int b = from_v[static_cast<std::size_t>(e)].number;
    temp[static_cast<std::size_t>(e)] = pair_index(std::min(a, b), std::max(a, b));
  });

  LaneScratch<std::vector<std::pair<int, int>>> conflict_sink(ex.lanes());
  LaneScratch<std::vector<std::array<int, 3>>> triple_scratch(ex.lanes());
  ex.for_nodes(g, [&](int lane, NodeId v) {
    std::vector<std::array<int, 3>>& triples = triple_scratch.lane(lane);
    triples.clear();
    for (const Incidence& inc : g.incident(v)) {
      if (!H.contains(inc.edge)) continue;
      const auto& ep = g.endpoints(inc.edge);
      const SideInfo& side =
          (ep.u == v ? from_u : from_v)[static_cast<std::size_t>(inc.edge)];
      triples.push_back({side.group, temp[static_cast<std::size_t>(inc.edge)],
                         static_cast<int>(inc.edge)});
    }
    std::sort(triples.begin(), triples.end());
    for (std::size_t a = 0; a < triples.size();) {
      std::size_t b = a;
      while (b < triples.size() && triples[b][0] == triples[a][0] &&
             triples[b][1] == triples[a][1]) {
        ++b;
      }
      QPLEC_ASSERT_MSG(b - a <= 2,
                       "more than two edges share a temporary color within one group");
      if (b - a == 2) {
        conflict_sink.lane(lane).emplace_back(triples[a][2], triples[a + 1][2]);
      }
      a = b;
    }
  });
  std::vector<std::pair<int, int>> conflicts;
  for (int lane = 0; lane < conflict_sink.num_lanes(); ++lane) {
    conflicts.insert(conflicts.end(), conflict_sink.lane(lane).begin(),
                     conflict_sink.lane(lane).end());
  }

  ExplicitConflict view(g.num_edges(), H.to_vector(), conflicts);
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT_MSG(max_conflict_degree(view, &ex) <= 2,
                     "same-temp-color conflict graph must be paths/cycles");
  }

  const ThreeColorResult tc =
      three_color_paths_cycles(view, phi, phi_palette, ledger, &ex, gate);
  const std::vector<Color>& three = tc.colors;
  out.rounds = 1 + tc.rounds;

  out.num_classes = 3 * num_pairs;
  ex.for_members(H, [&](int, EdgeId e) {
    out.cls[static_cast<std::size_t>(e)] =
        temp[static_cast<std::size_t>(e)] * 3 + three[static_cast<std::size_t>(e)];
  });

  if (gate == nullptr || gate->due()) {
    ex.for_members(H, [&](int, EdgeId e) {
      const int defect = edge_defect(g, H, out.cls, e);
      const int deg_h = H.induced_edge_degree(g, e);
      QPLEC_ASSERT_MSG(2 * beta * defect <= deg_h, "defective coloring bound violated");
    });
  }
  return out;
}

}  // namespace test_support
}  // namespace qplec
