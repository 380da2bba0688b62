#include "src/coloring/defective.hpp"

#include <algorithm>
#include <array>

#include "src/coloring/conflict.hpp"
#include "src/coloring/three_color.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

DefectiveColoring defective_edge_coloring(const Graph& g, const EdgeSubset& H, int beta,
                                          const std::vector<std::uint64_t>& phi,
                                          std::uint64_t phi_palette, RoundLedger& ledger,
                                          const ExecBackend* exec, ValidationGate* gate) {
  const trace::Span span("defective-coloring", "engine");
  const ExecBackend& ex = exec != nullptr ? *exec : serial_backend();
  QPLEC_REQUIRE(beta >= 1);
  QPLEC_REQUIRE(H.universe_size() == g.num_edges());
  const int group_cap = 4 * beta;

  DefectiveColoring out;
  out.cls.assign(static_cast<std::size_t>(g.num_edges()), -1);

  // Step 1+2: group assignment and edge numbering, one exchange round.
  // The idx-th H-edge at a node lies in group idx / 4beta and takes number
  // idx % 4beta + 1 there.  number[e] holds the numbers e's smaller and
  // larger endpoint gave it.  A node-local pass: node v writes only the
  // v-side slot of its incident edges, so the node shards never collide.
  std::vector<std::array<int, 2>> number(static_cast<std::size_t>(g.num_edges()));
  ex.for_nodes(g, [&](int, NodeId v) {
    int idx = 0;
    for (const Incidence& inc : g.incident(v)) {
      if (!H.contains(inc.edge)) continue;
      number[static_cast<std::size_t>(inc.edge)][v < inc.neighbor ? 0 : 1] = idx % group_cap + 1;
      ++idx;
    }
  });
  ledger.charge(1, "defective-numbering");

  // Temporary color: the sorted pair (i, j).
  auto pair_index = [group_cap](int i, int j) {
    // 1 <= i <= j <= 4beta -> dense triangular index.
    QPLEC_ASSERT(1 <= i && i <= j && j <= group_cap);
    return (j - 1) * j / 2 + (i - 1);
  };
  const int num_pairs = group_cap * (group_cap + 1) / 2;

  std::vector<int> temp(static_cast<std::size_t>(g.num_edges()), -1);
  ex.for_members(H, [&](int, EdgeId e) {
    const auto [a, b] = number[static_cast<std::size_t>(e)];
    temp[static_cast<std::size_t>(e)] = pair_index(std::min(a, b), std::max(a, b));
  });

  // Step 3: conflicts = same temporary color within the same (node, group).
  // At node v, the H-edge with v-side number a and far-side number b can
  // share its temporary color {a, b} in its group only with the edge that
  // holds v-side number b there (v-side numbers are distinct within a
  // group), and only if that edge's far-side number is a.  So each node
  // looks the partner up in its H-incidence order: O(deg) per node, at most
  // one partner per edge and node, and each pair is emitted once, from its
  // smaller v-side number.  Detection is node-local, so each node shard
  // emits into its own lane sink, concatenated in lane order below.
  // (ExplicitConflict sorts and dedups adjacency, so the emission order
  // never reaches the view; the lane concat merely keeps the vector itself
  // deterministic.)  One of an edge's two numbers is the v-side one, so the
  // far-side number is their sum minus it.
  auto far_number = [&](EdgeId e, int near) {
    const std::array<int, 2>& n = number[static_cast<std::size_t>(e)];
    return n[0] + n[1] - near;
  };
  LaneScratch<std::vector<std::pair<int, int>>> conflict_sink(ex.lanes());
  LaneScratch<std::vector<EdgeId>> order_scratch(ex.lanes());
  ex.for_nodes(g, [&](int lane, NodeId v) {
    std::vector<EdgeId>& order = order_scratch.lane(lane);
    order.clear();
    for (const Incidence& inc : g.incident(v)) {
      if (H.contains(inc.edge)) order.push_back(inc.edge);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const int a = static_cast<int>(i) % group_cap + 1;
      const int b = far_number(order[i], a);
      if (b <= a) continue;  // no partner (a == b), or emitted from the partner
      const std::size_t j = i + static_cast<std::size_t>(b - a);
      if (j >= order.size() || far_number(order[j], b) != a) continue;
      const EdgeId e = order[i];
      const EdgeId f = order[j];
      QPLEC_ASSERT_MSG(temp[static_cast<std::size_t>(e)] == temp[static_cast<std::size_t>(f)],
                       "partner lookup found edges of different temporary colors");
      conflict_sink.lane(lane).emplace_back(e, f);
    }
  });
  std::vector<std::pair<int, int>> conflicts;
  for (int lane = 0; lane < conflict_sink.num_lanes(); ++lane) {
    conflicts.insert(conflicts.end(), conflict_sink.lane(lane).begin(),
                     conflict_sink.lane(lane).end());
  }

  // The path/cycle system over the conflicted edges only: an H-edge in no
  // pair is an isolated item, whose 3-color is 0 (see defective.hpp).
  std::vector<int> conflicted;
  conflicted.reserve(2 * conflicts.size());
  for (const auto& [a, b] : conflicts) {
    conflicted.push_back(a);
    conflicted.push_back(b);
  }
  ExplicitConflict view(g.num_edges(), conflicted, conflicts);
  // Demoted walk: the <=2 bound holds structurally (one partner per edge
  // and endpoint); the standalone degree sweep re-derives it.
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT_MSG(max_conflict_degree(view, &ex) <= 2,
                     "same-temp-color conflict graph must be paths/cycles");
  }

  // 3-color the path/cycle system.
  const ThreeColorResult tc =
      three_color_paths_cycles(view, phi, phi_palette, ledger, &ex, gate);
  const std::vector<Color>& three = tc.colors;
  out.rounds = 1 + tc.rounds;

  out.num_classes = 3 * num_pairs;
  ex.for_members(H, [&](int, EdgeId e) {
    const std::size_t i = static_cast<std::size_t>(e);
    out.cls[i] = temp[i] * 3 + (view.active(e) ? three[i] : 0);
  });

  // The paper's defect bound, asserted on every edge.  Demoted: the walk
  // costs a full neighborhood scan per edge and feeds nothing downstream
  // (the engine's round head measures the degrees the recursion needs).
  if (gate == nullptr || gate->due()) {
    ex.for_members(H, [&](int, EdgeId e) {
      // edge_defect and the induced degree, in one walk of e's neighbors.
      const int cls_e = out.cls[static_cast<std::size_t>(e)];
      int defect = 0;
      int deg_h = 0;
      g.for_each_edge_neighbor(e, [&](EdgeId f) {
        if (!H.contains(f)) return;
        ++deg_h;
        if (out.cls[static_cast<std::size_t>(f)] == cls_e) ++defect;
      });
      QPLEC_ASSERT_MSG(2 * beta * defect <= deg_h,
                       "defective coloring bound violated at edge "
                           << e << ": defect " << defect << " > deg/(2beta) = " << deg_h
                           << "/" << 2 * beta);
    });
  }
  return out;
}

}  // namespace qplec
