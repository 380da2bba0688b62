// Lemma 4.3 — color-space reduction.
//
// Implemented as SolverEngine::assign_subspaces.  Follows the paper's proof
// step by step:
//   1. Partition the palette range into q <= p contiguous parts.
//   2. Compute every edge's Lemma 4.4 level.
//   3. Level <= 3: take the part with the largest list intersection.
//   4. Phases l = 4..floor(log2 q): edges of level l with deg >= 2^l (the
//      set E(1)_l) compute their candidate sets J_e, the nodes split their
//      phase edges into groups of 2^(l-2) *virtual* nodes, and the part
//      choice becomes a (deg+1)-list edge coloring of the virtual graph with
//      palette q — solved recursively by a child SolverEngine (this is the
//      paper's T(2p-1, 1, 2p) term).
//   5. E(2) (level > 3, deg < 2^l): one (deg+1)-list instance on the induced
//      subgraph over the parts still free of assigned neighbors; its edges
//      end with zero same-part neighbors.
//   6. Restrict the working lists and assert Equation (2) on every edge.
#include <algorithm>
#include <cmath>

#include "src/coloring/conflict.hpp"
#include "src/coloring/validate.hpp"
#include "src/core/engine.hpp"
#include "src/core/lemma44.hpp"
#include "src/core/pass_timer.hpp"
#include "src/common/math.hpp"
#include "src/dist/reducer.hpp"
#include "src/graph/builder.hpp"

namespace qplec {

std::vector<int> SolverEngine::assign_subspaces(const EdgeSubset& A, Color lo, Color hi,
                                                int p, int depth) {
  note_depth(depth);
  checkpoint();
  const PalettePartition partition = PalettePartition::uniform(hi - lo, p);
  const int q = partition.num_parts();
  QPLEC_ASSERT(q >= 1 && q <= p);
  const double hq = harmonic(static_cast<std::uint64_t>(q));
  const double logp = std::log2(static_cast<double>(p));
  const std::size_t m = static_cast<std::size_t>(g_.num_edges());

  // Per-edge level data (local computation: every edge knows its own list —
  // and writes only its own slots, so the step runs on any backend).
  std::vector<std::vector<int>> sizes(m);
  std::vector<int> level(m, -1);
  std::vector<int> deg_A(m, 0);
  std::vector<int> list_size(m, 0);
  exec_->for_members(A, [&](int lane, EdgeId e) {
    const std::size_t i = static_cast<std::size_t>(e);
    sizes[i] = intersection_sizes(work_, e, lo, partition);
    list_size[i] = work_.size(e);
    level[i] = compute_level(sizes[i], list_size[i]).level;
    deg_A[i] = cache_.induced_degree(lane, e, A);
  });

  std::vector<int> part_of(m, -1);

  // Enumerates the A-neighbors of e.  A holds only unfinalized edges, so the
  // cache may walk the (shrinking) live row instead of the full
  // neighborhood; e-owned compaction keeps it legal inside any pass over e.
  auto for_each_A_neighbor = [&](int lane, EdgeId e, auto&& fn) {
    cache_.for_each_live_neighbor(lane, e, [&](EdgeId f) {
      if (A.contains(f)) fn(f);
    });
  };

  // --- Levels <= 3: argmax intersection, one announcement round. ---
  ledger_.charge(1, "space-low-assign");
  exec_->for_members(A, [&](int, EdgeId e) {
    const std::size_t i = static_cast<std::size_t>(e);
    if (level[i] > 3) return;
    part_of[i] = static_cast<int>(
        std::max_element(sizes[i].begin(), sizes[i].end()) - sizes[i].begin());
  });

  // Counts how many already-assigned A-neighbors of e chose each part.
  auto assigned_counts = [&](int lane, EdgeId e) {
    std::vector<int> cnt(static_cast<std::size_t>(q), 0);
    for_each_A_neighbor(lane, e, [&](EdgeId f) {
      if (part_of[static_cast<std::size_t>(f)] >= 0) {
        ++cnt[static_cast<std::size_t>(part_of[static_cast<std::size_t>(f)])];
      }
    });
    return cnt;
  };

  // Runs a child engine on a materialized conflict graph.  items: the parent
  // edges; endpoints: their virtual endpoints; lists: candidate parts.
  auto solve_child = [&](const std::vector<EdgeId>& items,
                         const std::vector<std::pair<NodeId, NodeId>>& endpoints,
                         int num_child_nodes, const std::vector<ColorList>& cand_lists) {
    GraphBuilder vb(num_child_nodes);
    for (const auto& [a, b] : endpoints) vb.add_edge(a, b);
    const Graph vg = vb.build();
    QPLEC_ASSERT_MSG(vg.num_edges() == static_cast<int>(items.size()),
                     "virtual graph lost edges (unexpected parallel edge)");
    std::vector<ColorList> child_lists(static_cast<std::size_t>(vg.num_edges()));
    std::vector<std::uint64_t> child_phi(static_cast<std::size_t>(vg.num_edges()), 0);
    std::vector<EdgeId> parent_of(static_cast<std::size_t>(vg.num_edges()), kInvalidEdge);
    for (std::size_t t = 0; t < items.size(); ++t) {
      const EdgeId ve = vg.find_edge(endpoints[t].first, endpoints[t].second);
      QPLEC_ASSERT(ve != kInvalidEdge);
      child_lists[static_cast<std::size_t>(ve)] = cand_lists[t];
      child_phi[static_cast<std::size_t>(ve)] = phi_[static_cast<std::size_t>(items[t])];
      parent_of[static_cast<std::size_t>(ve)] = items[t];
    }
    SolverEngine child(vg, std::move(child_lists), static_cast<Color>(q),
                       std::move(child_phi), phi_palette_, policy_, ledger_, stats_,
                       depth + 1, /*exec=*/nullptr, config_, control_);
    const EdgeColoring chosen = child.solve();
    for (EdgeId ve = 0; ve < vg.num_edges(); ++ve) {
      const EdgeId e = parent_of[static_cast<std::size_t>(ve)];
      part_of[static_cast<std::size_t>(e)] = chosen[static_cast<std::size_t>(ve)];
    }
  };

  // --- Phases l = 4 .. floor(log2 q): the sets E(1)_l. ---
  const int lmax = q >= 16 ? floor_log2(static_cast<std::uint64_t>(q)) : 0;
  for (int l = 4; l <= lmax; ++l) {
    std::vector<EdgeId> e1;
    A.for_each([&](EdgeId e) {
      const std::size_t i = static_cast<std::size_t>(e);
      if (level[i] == l && deg_A[i] >= (1 << l)) e1.push_back(e);
    });
    if (e1.empty()) continue;
    ++stats_.phases_executed;
    checkpoint();
    ledger_.charge(1, "space-phase-je");

    // Candidate sets J_e.  part_of is frozen during this step (phase
    // assignments land only after the child solve), so the reads are safe.
    // The neighborhood scans ride the cache's live rows, so the pass counts
    // toward the restrict timer (scoped to exclude the child solve below).
    std::vector<ColorList> cand(e1.size());
    {
      const PassTimer cand_timer(stats_.restrict_ms, "restrict-cand");
      exec_->for_indices(static_cast<int>(e1.size()), [&](int lane, int ti) {
        const std::size_t t = static_cast<std::size_t>(ti);
        const EdgeId e = e1[t];
        const std::size_t i = static_cast<std::size_t>(e);
        const std::vector<int> cnt = assigned_counts(lane, e);
        const double threshold =
            static_cast<double>(list_size[i]) / (std::pow(2.0, l + 1) * hq);
        std::vector<Color> je;
        for (int j = 0; j < q; ++j) {
          const bool big_intersection =
              static_cast<double>(sizes[i][static_cast<std::size_t>(j)]) >=
              threshold - 1e-9;
          // (II): at most deg(e)/2^(l-1) neighbors already chose part j.
          const bool few_taken =
              static_cast<std::int64_t>(cnt[static_cast<std::size_t>(j)]) *
                  (std::int64_t{1} << (l - 1)) <=
              deg_A[i];
          if (big_intersection && few_taken) je.push_back(j);
        }
        QPLEC_ASSERT_MSG(static_cast<int>(je.size()) >= (1 << (l - 1)),
                         "Lemma 4.3: |J_e| >= 2^(l-1) violated at edge "
                             << e << " (got " << je.size() << ", need " << (1 << (l - 1))
                             << ")");
        cand[t] = ColorList(std::move(je));
      });
    }

    // Virtual graph: every node splits its phase edges into groups of size
    // at most 2^(l-2); each group becomes one virtual node.
    const int cap = 1 << (l - 2);
    EdgeSubset e1set = EdgeSubset::of(g_.num_edges(), e1);
    std::vector<NodeId> vu(m, -1), vv(m, -1);
    int vcount = 0;
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      int idx = 0;
      for (const Incidence& inc : g_.incident(v)) {
        if (!e1set.contains(inc.edge)) continue;
        const NodeId vid = static_cast<NodeId>(vcount + idx / cap);
        const auto& ep = g_.endpoints(inc.edge);
        (ep.u == v ? vu : vv)[static_cast<std::size_t>(inc.edge)] = vid;
        ++idx;
      }
      vcount += static_cast<int>(ceil_div(idx, cap));
    }
    std::vector<std::pair<NodeId, NodeId>> endpoints;
    endpoints.reserve(e1.size());
    for (const EdgeId e : e1) {
      endpoints.emplace_back(vu[static_cast<std::size_t>(e)], vv[static_cast<std::size_t>(e)]);
    }
    ++stats_.virtual_instances;
    solve_child(e1, endpoints, vcount, cand);

    // Every phase edge must have been given a candidate part.
    for (std::size_t t = 0; t < e1.size(); ++t) {
      const std::size_t i = static_cast<std::size_t>(e1[t]);
      QPLEC_ASSERT(part_of[i] >= 0 && cand[t].contains(static_cast<Color>(part_of[i])));
    }
  }

  // --- E(2): level > 3 but degree below 2^level. ---
  std::vector<EdgeId> e2;
  A.for_each([&](EdgeId e) {
    const std::size_t i = static_cast<std::size_t>(e);
    if (level[i] > 3 && deg_A[i] < (1 << level[i])) e2.push_back(e);
  });
  if (!e2.empty()) {
    ++stats_.e2_instances;
    checkpoint();
    ledger_.charge(1, "space-e2-free");
    // Candidates: parts with a big intersection, minus parts taken by any
    // already-assigned neighbor (so E(2) edges end conflict-free).  Timed
    // with the restriction passes: the neighborhood scans ride the cache's
    // live rows (the child solve below stays untimed).
    std::vector<ColorList> cand(e2.size());
    {
      const PassTimer cand_timer(stats_.restrict_ms, "restrict-cand");
      exec_->for_indices(static_cast<int>(e2.size()), [&](int lane, int ti) {
        const std::size_t t = static_cast<std::size_t>(ti);
        const EdgeId e = e2[t];
        const std::size_t i = static_cast<std::size_t>(e);
        const std::vector<int> cnt = assigned_counts(lane, e);
        const double threshold =
            static_cast<double>(list_size[i]) / (std::pow(2.0, level[i] + 1) * hq);
        std::vector<Color> free;
        for (int j = 0; j < q; ++j) {
          if (static_cast<double>(sizes[i][static_cast<std::size_t>(j)]) >=
                  threshold - 1e-9 &&
              cnt[static_cast<std::size_t>(j)] == 0) {
            free.push_back(j);
          }
        }
        cand[t] = ColorList(std::move(free));
      });
    }
    // Materialize the induced subgraph on E(2)'s endpoints.
    std::vector<NodeId> remap(static_cast<std::size_t>(g_.num_nodes()), -1);
    int nodes = 0;
    std::vector<std::pair<NodeId, NodeId>> endpoints;
    endpoints.reserve(e2.size());
    for (const EdgeId e : e2) {
      const auto& ep = g_.endpoints(e);
      for (const NodeId w : {ep.u, ep.v}) {
        if (remap[static_cast<std::size_t>(w)] < 0) {
          remap[static_cast<std::size_t>(w)] = static_cast<NodeId>(nodes++);
        }
      }
      endpoints.emplace_back(remap[static_cast<std::size_t>(ep.u)],
                             remap[static_cast<std::size_t>(ep.v)]);
    }
    solve_child(e2, endpoints, nodes, cand);
    // deg'(e) == 0 for E(2) edges (asserted with Equation (2) below via the
    // zero-conflict candidates plus the child's properness).
  }

  // --- Restrict lists; machine-check Equation (2). ---
  // part_of is fully assigned and read-only here; each edge masks only its
  // own working list.  The tightness statistic folds per lane.
  const PassTimer restrict_timer(stats_.restrict_ms, "restrict");
  DeterministicReducer<double> eq2_ratio(exec_->lanes(), stats_.max_eq2_ratio);
  exec_->for_members(A, [&](int lane, EdgeId e) {
    const std::size_t i = static_cast<std::size_t>(e);
    QPLEC_ASSERT_MSG(part_of[i] >= 0, "edge " << e << " left without a subspace");
    const Color plo = lo + partition.part_begin(part_of[i]);
    const Color phi_end = lo + partition.part_end(part_of[i]);
    work_.restrict_to_range(e, plo, phi_end);
    QPLEC_ASSERT_MSG(!work_.empty(e), "empty restricted list at edge " << e);

    int dprime = 0;
    for_each_A_neighbor(lane, e, [&](EdgeId f) {
      if (part_of[static_cast<std::size_t>(f)] == part_of[i]) ++dprime;
    });
    if (dprime > 0) {
      const double bound = 24.0 * hq * std::max(1.0, logp) *
                           (static_cast<double>(work_.size(e)) /
                            static_cast<double>(list_size[i])) *
                           static_cast<double>(deg_A[i]);
      const double ratio = static_cast<double>(dprime) / bound;
      eq2_ratio.lane(lane) = std::max(eq2_ratio.lane(lane), ratio);
      QPLEC_ASSERT_MSG(ratio <= 1.0 + 1e-9, "Equation (2) violated at edge "
                                                << e << ": deg'=" << dprime
                                                << " bound=" << bound);
    }
  });
  stats_.max_eq2_ratio = eq2_ratio.max();
  return part_of;
}

}  // namespace qplec
