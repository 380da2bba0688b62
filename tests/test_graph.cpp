#include "src/graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/coloring/initial.hpp"
#include "src/common/rng.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"

namespace qplec {
namespace {

Graph triangle_plus_pendant() {
  // 0-1, 1-2, 0-2 triangle plus 2-3 pendant.
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2).add_edge(2, 3);
  return b.build();
}

TEST(GraphBuilder, BasicCounts) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(2), 3);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(GraphBuilder, DeduplicatesAndCanonicalizes) {
  GraphBuilder b(3);
  b.add_edge(2, 1).add_edge(1, 2).add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.endpoints(0).u, 1);
  EXPECT_EQ(g.endpoints(0).v, 2);
}

TEST(GraphBuilder, EdgeIdsIndependentOfInsertionOrder) {
  GraphBuilder b1(4), b2(4);
  b1.add_edge(0, 1).add_edge(2, 3).add_edge(1, 2);
  b2.add_edge(1, 2).add_edge(0, 1).add_edge(2, 3);
  const Graph g1 = b1.build(), g2 = b2.build();
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.endpoints(e), g2.endpoints(e));
  }
}

// The bucketed build against a std::set-of-pairs reference: edge ids are the
// distinct canonical pairs in (u, v) order, each node's incidences are its
// (neighbor, edge) pairs ascending by neighbor (find_edge binary-searches
// them), and the result depends on neither insertion order nor orientation.
TEST(GraphBuilder, LinearBuildMatchesBruteForceReference) {
  Rng rng(2024);
  for (int round = 0; round < 60; ++round) {
    const int n = round < 2 ? round : 2 + static_cast<int>(rng.next_below(40));
    std::vector<std::pair<NodeId, NodeId>> added;
    if (n >= 2) {
      const int draws = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(3 * n)));
      for (int i = 0; i < draws; ++i) {
        // Every third round draws from the lower half only: isolated nodes.
        const auto hi = static_cast<std::uint64_t>(round % 3 == 0 ? (n + 1) / 2 : n);
        const auto u = static_cast<NodeId>(rng.next_below(hi));
        const auto v = static_cast<NodeId>(rng.next_below(hi));
        if (u == v) continue;
        added.emplace_back(u, v);
        if (rng.next_below(3) == 0) added.emplace_back(v, u);  // duplicate, reversed
      }
    }
    std::set<std::pair<NodeId, NodeId>> pairs;
    for (const auto& [u, v] : added) pairs.emplace(std::min(u, v), std::max(u, v));
    std::vector<std::vector<Incidence>> want(static_cast<std::size_t>(n));
    EdgeId id = 0;
    for (const auto& [u, v] : pairs) {
      want[static_cast<std::size_t>(u)].push_back({v, id});
      want[static_cast<std::size_t>(v)].push_back({u, id});
      ++id;
    }
    for (auto& list : want) {
      std::sort(list.begin(), list.end(),
                [](const Incidence& a, const Incidence& b) { return a.neighbor < b.neighbor; });
    }

    const Graph isolated = GraphBuilder(n).build();
    const Graph ids_from =
        n > 0 ? isolated.with_scrambled_ids(static_cast<std::uint64_t>(n) * 4, 9) : isolated;
    for (int order = 0; order < 3; ++order) {
      rng.shuffle(added);
      GraphBuilder b(n);
      for (const auto& [u, v] : added) b.add_edge(u, v);
      if (order == 2) b.carry_local_ids(ids_from);
      const Graph g = b.build();
      ASSERT_EQ(g.num_nodes(), n);
      ASSERT_EQ(g.num_edges(), static_cast<int>(pairs.size()));
      id = 0;
      for (const auto& [u, v] : pairs) {
        EXPECT_EQ(g.endpoints(id), (EdgeEndpoints{u, v})) << "edge " << id;
        EXPECT_EQ(g.find_edge(v, u), id);
        ++id;
      }
      int max_degree = 0;
      for (NodeId w = 0; w < n; ++w) {
        const auto inc = g.incident(w);
        const auto& ref = want[static_cast<std::size_t>(w)];
        ASSERT_EQ(inc.size(), ref.size()) << "node " << w;
        for (std::size_t i = 0; i < inc.size(); ++i) {
          EXPECT_EQ(inc[i].neighbor, ref[i].neighbor) << "node " << w << " slot " << i;
          EXPECT_EQ(inc[i].edge, ref[i].edge) << "node " << w << " slot " << i;
          if (i > 0) {
            EXPECT_LT(inc[i - 1].neighbor, inc[i].neighbor);
          }
        }
        max_degree = std::max(max_degree, static_cast<int>(ref.size()));
        EXPECT_EQ(g.local_id(w),
                  order == 2 ? ids_from.local_id(w) : static_cast<std::uint64_t>(w) + 1);
      }
      EXPECT_EQ(g.max_degree(), max_degree);
      EXPECT_EQ(g.max_local_id(),
                order == 2 ? ids_from.max_local_id() : static_cast<std::uint64_t>(n));
      int max_edge_degree = 0;
      for (const auto& [u, v] : pairs) {
        const std::size_t d = want[static_cast<std::size_t>(u)].size() +
                              want[static_cast<std::size_t>(v)].size() - 2;
        max_edge_degree = std::max(max_edge_degree, static_cast<int>(d));
      }
      EXPECT_EQ(g.max_edge_degree(), max_edge_degree);
    }
  }
}

TEST(GraphBuilder, RejectsSelfLoopAndOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(-1, 0), std::invalid_argument);
}

TEST(Graph, EdgeDegreeMatchesDefinition) {
  const Graph g = triangle_plus_pendant();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ep = g.endpoints(e);
    EXPECT_EQ(g.edge_degree(e), g.degree(ep.u) + g.degree(ep.v) - 2);
    EXPECT_EQ(static_cast<int>(g.edge_neighbors(e).size()), g.edge_degree(e));
  }
  EXPECT_EQ(g.max_edge_degree(), 3);
}

TEST(Graph, EdgeNeighborsAreExactlySharedEndpointEdges) {
  const Graph g = make_gnp(40, 0.15, 99);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::set<EdgeId> expected;
    const auto& ep = g.endpoints(e);
    for (EdgeId f = 0; f < g.num_edges(); ++f) {
      if (f == e) continue;
      const auto& fp = g.endpoints(f);
      if (fp.u == ep.u || fp.u == ep.v || fp.v == ep.u || fp.v == ep.v) expected.insert(f);
    }
    const auto got_vec = g.edge_neighbors(e);
    const std::set<EdgeId> got(got_vec.begin(), got_vec.end());
    EXPECT_EQ(got, expected) << "edge " << e;
    EXPECT_EQ(got_vec.size(), got.size()) << "duplicate neighbor for edge " << e;
  }
}

TEST(Graph, FindEdge) {
  const Graph g = triangle_plus_pendant();
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 1), g.find_edge(1, 0));
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
  EXPECT_EQ(g.find_edge(1, 1), kInvalidEdge);
  const EdgeId e = g.find_edge(2, 3);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(g.endpoints(e).u, 2);
  EXPECT_EQ(g.endpoints(e).v, 3);
}

TEST(Graph, OtherEndpoint) {
  const Graph g = triangle_plus_pendant();
  const EdgeId e = g.find_edge(0, 2);
  EXPECT_EQ(g.other_endpoint(e, 0), 2);
  EXPECT_EQ(g.other_endpoint(e, 2), 0);
  EXPECT_THROW(g.other_endpoint(e, 1), std::invalid_argument);
}

TEST(Graph, DefaultLocalIdsAreOneBased) {
  const Graph g = triangle_plus_pendant();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.local_id(v), static_cast<std::uint64_t>(v) + 1);
  }
  EXPECT_EQ(g.max_local_id(), 4u);
}

TEST(Graph, ScrambledIdsDistinctAndInRange) {
  const Graph g = make_cycle(50).with_scrambled_ids(50 * 50, 123);
  std::set<std::uint64_t> ids;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto id = g.local_id(v);
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 2500u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_EQ(g.max_local_id(), *ids.rbegin());
}

TEST(Graph, ScrambledIdsDenseSpace) {
  // id_space == n exercises the full-pool path.
  const Graph g = make_path(20).with_scrambled_ids(20, 5);
  std::set<std::uint64_t> ids;
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids.insert(g.local_id(v));
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_EQ(*ids.rbegin(), 20u);  // dense: all of 1..20 used
}

// The rejection sampler is linear in the node count: 2^20 nodes drawn from
// the clamped id space take well under a second.
TEST(Graph, ScrambleOfTwoToTheTwentyNodesRunsInSeconds) {
  const int n = 1 << 20;
  const Graph empty = GraphBuilder(n).build();
  const auto start = std::chrono::steady_clock::now();
  const Graph g = empty.with_scrambled_ids(scrambled_id_space(n), 3);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 30.0);
  std::vector<std::uint64_t> ids(g.all_local_ids().begin(), g.all_local_ids().end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_GE(ids.front(), 1u);
  EXPECT_LE(ids.back(), kMaxInitialId);
}

TEST(Graph, ScrambleDeterministicBySeed) {
  const Graph a = make_cycle(30).with_scrambled_ids(900, 7);
  const Graph b = make_cycle(30).with_scrambled_ids(900, 7);
  for (NodeId v = 0; v < 30; ++v) EXPECT_EQ(a.local_id(v), b.local_id(v));
}

TEST(Graph, IncidentListsSortedByNeighbor) {
  const Graph g = make_gnp(30, 0.3, 4);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto inc = g.incident(v);
    for (std::size_t i = 1; i < inc.size(); ++i) {
      EXPECT_LT(inc[i - 1].neighbor, inc[i].neighbor);
    }
  }
}

TEST(GraphIo, RoundTrip) {
  const Graph g = make_gnp(25, 0.2, 77);
  std::ostringstream os;
  write_edge_list(g, os);
  const Graph h = parse_edge_list(os.str());
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(h.endpoints(e), g.endpoints(e));
}

TEST(GraphIo, CommentsAndErrors) {
  EXPECT_NO_THROW(parse_edge_list("# comment\n2 1\n0 1\n"));
  EXPECT_THROW(parse_edge_list(""), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("3 2\n0 1\n"), std::invalid_argument);       // missing edge
  EXPECT_THROW(parse_edge_list("3 1\n0 1\n1 2\n"), std::invalid_argument);  // extra edge
  EXPECT_THROW(parse_edge_list("x y\n"), std::invalid_argument);
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_EQ(g.max_edge_degree(), 0);
}

}  // namespace
}  // namespace qplec
