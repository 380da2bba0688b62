#include "src/graph/subset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"

namespace qplec {
namespace {

TEST(EdgeSubset, InsertEraseContains) {
  EdgeSubset s(10);
  EXPECT_TRUE(s.empty());
  s.insert(3);
  s.insert(3);  // idempotent
  s.insert(7);
  EXPECT_EQ(s.size(), 2);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  s.erase(3);
  s.erase(3);  // idempotent
  EXPECT_EQ(s.size(), 1);
  EXPECT_FALSE(s.contains(3));
  EXPECT_THROW(s.contains(10), std::invalid_argument);
  EXPECT_THROW(s.insert(-1), std::invalid_argument);
}

TEST(EdgeSubset, AllAndOf) {
  const Graph g = make_cycle(8);
  const EdgeSubset all = EdgeSubset::all(g);
  EXPECT_EQ(all.size(), 8);
  const EdgeSubset some = EdgeSubset::of(8, {0, 2, 4});
  EXPECT_EQ(some.size(), 3);
  EXPECT_TRUE(some.contains(2));
  EXPECT_FALSE(some.contains(1));
}

TEST(EdgeSubset, ToVectorSorted) {
  EdgeSubset s(20);
  s.insert(11);
  s.insert(2);
  s.insert(19);
  const auto v = s.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 2);
  EXPECT_EQ(v[1], 11);
  EXPECT_EQ(v[2], 19);
}

TEST(EdgeSubset, InducedDegreeOnCycle) {
  const Graph g = make_cycle(6);  // edges form a 6-cycle in the line graph too
  EdgeSubset s = EdgeSubset::all(g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(s.induced_edge_degree(g, e), 2);
  }
  // Remove one edge: its two line-neighbors lose a neighbor.
  s.erase(0);
  const auto nbrs = g.edge_neighbors(0);
  for (EdgeId f : nbrs) EXPECT_EQ(s.induced_edge_degree(g, f), 1);
  EXPECT_EQ(s.max_induced_edge_degree(g), 2);
}

TEST(EdgeSubset, InducedDegreeMatchesBruteForce) {
  const Graph g = make_gnp(30, 0.2, 5);
  EdgeSubset s(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); e += 2) s.insert(e);  // every other edge
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    int expected = 0;
    for (EdgeId f : g.edge_neighbors(e)) {
      if (s.contains(f)) ++expected;
    }
    EXPECT_EQ(s.induced_edge_degree(g, e), expected);
  }
}

TEST(EdgeSubset, MaxInducedDegreeEmptySubset) {
  const Graph g = make_cycle(5);
  const EdgeSubset s(g.num_edges());
  EXPECT_EQ(s.max_induced_edge_degree(g), 0);
}

TEST(EdgeSubset, Equality) {
  EdgeSubset a(5), b(5);
  a.insert(1);
  b.insert(1);
  EXPECT_EQ(a, b);
  b.insert(2);
  EXPECT_FALSE(a == b);
}

TEST(EdgeSubset, ForEachInMatchesReferenceScan) {
  Rng rng(2024);
  for (const int universe : {0, 1, 63, 64, 65, 130, 1000}) {
    // Densities 0, 1/300, 1/2 and 1, each reached by mixed inserts and
    // erases: insert at twice the target rate, then erase half back.
    for (const double density : {0.0, 1.0 / 300.0, 0.5, 1.0}) {
      SCOPED_TRACE("universe " + std::to_string(universe) + ", density " +
                   std::to_string(density));
      EdgeSubset s(universe);
      std::vector<bool> oracle(static_cast<std::size_t>(universe), false);
      const double insert_p = std::min(1.0, 2.0 * density);
      const double erase_p = density >= 1.0 ? 0.0 : 0.5;
      for (EdgeId e = 0; e < universe; ++e) {
        if (rng.next_bool(insert_p)) {
          s.insert(e);
          oracle[static_cast<std::size_t>(e)] = true;
        }
      }
      for (EdgeId e = 0; e < universe; ++e) {
        if (oracle[static_cast<std::size_t>(e)] && rng.next_bool(erase_p)) {
          s.erase(e);
          s.erase(e);  // idempotent
          oracle[static_cast<std::size_t>(e)] = false;
        } else if (oracle[static_cast<std::size_t>(e)]) {
          s.insert(e);  // idempotent
        }
      }
      int members = 0;
      for (EdgeId e = 0; e < universe; ++e) {
        EXPECT_EQ(s.contains(e), oracle[static_cast<std::size_t>(e)]) << "edge " << e;
        members += oracle[static_cast<std::size_t>(e)] ? 1 : 0;
      }
      EXPECT_EQ(s.size(), members);
      if (density >= 1.0 && universe > 0) {
        EXPECT_EQ(s, EdgeSubset::all(make_path(universe + 1)));
      }

      // Ranges: the whole universe, every word-unaligned pair around the
      // word boundaries, empty ranges, and random ones.
      std::vector<std::pair<EdgeId, EdgeId>> ranges{{0, universe}, {universe, universe}};
      for (const EdgeId b : {0, 1, 62, 63, 64, 65, 127, 128, 129}) {
        for (const EdgeId e : {b, b + 1, 63, 64, 65, 127, 128, 129, universe - 1, universe}) {
          if (b <= e && e <= universe) ranges.emplace_back(b, e);
        }
      }
      const auto point = [&] {
        return static_cast<EdgeId>(rng.next_below(static_cast<std::uint64_t>(universe) + 1));
      };
      for (int i = 0; i < 40; ++i) {
        const EdgeId a = point();
        const EdgeId b = point();
        ranges.emplace_back(std::min(a, b), std::max(a, b));
      }
      for (const auto& [begin, end] : ranges) {
        std::vector<EdgeId> expected;
        for (EdgeId e = begin; e < end; ++e) {
          if (oracle[static_cast<std::size_t>(e)]) expected.push_back(e);
        }
        std::vector<EdgeId> seen;
        s.for_each_in(begin, end, [&](EdgeId e) { seen.push_back(e); });
        EXPECT_EQ(seen, expected) << "range [" << begin << ", " << end << ")";
      }
      std::vector<EdgeId> all_members;
      s.for_each([&](EdgeId e) { all_members.push_back(e); });
      EXPECT_EQ(all_members, s.to_vector());
      EXPECT_EQ(static_cast<int>(all_members.size()), members);
    }
  }
  EdgeSubset s(65);
  EXPECT_THROW(s.for_each_in(-1, 3, [](EdgeId) {}), std::invalid_argument);
  EXPECT_THROW(s.for_each_in(4, 3, [](EdgeId) {}), std::invalid_argument);
  EXPECT_THROW(s.for_each_in(0, 66, [](EdgeId) {}), std::invalid_argument);
}

}  // namespace
}  // namespace qplec
