#include "src/coloring/conflict.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <optional>
#include <set>
#include <vector>

#include "src/common/rng.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/thread_pool.hpp"

namespace qplec {
namespace {

TEST(LineGraphConflict, MatchesGraphNeighborhoods) {
  const Graph g = make_gnp(25, 0.2, 44);
  const EdgeSubset all = EdgeSubset::all(g);
  const LineGraphConflict view(g, all);
  EXPECT_EQ(view.num_items(), g.num_edges());
  EXPECT_EQ(view.num_active(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_TRUE(view.active(e));
    EXPECT_EQ(view.degree(e), g.edge_degree(e));
    std::set<int> got;
    view.for_each_neighbor(e, [&](int f) { got.insert(f); });
    const auto expect_vec = g.edge_neighbors(e);
    const std::set<int> expected(expect_vec.begin(), expect_vec.end());
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(view.max_degree(), g.max_edge_degree());
}

TEST(LineGraphConflict, SubsetRestrictsNeighbors) {
  const Graph g = make_star(5);  // all 5 edges mutually conflict
  EdgeSubset sub(g.num_edges());
  sub.insert(0);
  sub.insert(2);
  sub.insert(4);
  const LineGraphConflict view(g, sub);
  EXPECT_EQ(view.num_active(), 3);
  EXPECT_FALSE(view.active(1));
  EXPECT_EQ(view.degree(0), 2);
  EXPECT_EQ(view.max_degree(), 2);
}

TEST(ExplicitConflict, BasicShape) {
  const ExplicitConflict view(6, {1, 3, 5}, {{1, 3}, {3, 5}, {1, 3}});  // dup pair
  EXPECT_EQ(view.num_items(), 6);
  EXPECT_EQ(view.num_active(), 3);
  EXPECT_FALSE(view.active(0));
  EXPECT_EQ(view.degree(1), 1);  // dedup
  EXPECT_EQ(view.degree(3), 2);
  EXPECT_EQ(view.max_degree(), 2);
}

TEST(ExplicitConflict, RejectsBadInput) {
  EXPECT_THROW(ExplicitConflict(3, {0}, {{0, 0}}), std::invalid_argument);  // self
  EXPECT_THROW(ExplicitConflict(3, {0}, {{0, 1}}), std::invalid_argument);  // inactive
  EXPECT_THROW(ExplicitConflict(3, {0, 5}, {}), std::invalid_argument);     // range
}

TEST(ExplicitConflict, IsolatedActiveItems) {
  const ExplicitConflict view(4, {0, 1, 2, 3}, {});
  EXPECT_EQ(view.max_degree(), 0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(view.degree(i), 0);
}

// The rows against a brute-force walk: for every item, active iff it is in
// the subset, and its row lists exactly the subset's edges sharing an
// endpoint, in Graph::for_each_edge_neighbor order.  A sharded build yields
// the same rows.
TEST(ConflictView, LineGraphRowsMatchBruteForceGraphWalk) {
  ThreadPool pool(3);
  for (const Graph& g : {make_gnp(40, 0.2, 7), make_star(30), make_complete(12)}) {
    Rng rng(11);
    std::vector<EdgeSubset> subsets{EdgeSubset::all(g), EdgeSubset(g.num_edges())};
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (rng.next_below(3) != 0) subsets.back().insert(e);
    }
    for (const EdgeSubset& sub : subsets) {
      const LineGraphConflict view(g, sub);
      ASSERT_EQ(view.num_items(), g.num_edges());
      ASSERT_EQ(view.num_active(), sub.size());
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        ASSERT_EQ(view.active(e), sub.contains(e));
        if (!sub.contains(e)) continue;
        const EdgeEndpoints& ep = g.endpoints(e);
        std::set<int> expected;
        for (EdgeId f = 0; f < g.num_edges(); ++f) {
          const EdgeEndpoints& fp = g.endpoints(f);
          const bool adjacent = fp.u == ep.u || fp.u == ep.v || fp.v == ep.u || fp.v == ep.v;
          if (f != e && adjacent && sub.contains(f)) expected.insert(f);
        }
        std::vector<int> walked;
        g.for_each_edge_neighbor(e, [&](EdgeId f) {
          if (sub.contains(f)) walked.push_back(f);
        });
        std::vector<int> got;
        for (const int s : view.row(view.slot(e))) got.push_back(view.item(s));
        EXPECT_EQ(got, walked) << "edge " << e;
        EXPECT_EQ(std::set<int>(got.begin(), got.end()), expected) << "edge " << e;
        EXPECT_EQ(view.degree(e), static_cast<int>(expected.size()));
      }
      const ExecBackend backend(g, 3, pool);
      const LineGraphConflict sharded(g, sub, &backend);
      for (int s = 0; s < view.num_active(); ++s) {
        ASSERT_EQ(sharded.item(s), view.item(s));
        const auto a = view.row(s);
        const auto b = sharded.row(s);
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "slot " << s;
      }
    }
  }
}

// Explicit pairs, duplicates and both orientations included: each active
// item's row is its deduplicated neighbor set in increasing item order.
TEST(ConflictView, ExplicitRowsMatchDeduplicatedPairs) {
  Rng rng(5);
  const int universe = 60;
  std::vector<int> active;
  for (int i = 0; i < universe; ++i) {
    if (rng.next_below(4) != 0) active.push_back(i);
  }
  std::vector<std::pair<int, int>> pairs;
  for (int t = 0; t < 150; ++t) {
    const int a = active[rng.next_below(active.size())];
    const int b = active[rng.next_below(active.size())];
    if (a == b) continue;
    pairs.emplace_back(a, b);
    if (t % 3 == 0) pairs.emplace_back(b, a);  // the same pair, reversed
    if (t % 5 == 0) pairs.emplace_back(a, b);  // an exact duplicate
  }
  const ExplicitConflict view(universe, active, pairs);
  ASSERT_EQ(view.num_active(), static_cast<int>(active.size()));
  for (const int i : active) {
    std::set<int> expected;
    for (const auto& [a, b] : pairs) {
      if (a == i) expected.insert(b);
      if (b == i) expected.insert(a);
    }
    std::vector<int> got;
    view.for_each_neighbor(i, [&](int f) { got.push_back(f); });
    EXPECT_EQ(got, std::vector<int>(expected.begin(), expected.end())) << "item " << i;
  }
}

// Resident memory of this process in KiB (Linux), if readable.
std::optional<long> resident_kib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return std::nullopt;
  long size = 0;
  long resident = 0;
  const int read = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (read != 2) return std::nullopt;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

TEST(ConflictView, LargeRowsLeaveTheProcessWhenDropped) {
  // K_150: 11,175 edges of conflict degree 296, so 13 MB of rows.
  const Graph g = make_complete(150);
  const EdgeSubset all = EdgeSubset::all(g);
  {
    // Once a block larger than the rows has been freed, glibc serves blocks
    // of the rows' size from its heap and keeps them resident after free.
    std::vector<char> larger(24 << 20, 1);
    ASSERT_EQ(larger[12345], 1);
  }
  const std::optional<long> before = resident_kib();
  if (!before) GTEST_SKIP() << "no /proc/self/statm";
  std::optional<long> built;
  {
    const LineGraphConflict view(g, all);
    ASSERT_EQ(view.row(0).size(), 296u);
    built = resident_kib();
  }
  const std::optional<long> after = resident_kib();
  constexpr long kRowsKib = 11175L * 296 * 4 / 1024;
  EXPECT_GT(*built - *before, kRowsKib * 3 / 4);
  EXPECT_LT(*after - *before, kRowsKib / 4) << "the rows stayed resident after the view died";
}

}  // namespace
}  // namespace qplec
