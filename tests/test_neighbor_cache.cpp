// The NeighborColorCache contract: every consume / live-neighbor /
// induced-degree answer over the adopted line-graph rows matches a
// brute-force rescan of the final-color array, hub-heavy graphs included;
// the telemetry is shard-count invariant; plus unit tests of the delta
// machinery itself (finalize scatter, shard-boundary crossing, consume after
// re-restriction, live-neighbor compaction).
#include "src/dist/neighbor_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/coloring/problem.hpp"
#include "src/coloring/conflict.hpp"
#include "src/core/solver.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/runtime/thread_pool.hpp"
#include "tests/support/cache_oracle.hpp"
#include "tests/support/smoke_manifest.hpp"

namespace qplec {
namespace {

using test_support::expect_cache_matches_rescan;
using test_support::smoke_scenarios;

const int kShardCounts[] = {1, 2, 7};

// A store in which edge e of g holds `list` and every other edge is empty.
ListStore store_with(const Graph& g, EdgeId e, ColorList list) {
  std::vector<ColorList> lists(static_cast<std::size_t>(g.num_edges()));
  lists[static_cast<std::size_t>(e)] = std::move(list);
  return ListStore(lists);
}

// The hub input: a 2000-leaf star's rows hold ~4M entries, every edge
// adjacent to every other.
TEST(NeighborCache, RowModeMatchesBruteForceRescan) {
  expect_cache_matches_rescan(make_random_regular(200, 8, 5), /*stride=*/1);
  expect_cache_matches_rescan(make_star(2000), /*stride=*/97);
}

// The cache telemetry is itself deterministic: every shard count reports the
// same delta/scatter counts (one delta per finalized edge).
TEST(NeighborCache, TelemetryIsShardCountInvariant) {
  ThreadPool pool(3);
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    std::int64_t deltas = -1, scattered = -1;
    for (const int shards : kShardCounts) {
      ExecConfig exec;
      exec.shards = shards;
      exec.min_sharded_edges = 0;
      exec.shared_pool = shards > 1 ? &pool : nullptr;
      const SolveResult res = Solver(make_policy(scenario.policy), exec).solve(instance);
      EXPECT_GT(res.stats.cache_deltas, 0) << scenario.name();
      if (deltas < 0) {
        deltas = res.stats.cache_deltas;
        scattered = res.stats.cache_colors_removed;
      } else {
        EXPECT_EQ(res.stats.cache_deltas, deltas)
            << scenario.name() << " shards=" << shards;
        EXPECT_EQ(res.stats.cache_colors_removed, scattered)
            << scenario.name() << " shards=" << shards;
      }
    }
  }
}

// --- Delta-queue / row-sweep unit tests ----------------------------------

// Finalize: a consuming sweep removes a newly finalized neighbor's color
// from the list, compacts the entry out of the live row, and handles the
// pair exactly once; the flushed delta log counts the finalization.
TEST(NeighborCache, ConsumeRemovesFinalizedNeighborColorExactlyOnce) {
  // Path 0-1-2-3-4: edges e0..e3 in id order; e1 neighbors e0 and e2 only.
  const Graph g = make_path(5);
  ASSERT_EQ(g.num_edges(), 4);
  EdgeColoring final(4, kUncolored);
  NeighborColorCache cache(LineGraphConflict(g, EdgeSubset::all(g)), final, serial_backend());
  EXPECT_EQ(cache.live_degree_bound(0), g.edge_degree(0));

  final[1] = 7;
  cache.note_finalized(0, 1);
  cache.flush();
  EXPECT_EQ(cache.deltas_flushed(), 1);

  ListStore lists = store_with(g, 0, ColorList(std::vector<Color>{5, 7, 9}));
  cache.consume(0, 0, lists);
  EXPECT_EQ(lists.to_list(0), ColorList(std::vector<Color>{5, 9}));
  EXPECT_EQ(cache.live_degree_bound(0), g.edge_degree(0) - 1);  // e1 dropped
  EXPECT_EQ(cache.colors_removed(), 1);

  // The pair was handled once: a second consume finds nothing to do.
  ListStore relisted = store_with(g, 0, ColorList(std::vector<Color>{7, 8}));
  cache.consume(0, 0, relisted);
  EXPECT_EQ(relisted.to_list(0), ColorList(std::vector<Color>{7, 8}));
  EXPECT_EQ(cache.colors_removed(), 1);
}

// Boundary crossing: a sharded cache (rows built on the sharded backend,
// deltas noted on different lanes) behaves identically to the
// serial cache when finalized edges sit at shard boundaries — the live rows,
// consume results and telemetry all match.
TEST(NeighborCache, BoundaryFinalizationsMatchSerialAcrossShardCounts) {
  const Graph g = make_cycle(40);
  ThreadPool pool(3);
  for (const int shards : {2, 7}) {
    const ExecBackend backend(g, shards, pool);
    EdgeColoring final(static_cast<std::size_t>(g.num_edges()), kUncolored);
    NeighborColorCache sharded_cache(LineGraphConflict(g, EdgeSubset::all(g), &backend), final,
                                     backend);
    NeighborColorCache serial_cache(LineGraphConflict(g, EdgeSubset::all(g)), final,
                                    serial_backend());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(sharded_cache.live_degree_bound(e), serial_cache.live_degree_bound(e));
    }

    // Finalize a spread of edges, including both ends of the id space (their
    // cycle neighborhoods wrap across every shard layout), noted on distinct
    // lanes of the sharded cache.
    const std::vector<EdgeId> finalized{0, 1, 19, 39};
    int lane = 0;
    for (const EdgeId e : finalized) {
      final[static_cast<std::size_t>(e)] = 100 + e;
      sharded_cache.note_finalized(lane % sharded_cache.num_lanes(), e);
      serial_cache.note_finalized(0, e);
      ++lane;
    }
    sharded_cache.flush();
    serial_cache.flush();
    EXPECT_EQ(sharded_cache.deltas_flushed(), serial_cache.deltas_flushed());

    ListStore a(std::vector<ColorList>(static_cast<std::size_t>(g.num_edges()),
                                       ColorList::range(100, 100 + 40)));
    ListStore b = a;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      sharded_cache.consume(0, e, a);
      serial_cache.consume(0, e, b);
      EXPECT_EQ(a.to_list(e), b.to_list(e)) << "edge " << e << " shards=" << shards;
      EXPECT_EQ(sharded_cache.live_degree_bound(e), serial_cache.live_degree_bound(e))
          << "edge " << e << " shards=" << shards;
    }
    EXPECT_EQ(sharded_cache.colors_removed(), serial_cache.colors_removed());
  }
}

// The round head's fused walk: consume_and_count leaves the same lists, live
// rows and telemetry as consume followed by induced_degree, and returns the
// same degree, on dirty rows (a finalize wave since the last sweep) and clean
// ones alike.
TEST(NeighborCache, ConsumeAndCountMatchesConsumeThenInducedDegree) {
  const Graph g = make_random_regular(60, 7, 13);
  const auto m = static_cast<std::size_t>(g.num_edges());
  EdgeColoring final(m, kUncolored);
  NeighborColorCache split(LineGraphConflict(g, EdgeSubset::all(g)), final, serial_backend());
  NeighborColorCache fused(LineGraphConflict(g, EdgeSubset::all(g)), final, serial_backend());
  const std::vector<ColorList> start(m, ColorList::range(0, 64));
  ListStore split_lists(start);
  ListStore fused_lists(start);
  EdgeSubset live = EdgeSubset::all(g);
  for (int wave = 0; wave < 4; ++wave) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!live.contains(e) || (e * 5 + wave) % 3 != 0) continue;
      final[static_cast<std::size_t>(e)] = static_cast<Color>(e % 64);
      live.erase(e);
      split.note_finalized(0, e);
      fused.note_finalized(0, e);
    }
    split.flush();
    fused.flush();
    // Count over every other live edge, so the subset is not the live set.
    EdgeSubset s(g.num_edges());
    live.for_each([&](EdgeId e) {
      if (e % 2 == 0) s.insert(e);
    });
    for (int pass = 0; pass < 2; ++pass) {  // dirty rows, then clean ones
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!live.contains(e)) continue;
        split.consume(0, e, split_lists);
        const int want = split.induced_degree(0, e, s);
        EXPECT_EQ(fused.consume_and_count(0, e, fused_lists, s), want)
            << "edge " << e << " wave " << wave << " pass " << pass;
        EXPECT_EQ(fused_lists.to_list(e), split_lists.to_list(e)) << "edge " << e;
        EXPECT_EQ(fused.live_degree_bound(e), split.live_degree_bound(e)) << "edge " << e;
      }
    }
  }
  EXPECT_EQ(fused.colors_removed(), split.colors_removed());
  EXPECT_GT(fused.colors_removed(), 0);
}

// Re-restriction: colors that a restriction already dropped from the list
// consume as no-ops (removal is idempotent), leaving the same list the full
// rescan would.
TEST(NeighborCache, ConsumeAfterRestrictionIsANoOpForDroppedColors) {
  const Graph g = make_path(4);  // edges e0, e1, e2
  EdgeColoring final(3, kUncolored);
  NeighborColorCache cache(LineGraphConflict(g, EdgeSubset::all(g)), final, serial_backend());

  final[1] = 50;
  cache.note_finalized(0, 1);
  cache.flush();

  // e0's list got restricted to [0, 10) before it consumed the finalization:
  // color 50 is already gone, and consuming must not disturb the rest.
  ListStore lists = store_with(g, 0, ColorList(std::vector<Color>{2, 5, 50}));
  lists.restrict_to_range(0, 0, 10);
  cache.consume(0, 0, lists);
  EXPECT_EQ(lists.to_list(0), ColorList(std::vector<Color>{2, 5}));
  EXPECT_EQ(cache.live_degree_bound(0), g.edge_degree(0) - 1);
}

// Live-neighbor iteration: matches the full neighborhood walk filtered by
// finalization, defers the compacted-out colors into the pending slot (the
// channel that keeps non-consuming passes from losing removals), and
// induced_degree agrees with the subset's own count on unfinalized subsets.
TEST(NeighborCache, LiveNeighborsMatchFilteredFullWalkAndDeferColors) {
  const Graph g = make_gnp(24, 0.3, 9);
  EdgeColoring final(static_cast<std::size_t>(g.num_edges()), kUncolored);
  NeighborColorCache cache(LineGraphConflict(g, EdgeSubset::all(g)), final, serial_backend());

  // Finalize every third edge.
  EdgeSubset uncolored(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (e % 3 == 0) {
      final[static_cast<std::size_t>(e)] = 1000 + e;
    } else {
      uncolored.insert(e);
    }
  }

  ListStore lists(std::vector<ColorList>(static_cast<std::size_t>(g.num_edges()),
                                         ColorList::range(1000, 1000 + g.num_edges())));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::vector<EdgeId> expected;
    std::vector<Color> expected_deferred;
    g.for_each_edge_neighbor(e, [&](EdgeId f) {
      if (final[static_cast<std::size_t>(f)] == kUncolored) {
        expected.push_back(f);
      } else {
        expected_deferred.push_back(final[static_cast<std::size_t>(f)]);
      }
    });
    std::vector<EdgeId> live;
    cache.for_each_live_neighbor(0, e, [&](EdgeId f) { live.push_back(f); });
    EXPECT_EQ(live, expected) << "edge " << e;
    EXPECT_EQ(cache.live_degree_bound(e), static_cast<int>(expected.size()));
    EXPECT_EQ(cache.pending(e), expected_deferred) << "edge " << e;
    // A second walk sees the compacted row, same contents, defers nothing new.
    std::vector<EdgeId> again;
    cache.for_each_live_neighbor(0, e, [&](EdgeId f) { again.push_back(f); });
    EXPECT_EQ(again, expected);
    EXPECT_EQ(cache.pending(e), expected_deferred);
    EXPECT_EQ(cache.induced_degree(0, e, uncolored), uncolored.induced_edge_degree(g, e));
    // The deferred colors drain at the next consume — nothing is lost.
    cache.consume(0, e, lists);
    EXPECT_TRUE(cache.pending(e).empty());
    for (const Color c : expected_deferred) EXPECT_FALSE(lists.contains(e, c));
  }
}

}  // namespace
}  // namespace qplec
