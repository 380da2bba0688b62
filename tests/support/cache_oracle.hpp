// Brute-force oracle for NeighborColorCache, shared by the cache unit tests
// and the property/fuzz sweep: drives one cache through finalize waves and
// checks every consume / live-neighbor / induced-degree answer against a
// full rescan of the final-color array (the path the cache replaces).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/list_store.hpp"
#include "src/coloring/problem.hpp"
#include "src/dist/backend.hpp"
#include "src/dist/neighbor_cache.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {
namespace test_support {

/// `list` minus the final color of every finalized neighbor of e.
inline ColorList rescan(const Graph& g, const EdgeColoring& final, EdgeId e, ColorList list) {
  g.for_each_edge_neighbor(e, [&](EdgeId f) {
    if (final[static_cast<std::size_t>(f)] != kUncolored) {
      list.remove(final[static_cast<std::size_t>(f)]);
    }
  });
  return list;
}

/// Drives one cache through four waves of finalize / flush / non-consuming
/// walks / consume on every `stride`-th edge.  Wave w finalizes the live
/// edges e with (7e + w) % 4 == 0 to colors[e]; `lists` are the edges'
/// starting lists.  Callers filter live neighbors by an unfinalized-only
/// subset (the engine's contract), so the check does too.
inline void expect_cache_matches_rescan(const Graph& g, const EdgeColoring& colors,
                                        const std::vector<ColorList>& lists, int stride) {
  ASSERT_EQ(colors.size(), static_cast<std::size_t>(g.num_edges()));
  ASSERT_EQ(lists.size(), static_cast<std::size_t>(g.num_edges()));
  EdgeColoring final(static_cast<std::size_t>(g.num_edges()), kUncolored);
  NeighborColorCache cache(LineGraphConflict(g, EdgeSubset::all(g)), final, serial_backend());

  ListStore cached(lists);
  std::vector<ColorList> oracle = lists;
  EdgeSubset live = EdgeSubset::all(g);
  for (int wave = 0; wave < 4; ++wave) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!live.contains(e) || (e * 7 + wave) % 4 != 0) continue;
      final[static_cast<std::size_t>(e)] = colors[static_cast<std::size_t>(e)];
      live.erase(e);
      cache.note_finalized(0, e);
    }
    cache.flush();
    for (EdgeId e = 0; e < g.num_edges(); e += stride) {
      if (!live.contains(e)) continue;
      std::vector<EdgeId> expected;
      g.for_each_edge_neighbor(e, [&](EdgeId f) {
        if (live.contains(f)) expected.push_back(f);
      });
      std::vector<EdgeId> got;
      cache.for_each_live_neighbor(0, e, [&](EdgeId f) {
        if (live.contains(f)) got.push_back(f);
      });
      EXPECT_EQ(got, expected) << "edge " << e << " wave " << wave;
      EXPECT_EQ(cache.induced_degree(0, e, live), static_cast<int>(expected.size()))
          << "edge " << e << " wave " << wave;
      // Consume on alternating waves, so deferred colors pile up in between.
      if ((wave + e / stride) % 2 == 0) continue;
      const std::size_t i = static_cast<std::size_t>(e);
      cache.consume(0, e, cached);
      oracle[i] = rescan(g, final, e, oracle[i]);
      EXPECT_EQ(cached.to_list(e), oracle[i]) << "edge " << e << " wave " << wave;
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); e += stride) {
    if (!live.contains(e)) continue;
    const std::size_t i = static_cast<std::size_t>(e);
    cache.consume(0, e, cached);
    EXPECT_EQ(cached.to_list(e), rescan(g, final, e, lists[i])) << "edge " << e;
  }
  EXPECT_EQ(cache.deltas_flushed(), g.num_edges() - live.size());
}

/// The synthetic schedule of the cache unit tests: palette [0, 64), edge e
/// finalizes to color e % 64.
inline void expect_cache_matches_rescan(const Graph& g, int stride) {
  constexpr Color kPalette = 64;
  EdgeColoring colors(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    colors[static_cast<std::size_t>(e)] = static_cast<Color>(e % kPalette);
  }
  const std::vector<ColorList> lists(static_cast<std::size_t>(g.num_edges()),
                                     ColorList::range(0, kPalette));
  expect_cache_matches_rescan(g, colors, lists, stride);
}

}  // namespace test_support
}  // namespace qplec
