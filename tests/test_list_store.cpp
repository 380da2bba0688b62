// ListStore against ColorList: random sequences of every set operation the
// solver reads (remove, remove_each, size, min/max, contains,
// count_in_range, restrict_to_range, first_free) must answer exactly what
// the same sequence answers on sorted vectors, for dense windows of every
// width around the word size, windows that start off a word boundary, and
// sparse slices mixed into the same store.  Plus the hostile-palette solves
// end to end: lists that span 2^30 colors must stay list-sized.
#include "src/coloring/list_store.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"
#include "src/service/solve_service.hpp"

namespace qplec {
namespace {

// A random subset of [lo, lo + span) with about `density` of the colors,
// always holding both ends (so the window spans exactly `span`).
ColorList random_list(Rng& rng, Color lo, Color span, double density) {
  std::vector<Color> colors;
  for (Color c = lo; c < lo + span; ++c) {
    if (c == lo || c == lo + span - 1 || rng.next_bool(density)) colors.push_back(c);
  }
  return ColorList(std::move(colors));
}

// A sparse list: `size` colors spread over a span far wider than 64 per color.
ColorList wide_list(Rng& rng, Color lo, int size) {
  std::vector<Color> colors;
  Color c = lo;
  for (int t = 0; t < size; ++t) {
    colors.push_back(c);
    c += 1000 + static_cast<Color>(rng.next_below(100000));
  }
  return ColorList(std::move(colors));
}

// A color near item i's oracle list: inside it, beside it, or far away.
Color probe(Rng& rng, const ColorList& list) {
  if (list.empty() || rng.next_bool(0.2)) {
    return static_cast<Color>(rng.next_below(5000)) - 1;  // kUncolored included
  }
  const Color pick = list.colors()[rng.next_below(static_cast<std::uint64_t>(list.size()))];
  return std::max<Color>(-1, pick + static_cast<Color>(rng.next_below(5)) - 2);
}

// Every read of item i agrees with the oracle.
void expect_same(const ListStore& store, int i, const ColorList& oracle, const std::string& tag) {
  ASSERT_EQ(store.size(i), oracle.size()) << tag;
  ASSERT_EQ(store.empty(i), oracle.empty()) << tag;
  ASSERT_EQ(store.to_list(i), oracle) << tag;
  if (!oracle.empty()) {
    ASSERT_EQ(store.min(i), oracle.colors().front()) << tag;
    ASSERT_EQ(store.max(i), oracle.colors().back()) << tag;
  }
}

// Runs `steps` random operations on every item of a store built from
// `lists`, mirrored on ColorList oracles.
void run_differential(const std::vector<ColorList>& lists, std::uint64_t seed, int steps) {
  Rng rng(seed);
  ListStore store(lists);
  std::vector<ColorList> oracle = lists;
  const int n = static_cast<int>(lists.size());
  ListStore::PickScratch scratch;
  for (int step = 0; step < steps; ++step) {
    const int i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    ColorList& want = oracle[static_cast<std::size_t>(i)];
    const std::string tag = "seed " + std::to_string(seed) + " step " + std::to_string(step) +
                            " item " + std::to_string(i);
    switch (rng.next_below(7)) {
      case 0: {
        const Color c = probe(rng, want);
        ASSERT_EQ(store.remove(i, c), c >= 0 && want.remove(c)) << tag << " remove " << c;
        break;
      }
      case 1: {
        std::vector<Color> batch;
        for (int k = static_cast<int>(rng.next_below(6)); k > 0; --k) {
          batch.push_back(probe(rng, want));
        }
        store.remove_each(i, [&](auto&& remove) {
          for (const Color c : batch) remove(c);
        });
        for (const Color c : batch) {
          if (c >= 0) want.remove(c);
        }
        break;
      }
      case 2: {
        const Color c = probe(rng, want);
        ASSERT_EQ(store.contains(i, c), c >= 0 && want.contains(c)) << tag << " contains " << c;
        break;
      }
      case 3: {
        const Color a = probe(rng, want);
        const Color b = a + static_cast<Color>(rng.next_below(300));
        ASSERT_EQ(store.count_in_range(i, a, b), want.count_in_range(a, b))
            << tag << " count [" << a << ", " << b << ")";
        break;
      }
      case 4: {
        if (!rng.next_bool(0.15)) break;  // restriction shrinks fast; keep it rare
        const Color a = probe(rng, want) - static_cast<Color>(rng.next_below(100));
        const Color b = a + static_cast<Color>(rng.next_below(400));
        store.restrict_to_range(i, a, b);
        want = want.restricted_to_range(std::max<Color>(a, 0), std::max<Color>(b, 0));
        break;
      }
      default: {
        std::vector<Color> forbidden;
        for (int k = static_cast<int>(rng.next_below(40)); k > 0; --k) {
          forbidden.push_back(probe(rng, want));
        }
        std::vector<Color> sorted;
        for (const Color c : forbidden) {
          if (c >= 0) sorted.push_back(c);
        }
        std::sort(sorted.begin(), sorted.end());
        const Color got = store.first_free(i, scratch, [&](auto&& forbid) {
          for (const Color c : forbidden) forbid(c);
        });
        ASSERT_EQ(got, want.min_excluding(sorted)) << tag << " first_free";
        break;
      }
    }
    expect_same(store, i, want, tag);
  }
  for (int i = 0; i < n; ++i) expect_same(store, i, oracle[static_cast<std::size_t>(i)], "end");
}

TEST(ListStore, RandomOperationsMatchColorListAcrossSpans) {
  std::uint64_t seed = 1;
  for (const Color span : {1, 63, 64, 65, 255, 4096}) {
    for (const Color lo : {0, 1, 37, 64, 1000}) {
      for (const double density : {0.05, 0.5, 0.95}) {
        Rng rng(seed);
        std::vector<ColorList> lists;
        for (int t = 0; t < 6; ++t) lists.push_back(random_list(rng, lo, span, density));
        run_differential(lists, seed++, 400);
      }
    }
  }
}

TEST(ListStore, DenseAndSparseItemsMixInOneStore) {
  Rng rng(99);
  std::vector<ColorList> lists;
  for (int t = 0; t < 40; ++t) {
    const Color lo = static_cast<Color>(rng.next_below(200));
    if (t % 4 == 0) {
      lists.push_back(random_list(rng, lo, 65, 0.5));
    } else if (t % 4 == 1) {
      lists.push_back(wide_list(rng, lo, 12));
    } else if (t % 4 == 2) {
      lists.emplace_back();
    } else {
      lists.push_back(random_list(rng, 7, 300, 0.3));
    }
  }
  ListStore store(lists);
  for (int t = 0; t < 40; ++t) {
    EXPECT_EQ(store.sparse(t), t % 4 == 1) << "item " << t;
  }
  run_differential(lists, 7, 6000);
}

TEST(ListStore, WindowsStartOnWordBoundariesAndStayListSized) {
  // A dense list takes at most one word per color, a sparse one exactly one
  // per color: {0, 2^30} costs two words, not a 2^30-bit window.
  const std::vector<ColorList> lists{
      ColorList(std::vector<Color>{0, Color{1} << 30}), ColorList::range(5, 5 + 65),
      ColorList(), ColorList::range(0, 3)};
  const ListStore store(lists);
  EXPECT_TRUE(store.sparse(0));
  EXPECT_FALSE(store.sparse(1));
  EXPECT_EQ(store.num_words(), 2u + 2u + 0u + 1u);
  EXPECT_EQ(store.max(0), Color{1} << 30);
  EXPECT_EQ(store.count_in_range(0, 1, Color{1} << 30), 0);
  EXPECT_EQ(store.count_in_range(1, 0, 1000), 65);
}

TEST(ListStore, OnlyTheListedItemsAreStored) {
  const std::vector<ColorList> lists(100, ColorList::range(0, 200));
  const std::vector<int> items{3, 50, 99};
  const ListStore store(lists, items);
  EXPECT_EQ(store.num_items(), 100);
  EXPECT_EQ(store.num_words(), 3u * 4u);
  for (int i = 0; i < 100; ++i) {
    const bool listed = i == 3 || i == 50 || i == 99;
    EXPECT_EQ(store.size(i), listed ? 200 : 0) << i;
  }
  const ListStore ranges = ListStore::ranges(100, items, 0, 3);
  EXPECT_EQ(ranges.to_list(50), ColorList::range(0, 3));
  EXPECT_TRUE(ranges.empty(51));
}

TEST(ListStore, FirstFreeMatchesMinExcluding) {
  // The greedy pick: the smallest list color no colored neighbor holds.
  Rng rng(2024);
  ListStore::PickScratch scratch;
  for (int trial = 0; trial < 2000; ++trial) {
    const Color lo = static_cast<Color>(rng.next_below(130));
    const Color span = 1 + static_cast<Color>(rng.next_below(trial % 3 == 0 ? 70 : 400));
    const ColorList list = trial % 7 == 0 ? wide_list(rng, lo, 1 + trial % 9)
                                          : random_list(rng, lo, span, rng.next_double());
    const std::vector<ColorList> lists{list};
    const ListStore store(lists);
    std::vector<Color> forbidden;
    for (int k = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(list.size()) + 2));
         k > 0; --k) {
      forbidden.push_back(probe(rng, list));
    }
    std::vector<Color> sorted;
    for (const Color c : forbidden) {
      if (c >= 0) sorted.push_back(c);
    }
    std::sort(sorted.begin(), sorted.end());
    const Color got = store.first_free(0, scratch, [&](auto&& forbid) {
      for (const Color c : forbidden) forbid(c);
    });
    ASSERT_EQ(got, list.min_excluding(sorted)) << "trial " << trial;
  }
}

// --- Hostile palettes end to end -------------------------------------------

std::int64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

ExecConfig backend_config(int shards) {
  ExecConfig config;
  config.shards = shards;
  if (shards > 1) {
    config.backend = BackendKind::kSharded;
    config.min_sharded_edges = 0;
  }
  return config;
}

TEST(ListStore, HostilePaletteInstanceSolvesOnEveryBackend) {
  // Every other edge holds a list spread over 2^30 colors (sparse); the rest
  // hold small dense ranges.  Edge degree 18 takes the engine past its base
  // case, through the defective split and the marking rounds.
  const Graph g = make_random_regular(120, 10, 3);
  ListEdgeColoringInstance instance;
  instance.graph = g;
  instance.palette_size = (Color{1} << 30) + 64;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const int need = g.edge_degree(e) + 1;
    std::vector<Color> colors;
    for (int t = 0; t < need; ++t) {
      colors.push_back(e % 2 == 0 ? static_cast<Color>((std::int64_t{1} << 30) / need * t) + e % 7
                                  : t + e % 5);
    }
    instance.lists.emplace_back(std::move(colors));
  }
  for (const int shards : {1, 3}) {
    const std::int64_t rss_before = peak_rss_kib();
    SolveService service(backend_config(shards));
    const SolveOutcome out = service.solve(SolveRequest::from_instance(instance).no_cache());
    ASSERT_EQ(out.status, SolveStatus::kOk) << out.error << " shards=" << shards;
    EXPECT_TRUE(out.valid) << "shards=" << shards;
    EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024) << "shards=" << shards;
  }
}

TEST(ListStore, RandomListsFromHugePaletteSolveOnEveryBackend) {
  // deg+1 colors drawn from 2^30: every list is sparse, and edge degree 18
  // runs the full recursion on them.
  const std::string path = testing::TempDir() + "/qplec_list_store_huge_palette.txt";
  {
    std::ofstream out(path);
    write_edge_list(make_random_regular(150, 10, 11), out);
  }
  for (const int shards : {1, 3}) {
    const std::int64_t rss_before = peak_rss_kib();
    SolveService service(backend_config(shards));
    const SolveOutcome out = service.solve(
        SolveRequest::from_dimacs(path).random_lists(Color{1} << 30, 5).no_cache());
    ASSERT_EQ(out.status, SolveStatus::kOk) << out.error << " shards=" << shards;
    EXPECT_TRUE(out.valid) << "shards=" << shards;
    EXPECT_EQ(out.num_edges, 150 * 10 / 2);
    EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024) << "shards=" << shards;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qplec
