#include "src/coloring/problem.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "src/common/rng.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/service/solve_service.hpp"

namespace qplec {
namespace {

TEST(Problem, TwoDeltaInstanceShape) {
  const auto inst = make_two_delta_instance(make_complete(6));
  EXPECT_EQ(inst.palette_size, 2 * 5 - 1);
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    EXPECT_EQ(inst.lists[static_cast<std::size_t>(e)].size(), inst.palette_size);
  }
  EXPECT_NO_THROW(validate_instance(inst));
}

TEST(Problem, TwoDeltaFeasibleBecauseDegPlusOneAtMost2DeltaMinus1) {
  // deg(e)+1 = deg(u)+deg(v)-1 <= 2*Delta-1 always.
  const auto inst = make_two_delta_instance(make_gnp(40, 0.2, 6));
  EXPECT_NO_THROW(validate_instance(inst));
}

TEST(Problem, RandomListSizesAreDegPlusOne) {
  const Graph g = make_gnp(30, 0.25, 9);
  const Color C = 3 * (g.max_edge_degree() + 1);
  const auto inst = make_random_list_instance(make_gnp(30, 0.25, 9), C, 17);
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    EXPECT_EQ(inst.lists[static_cast<std::size_t>(e)].size(),
              inst.graph.edge_degree(e) + 1);
    if (!inst.lists[static_cast<std::size_t>(e)].empty()) {
      EXPECT_LT(inst.lists[static_cast<std::size_t>(e)].colors().back(), C);
      EXPECT_GE(inst.lists[static_cast<std::size_t>(e)].colors().front(), 0);
    }
  }
  EXPECT_NO_THROW(validate_instance(inst));
}

TEST(Problem, RandomListRejectsTooSmallPalette) {
  Graph g = make_complete(6);
  const Color too_small = g.max_edge_degree();  // needs > max edge degree
  EXPECT_THROW(make_random_list_instance(std::move(g), too_small, 1),
               std::invalid_argument);
}

TEST(Problem, SlackInstanceSizes) {
  const double S = 3.0;
  const auto inst = make_slack_instance(make_random_regular(20, 4, 2), S, 200, 5);
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const int deg = inst.graph.edge_degree(e);
    EXPECT_GT(inst.lists[static_cast<std::size_t>(e)].size(), S * deg - 1e-9);
  }
}

TEST(Problem, SlackInstanceRejectsInfeasible) {
  EXPECT_THROW(make_slack_instance(make_complete(10), 50.0, 100, 1),
               std::invalid_argument);
}

TEST(Problem, ClusteredInstanceValid) {
  const auto inst =
      make_clustered_list_instance(make_gnp(40, 0.15, 11), 500, 64, 23);
  EXPECT_NO_THROW(validate_instance(inst));
  // Lists are confined to narrow windows.
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const auto& cl = inst.lists[static_cast<std::size_t>(e)].colors();
    if (cl.size() >= 2) {
      EXPECT_LE(cl.back() - cl.front(),
                std::max<Color>(64, static_cast<Color>(cl.size())));
    }
  }
}

TEST(Problem, DeterministicBySeed) {
  const auto a = make_random_list_instance(make_cycle(30), 10, 99);
  const auto b = make_random_list_instance(make_cycle(30), 10, 99);
  for (EdgeId e = 0; e < 30; ++e) {
    EXPECT_EQ(a.lists[static_cast<std::size_t>(e)], b.lists[static_cast<std::size_t>(e)]);
  }
  const auto c = make_random_list_instance(make_cycle(30), 10, 100);
  bool differ = false;
  for (EdgeId e = 0; e < 30 && !differ; ++e) {
    differ = !(a.lists[static_cast<std::size_t>(e)] == c.lists[static_cast<std::size_t>(e)]);
  }
  EXPECT_TRUE(differ);
}

TEST(Problem, ValidateCatchesShortList) {
  auto inst = make_two_delta_instance(make_cycle(5));
  inst.lists[0] = ColorList({0});  // deg=2 needs >= 3
  EXPECT_THROW(validate_instance(inst), std::invalid_argument);
}

TEST(Problem, ValidateCatchesOutOfPalette) {
  auto inst = make_two_delta_instance(make_cycle(5));
  inst.lists[0] = ColorList({0, 1, inst.palette_size});
  EXPECT_THROW(validate_instance(inst), std::invalid_argument);
}

// Test-local copy of the list sampler as it was before membership moved into
// a bitset: one sorted insert per rejection draw, and a shuffle followed by a
// sort.  Every builder must still produce exactly these lists, draw for draw.
std::vector<Color> reference_sample(Rng& rng, Color lo, Color hi, int size) {
  const std::int64_t span = hi - lo;
  std::vector<Color> out;
  if (size * 3 >= span) {
    std::vector<Color> pool(static_cast<std::size_t>(span));
    for (std::int64_t i = 0; i < span; ++i) {
      pool[static_cast<std::size_t>(i)] = lo + static_cast<Color>(i);
    }
    rng.shuffle(pool);
    out.assign(pool.begin(), pool.begin() + size);
  } else {
    std::vector<Color> sorted;
    while (static_cast<int>(out.size()) < size) {
      const Color c = lo + static_cast<Color>(rng.next_below(static_cast<std::uint64_t>(span)));
      auto it = std::lower_bound(sorted.begin(), sorted.end(), c);
      if (it != sorted.end() && *it == c) continue;
      sorted.insert(it, c);
      out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Which sampler regimes and spans the oracle comparisons reached.
struct SamplerCoverage {
  std::set<std::int64_t> spans;
  bool shuffle = false;         ///< 3 * size > span
  bool boundary = false;        ///< 3 * size == span (still shuffles)
  bool bitset_draws = false;    ///< rejection with span <= 64 * size
  bool sorted_draws = false;    ///< rejection with span > 64 * size
  bool offset = false;          ///< lo > 0

  void note(Color lo, Color hi, int size) {
    const std::int64_t span = hi - lo;
    spans.insert(span);
    offset = offset || lo > 0;
    if (3 * std::int64_t{size} > span) {
      shuffle = true;
    } else if (3 * std::int64_t{size} == span) {
      boundary = true;
    } else if (span <= 64 * std::int64_t{size}) {
      bitset_draws = true;
    } else {
      sorted_draws = true;
    }
  }
};

/// Expects inst's list of every edge e to equal reference_sample over
/// window(e) = {lo, hi, size} with Rng(seed).fork(e).
template <typename Window>
void expect_reference_lists(const ListEdgeColoringInstance& inst, std::uint64_t seed,
                            Window window, SamplerCoverage& coverage) {
  const Rng rng(seed);
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const auto [lo, hi, size] = window(e);
    coverage.note(lo, hi, size);
    Rng edge_rng = rng.fork(static_cast<std::uint64_t>(e));
    ASSERT_EQ(inst.lists[static_cast<std::size_t>(e)].colors(),
              reference_sample(edge_rng, lo, hi, size))
        << "edge " << e << " window [" << lo << ", " << hi << ") size " << size;
  }
}

struct SampleWindow {
  Color lo;
  Color hi;
  int size;
};

TEST(Problem, SamplerMatchesReferenceOnEveryBuilder) {
  SamplerCoverage coverage;
  const Graph single = GraphBuilder(2).add_edge(0, 1).build();  // size 1
  const Graph cycle = make_cycle(30);                            // size 3
  const Graph gnp = make_gnp(40, 0.2, 4);                        // mixed sizes
  const std::uint64_t seed = 31;

  const auto random_lists = [&](const Graph& g, Color palette) {
    SCOPED_TRACE("random lists, palette " + std::to_string(palette));
    const auto inst = make_random_list_instance(g, palette, seed);
    expect_reference_lists(
        inst, seed,
        [&](EdgeId e) { return SampleWindow{0, palette, g.edge_degree(e) + 1}; }, coverage);
  };
  for (const Color palette : {1, 63, 64, 65, 255, 4096}) random_lists(single, palette);
  for (const Color palette : {9, 10, 63, 64, 65, 255, 4096}) random_lists(cycle, palette);
  for (const Color palette : {gnp.max_edge_degree() + 1, 3 * (gnp.max_edge_degree() + 1), 255,
                              4096}) {
    random_lists(gnp, palette);
  }

  const Graph regular = make_random_regular(20, 4, 2);  // edge degree 6
  for (const auto& [slack, palette] :
       std::vector<std::pair<double, Color>>{{1.0, 21}, {3.0, 200}, {60.0, 4096}}) {
    SCOPED_TRACE("slack " + std::to_string(slack) + ", palette " + std::to_string(palette));
    const auto inst = make_slack_instance(regular, slack, palette, seed);
    expect_reference_lists(
        inst, seed,
        [&](EdgeId e) {
          return SampleWindow{0, palette, static_cast<int>(slack * regular.edge_degree(e)) + 1};
        },
        coverage);
  }

  // The clustered builder's window: centered on a hash of the lower
  // endpoint, as in make_clustered_list_instance.
  for (const auto& [palette, window] :
       std::vector<std::pair<Color, int>>{{500, 64}, {4096, 255}, {200, 1}}) {
    SCOPED_TRACE("clustered, palette " + std::to_string(palette) + ", window " +
                 std::to_string(window));
    const auto inst = make_clustered_list_instance(gnp, palette, window, seed);
    expect_reference_lists(
        inst, seed,
        [&](EdgeId e) {
          const int size = gnp.edge_degree(e) + 1;
          const Color span = std::max<Color>(window, size);
          const Color max_lo = std::max<Color>(0, palette - span);
          const Color lo =
              max_lo == 0 ? 0
                          : static_cast<Color>((static_cast<std::uint64_t>(gnp.endpoints(e).u) *
                                                2654435761u) %
                                               static_cast<std::uint64_t>(max_lo + 1));
          return SampleWindow{lo, std::min<Color>(palette, lo + span), size};
        },
        coverage);
  }

  EXPECT_TRUE(coverage.shuffle);
  EXPECT_TRUE(coverage.boundary);
  EXPECT_TRUE(coverage.bitset_draws);
  EXPECT_TRUE(coverage.sorted_draws);
  EXPECT_TRUE(coverage.offset);
  for (const std::int64_t span : {1, 63, 64, 65, 255, 4096}) {
    EXPECT_EQ(coverage.spans.count(span), 1u) << "span " << span << " never sampled";
  }
}

std::int64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(Problem, RandomListsFromHugePaletteStayListSized) {
  // A service request may name any palette.  Lists of deg+1 colors drawn
  // from 2^30 colors must cost O(list) memory, not a bitset over the
  // palette (2^30 bits = 128 MiB).
  const std::string path = testing::TempDir() + "/qplec_huge_palette.dimacs";
  {
    std::ofstream out(path);
    out << "p edge 12 12\n";
    for (int v = 1; v <= 12; ++v) out << "e " << v << ' ' << v % 12 + 1 << '\n';
  }
  const std::int64_t rss_before = peak_rss_kib();
  SolveService service;
  const SolveOutcome out =
      service.solve(SolveRequest::from_dimacs(path).random_lists(Color{1} << 30, 5));
  std::remove(path.c_str());
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.num_edges, 12);
  EXPECT_LT(peak_rss_kib() - rss_before, 64 * 1024);
}

}  // namespace
}  // namespace qplec
