#include "src/coloring/linial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/coloring/initial.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/field.hpp"
#include "src/common/math.hpp"
#include "src/common/rng.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/generators.hpp"
#include "src/local/ledger.hpp"
#include "src/runtime/thread_pool.hpp"

namespace qplec {
namespace {

TEST(InitialColoring, ProperAndWithinPalette) {
  const Graph g = make_gnp(40, 0.2, 7).with_scrambled_ids(40 * 40, 3);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  ASSERT_EQ(init.colors.size(), static_cast<std::size_t>(g.num_edges()));
  const LineGraphConflict view(g, EdgeSubset::all(g));
  EXPECT_TRUE(is_proper_on_conflict(view, init.colors));
  for (const auto c : init.colors) EXPECT_LT(c, init.palette);
  EXPECT_EQ(init.palette, (g.max_local_id() + 1) * (g.max_local_id() + 1));
}

// Palettes up to 2^64-1 and degree bounds up to 2^30.  Besides the
// reduction's own constraints, every choice must lie inside FlatPolyEval's
// range, (k+1)(q-1)^2 < 2^64 and q < 2^31, which the step REQUIREs (the bound
// is recomputed here, not taken from FlatPolyEval::fits).
TEST(ChooseLinialParams, RespectsConstraints) {
  std::vector<std::uint64_t> palettes{100, 10000};
  for (int b = 1; b < 64; ++b) {
    palettes.push_back((1ull << b) - 1);
    palettes.push_back(1ull << b);
    palettes.push_back((1ull << b) + 1);
  }
  palettes.push_back(~std::uint64_t{0});
  std::vector<int> degrees{0, 1, 2, 3, 5, 20, 126};
  for (int b = 2; b <= 30; ++b) {
    degrees.push_back((1 << b) - 1);
    degrees.push_back(1 << b);
    if (b < 30) degrees.push_back((1 << b) + 1);
  }
  Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    palettes.push_back(std::max<std::uint64_t>(1, rng.next_u64() >> rng.next_below(64)));
    degrees.push_back(static_cast<int>(rng.next_below((1ull << 30) + 1)));
  }
  int chosen = 0;
  for (const std::uint64_t palette : palettes) {
    for (const int d : degrees) {
      const LinialParams p = choose_linial_params(palette, d);
      if (p.q == 0) continue;  // fixpoint
      ++chosen;
      const std::uint64_t q = p.q;
      const __uint128_t sum_bound = static_cast<__uint128_t>(p.k + 1) * (q - 1) * (q - 1);
      EXPECT_EQ(sum_bound >> 64, 0u) << "palette=" << palette << " d=" << d << " q=" << q
                                     << " k=" << p.k;
      EXPECT_LT(q, 1ull << 31);
      EXPECT_TRUE(is_prime(q));
      EXPECT_GE(q, static_cast<std::uint64_t>(std::max(1, d)) * p.k + 1);
      EXPECT_GE(saturating_pow(q, static_cast<unsigned>(p.k + 1)), palette);
      EXPECT_LT(q * q, palette);  // strict progress
    }
  }
  EXPECT_GT(chosen, 1000);
}

TEST(ChooseLinialParams, FixpointReturnsZero) {
  // Palette already ~ d^2: no further shrink possible.
  const LinialParams p = choose_linial_params(9, 2);
  EXPECT_EQ(p.q, 0u);
}

TEST(LinialStep, PreservesProperness) {
  const Graph g = make_gnp(30, 0.25, 15).with_scrambled_ids(900, 2);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  const LinialParams params = choose_linial_params(init.palette, g.max_edge_degree());
  ASSERT_GT(params.q, 0u);
  const auto next = linial_step(view, init.colors, params);
  EXPECT_TRUE(is_proper_on_conflict(view, next));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(next[static_cast<std::size_t>(e)],
              static_cast<std::uint64_t>(params.q) * params.q);
  }
}

TEST(LinialStep, RejectsImproperInput) {
  const Graph g = make_path(3);  // two adjacent edges
  const LineGraphConflict view(g, EdgeSubset::all(g));
  std::vector<std::uint64_t> same{5, 5};
  EXPECT_THROW(linial_step(view, same, LinialParams{11, 1}), InvariantViolation);
}

// Runs fn and expects the proper-input InvariantViolation, message included.
template <typename Fn>
void expect_improper_input_error(Fn&& fn, const std::string& where) {
  try {
    fn();
    ADD_FAILURE() << where << ": no exception";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("requires a proper input coloring"), std::string::npos)
        << where << ": " << e.what();
  }
}

/// The color of the degree-1 polynomial with constant d0 and slope d1.
std::uint64_t line_color(std::uint64_t d0, std::uint64_t d1, std::uint64_t q) {
  return d0 + d1 * q;
}

/// A star over items 0..leaves (center 0, a row in increasing item order)
/// at degree-1 parameters over GF(q): leaf i <= `meeting` meets the center's
/// line only at the i-th point of the center's scan, every other leaf but the
/// last is parallel to it, and the last leaf takes the center's color.  The
/// center therefore collides with an earlier leaf at the first `meeting`
/// points; with meeting == q it collides at every point before its walk
/// reaches the last leaf, and only the walk after the scan can name the cause.
/// Checked serially and on 3 shards.
void expect_star_rejected(std::uint32_t q, int leaves, int meeting) {
  ASSERT_LE(meeting, static_cast<int>(q));
  ASSERT_LT(meeting, leaves);
  const std::uint64_t d0 = 3;
  const std::uint64_t d1 = 5;  // the center's line: 3 + 5x
  std::vector<std::uint64_t> colors{line_color(d0, d1, q)};
  std::vector<std::pair<int, int>> conflicts;
  std::vector<int> active{0};
  for (int i = 1; i <= leaves; ++i) {
    const std::uint64_t point = (d0 + static_cast<std::uint64_t>(i) - 1) % q;  // i-th scanned
    if (i == leaves) {
      colors.push_back(colors[0]);
    } else if (i <= meeting) {
      // (d0 - point) + (d1 + 1)x: minus the center's line, x - point.
      colors.push_back(line_color((d0 + q - point) % q, d1 + 1, q));
    } else {
      // Same slope, another constant: parallel to the center's line.
      colors.push_back(line_color((d0 + 1 + static_cast<std::uint64_t>(i) % (q - 1)) % q, d1, q));
    }
    active.push_back(i);
    conflicts.emplace_back(0, i);
  }
  const Graph path = make_path(leaves + 2);  // leaves + 1 edges
  const ExplicitConflict view(leaves + 1, active, conflicts);
  ThreadPool pool(3);
  const ExecBackend sharded(path, 3, pool);
  const std::string where = "q=" + std::to_string(q) + " leaves=" + std::to_string(leaves);
  for (const ExecBackend* exec : {static_cast<const ExecBackend*>(nullptr), &sharded}) {
    expect_improper_input_error([&] { linial_step(view, colors, LinialParams{q, 1}, exec); },
                                where + (exec == nullptr ? " serial" : " 3 shards"));
  }
}

// The input check rides the collision path: an equal-colored neighbor last
// in a long row, behind neighbors that collide at the first points scanned,
// is still named, on the 16-bit (q = 11, 61) and 32-bit (q = 65537) rows.
TEST(LinialStep, RejectsEqualColorBehindEarlierCollisions) {
  expect_star_rejected(11, 12, 6);
  expect_star_rejected(61, 40, 20);
  expect_star_rejected(65537, 40, 20);
}

// Eleven leaves whose lines meet the center's at the eleven different points
// of GF(11), then a leaf with the center's color: the center's scan collides
// with an earlier leaf at every point, so only the walk after the scan can
// report the cause, with the same message as a walk before it would.
TEST(LinialStep, RejectsEqualColorHiddenAtEveryPoint) {
  expect_star_rejected(11, 12, 11);
  // The 32-bit rows run the same kernel template; covering all 65537 points
  // with degree-1 leaves would cost ~q^2/2 evaluations, so the hidden case
  // stays on the 16-bit rows at the smallest q that still has one.
  expect_star_rejected(13, 14, 13);
}

struct ReduceCase {
  // 64-bit, so the struct has no padding: the test names print its bytes.
  std::int64_t n;
  double p;
  std::uint64_t seed;
};

class LinialReduceTest : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(LinialReduceTest, ReachesQuadraticPaletteInLogStarRounds) {
  const auto [n, prob, seed] = GetParam();
  const Graph g = make_gnp(static_cast<int>(n), prob, seed)
                      .with_scrambled_ids(static_cast<std::uint64_t>(n * n), seed + 1);
  if (g.num_edges() == 0) return;
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const int d = g.max_edge_degree();
  const LinialResult res =
      linial_reduce(view, init.colors, init.palette, d, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  for (const auto c : res.colors) EXPECT_LT(c, res.palette);
  // Fixpoint palette is O(d^2): empirically < 7*(d+2)^2 for all tested d.
  EXPECT_LE(res.palette, 7ull * (d + 2) * (d + 2)) << "d=" << d;
  // O(log*): the chain collapses in a handful of iterations.
  EXPECT_LE(res.rounds, 8);
  EXPECT_EQ(ledger.total(), res.rounds);
}

INSTANTIATE_TEST_SUITE_P(Families, LinialReduceTest,
                         ::testing::Values(ReduceCase{20, 0.15, 1}, ReduceCase{40, 0.1, 2},
                                           ReduceCase{80, 0.05, 4}, ReduceCase{25, 0.6, 6},
                                           ReduceCase{120, 0.03, 7}));

// The denser graph of each repeated size gets its own prefix: the test names
// print the parameter bytes n first, so two cases of one size would otherwise
// differ only far into a long name.
INSTANTIATE_TEST_SUITE_P(DenseFamilies, LinialReduceTest,
                         ::testing::Values(ReduceCase{40, 0.3, 3}, ReduceCase{80, 0.2, 5}));

TEST(LinialReduce, PathGetsConstantPalette) {
  const Graph g = make_path(200).with_scrambled_ids(200 * 200, 11);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const LinialResult res = linial_reduce(view, init.colors, init.palette, 2, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  EXPECT_LE(res.palette, 121u);  // O(1) for degree-2 conflict graphs
}

TEST(LinialReduce, LargeIdsStillLogStar) {
  // Ids near 2^31: initial palette ~2^64 yet rounds stay ~log*.
  const Graph g = make_cycle(64).with_scrambled_ids(1ull << 31, 13);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const LinialResult res = linial_reduce(view, init.colors, init.palette, 2, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  EXPECT_LE(res.rounds, 8);
  EXPECT_LE(res.palette, 121u);
}

TEST(LinialReduce, RestrictedSubsetOnly) {
  // Reduction on a subset must not touch inactive items' colors.
  const Graph g = make_cycle(12).with_scrambled_ids(144, 17);
  EdgeSubset sub(g.num_edges());
  for (EdgeId e = 0; e < 6; ++e) sub.insert(e);
  const LineGraphConflict view(g, sub);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const LinialResult res = linial_reduce(view, init.colors, init.palette, 2, ledger);
  EXPECT_TRUE(is_proper_on_conflict(view, res.colors));
  for (EdgeId e = 6; e < 12; ++e) {
    EXPECT_EQ(res.colors[static_cast<std::size_t>(e)],
              init.colors[static_cast<std::size_t>(e)]);
  }
}

// The GFPoly step, kept as the reference: one heap polynomial per item,
// Horner with a % per coefficient, neighbors walked through the view.
std::vector<std::uint64_t> reference_step(const ConflictView& view,
                                          const std::vector<std::uint64_t>& colors,
                                          LinialParams params) {
  const std::uint32_t q = params.q;
  std::vector<std::uint64_t> next = colors;
  for (int i = 0; i < view.num_items(); ++i) {
    if (!view.active(i)) continue;
    const GFPoly mine = GFPoly::from_integer(colors[static_cast<std::size_t>(i)], q, params.k);
    std::vector<GFPoly> nbrs;
    view.for_each_neighbor(i, [&](int f) {
      nbrs.push_back(GFPoly::from_integer(colors[static_cast<std::size_t>(f)], q, params.k));
    });
    const auto start = static_cast<std::uint32_t>(colors[static_cast<std::size_t>(i)] % q);
    bool found = false;
    for (std::uint32_t t = 0; t < q && !found; ++t) {
      const std::uint32_t a = (start + t) % q;
      const std::uint32_t mv = mine.eval(a);
      bool good = true;
      for (const GFPoly& other : nbrs) good = good && other.eval(a) != mv;
      if (good) {
        next[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(a) * q + mv;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "reference found no good point for item " << i;
  }
  return next;
}

/// One differential input: a view, a proper coloring below `palette`, a
/// degree bound, and the graph the sharded backends partition (held by
/// pointer: a backend refers to it, so its address must survive a move).
struct DiffCase {
  std::string name;
  std::unique_ptr<const Graph> graph;
  std::unique_ptr<ConflictView> view;
  std::vector<std::uint64_t> colors;
  std::uint64_t palette = 0;
  int degree_bound = 0;
};

DiffCase line_graph_case(std::string name, Graph g) {
  DiffCase c;
  c.name = std::move(name);
  c.graph = std::make_unique<const Graph>(std::move(g));
  c.view = std::make_unique<ConflictView>(LineGraphConflict(*c.graph, EdgeSubset::all(*c.graph)));
  const InitialColoring init = initial_edge_coloring_from_ids(*c.graph);
  c.colors = init.colors;
  c.palette = init.palette;
  c.degree_bound = c.graph->max_edge_degree();
  return c;
}

/// Distinct random colors below `bound`, one per item of the universe.
std::vector<std::uint64_t> distinct_colors(int universe, std::uint64_t bound,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::uint64_t> used;
  while (static_cast<int>(used.size()) < universe) used.insert(rng.next_below(bound));
  std::vector<std::uint64_t> colors(used.begin(), used.end());
  rng.shuffle(colors);
  return colors;
}

/// An explicit conflict graph over `universe` items with distinct random
/// colors below 2^40; items outside `active` keep a color too (they must
/// come back untouched).
DiffCase explicit_case(std::string name, int universe, const std::vector<int>& active,
                       const std::vector<std::pair<int, int>>& conflicts, int degree_bound,
                       std::uint64_t seed) {
  DiffCase c;
  c.name = std::move(name);
  c.graph = std::make_unique<const Graph>(make_path(universe + 1));  // `universe` edges
  c.view = std::make_unique<ConflictView>(ExplicitConflict(universe, active, conflicts));
  c.colors = distinct_colors(universe, 1ull << 40, seed);
  c.palette = 1ull << 40;
  c.degree_bound = degree_bound;
  return c;
}

std::vector<LinialParams> schedule(std::uint64_t palette, int degree_bound) {
  std::vector<LinialParams> out;
  for (LinialParams p = choose_linial_params(palette, degree_bound); p.q != 0;
       p = choose_linial_params(palette, degree_bound)) {
    out.push_back(p);
    palette = static_cast<std::uint64_t>(p.q) * p.q;
  }
  return out;
}

/// The serial backend (null) and the sharded one at 1, 2 and 7 shards.
struct DiffBackends {
  explicit DiffBackends(const Graph& g) : pool(3) {
    for (const int shards : {1, 2, 7}) {
      sharded.push_back(std::make_unique<ExecBackend>(g, shards, pool));
      all.push_back(sharded.back().get());
    }
  }
  ThreadPool pool;
  std::vector<std::unique_ptr<ExecBackend>> sharded;
  std::vector<const ExecBackend*> all{nullptr};
};

/// Every step of the case's schedule and the whole reduce, on the serial
/// backend and the sharded one at 1, 2 and 7 shards, against the reference.
void expect_matches_reference(const DiffCase& c) {
  const DiffBackends diff(*c.graph);
  const std::vector<const ExecBackend*>& backends = diff.all;

  const std::vector<LinialParams> steps = schedule(c.palette, c.degree_bound);
  ASSERT_FALSE(steps.empty()) << c.name;
  std::vector<std::uint64_t> ref = c.colors;
  std::vector<std::vector<std::uint64_t>> got(backends.size(), c.colors);
  for (const LinialParams& p : steps) {
    ref = reference_step(*c.view, ref, p);
    for (std::size_t b = 0; b < backends.size(); ++b) {
      got[b] = linial_step(*c.view, got[b], p, backends[b]);
      ASSERT_EQ(got[b], ref) << c.name << " backend " << b << " q=" << p.q << " k=" << p.k;
    }
  }
  for (const ExecBackend* exec : backends) {
    RoundLedger ledger;
    const LinialResult res =
        linial_reduce(*c.view, c.colors, c.palette, c.degree_bound, ledger, exec);
    EXPECT_EQ(res.colors, ref) << c.name;
    EXPECT_EQ(res.rounds, static_cast<int>(steps.size())) << c.name;
    EXPECT_EQ(res.palette, static_cast<std::uint64_t>(steps.back().q) * steps.back().q);
  }
}

TEST(LinialDifferential, ScrambledRegularGraphsReachTheK7Step) {
  bool saw_k7 = false;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const DiffCase c = line_graph_case(
        "regular seed " + std::to_string(seed),
        make_random_regular(120, 16, seed).with_scrambled_ids(1ull << 31, seed + 10));
    for (const LinialParams& p : schedule(c.palette, c.degree_bound)) saw_k7 |= p.k == 7;
    expect_matches_reference(c);
  }
  EXPECT_TRUE(saw_k7);
}

TEST(LinialDifferential, PathAndCycleSystems) {
  // The degree-<=2 systems three_color_paths_cycles feeds in: line graphs
  // of cycles and paths, and an explicit mix of paths, cycles and isolated
  // and inactive items.
  expect_matches_reference(
      line_graph_case("cycle", make_cycle(101).with_scrambled_ids(1ull << 31, 5)));
  expect_matches_reference(
      line_graph_case("path", make_path(64).with_scrambled_ids(64 * 64, 6)));
  // Items 0..29 form a path, 30..46 a 17-cycle, 47..49 a triangle; 52 is
  // isolated and 50, 51 are inactive.
  std::vector<int> active;
  std::vector<std::pair<int, int>> conflicts;
  for (int i = 0; i < 50; ++i) active.push_back(i);
  active.push_back(52);
  for (int i = 0; i + 1 < 30; ++i) conflicts.emplace_back(i, i + 1);
  for (int i = 30; i < 47; ++i) conflicts.emplace_back(i, i == 46 ? 30 : i + 1);
  conflicts.emplace_back(47, 48);
  conflicts.emplace_back(48, 49);
  conflicts.emplace_back(49, 47);
  expect_matches_reference(explicit_case("paths+cycles", 53, active, conflicts, 2, 7));
}

TEST(LinialDifferential, CompleteGraphs) {
  expect_matches_reference(
      line_graph_case("line graph of K_12", make_complete(12).with_scrambled_ids(1ull << 20, 8)));
  for (const int n : {2, 9, 40}) {
    std::vector<int> active;
    std::vector<std::pair<int, int>> conflicts;
    for (int i = 0; i < n; ++i) {
      active.push_back(i);
      for (int j = i + 1; j < n; ++j) conflicts.emplace_back(i, j);
    }
    expect_matches_reference(
        explicit_case("K_" + std::to_string(n), n, active, conflicts, n - 1, 9 + n));
  }
}

/// The step kernel's instantiations for degree bound d: 16-bit rows of
/// widths 2..8 and 10 at the smallest prime >= max(64, d*k + 1), 32-bit rows
/// of the same widths at q = 65537, both sides of the digit-type switch
/// (65521 < 2^16 < 65537), and the largest field, q = 2^31 - 1.
std::vector<LinialParams> kernel_grid(int d) {
  std::vector<LinialParams> grid{{65521, 1}, {65521, 2}, {65537, 1}, {65537, 2}, {2147483647u, 1}};
  for (const int k : {1, 2, 3, 4, 5, 6, 7, 9}) {
    const std::uint64_t dk = static_cast<std::uint64_t>(d) * static_cast<std::uint64_t>(k) + 1;
    grid.push_back({static_cast<std::uint32_t>(next_prime(std::max<std::uint64_t>(64, dk))), k});
    grid.push_back({65537, k});
  }
  return grid;
}

/// One step at each explicit grid point, on every backend, against the
/// reference; the colors are redrawn distinct below min(q^(k+1), 2^63), so
/// every digit of a row is exercised.  Inactive items must keep theirs.
void expect_kernels_match_reference(const DiffCase& c) {
  const DiffBackends diff(*c.graph);
  for (const LinialParams& p : kernel_grid(c.degree_bound)) {
    ASSERT_TRUE(FlatPolyEval::fits(p.q, p.k)) << "q=" << p.q << " k=" << p.k;
    ASSERT_GE(static_cast<std::uint64_t>(p.q),
              static_cast<std::uint64_t>(c.degree_bound) * static_cast<std::uint64_t>(p.k) + 1);
    const std::uint64_t bound =
        std::min<std::uint64_t>(saturating_pow(p.q, static_cast<unsigned>(p.k + 1)), 1ull << 63);
    const std::vector<std::uint64_t> colors =
        distinct_colors(c.view->num_items(), bound, p.q + static_cast<std::uint64_t>(p.k));
    const std::vector<std::uint64_t> ref = reference_step(*c.view, colors, p);
    for (std::size_t b = 0; b < diff.all.size(); ++b) {
      EXPECT_EQ(linial_step(*c.view, colors, p, diff.all[b]), ref)
          << c.name << " backend " << b << " q=" << p.q << " k=" << p.k;
    }
  }
}

TEST(LinialDifferential, EveryKernelInstantiationAtExplicitParams) {
  // A random explicit graph of degree <= 6 with every 9th item inactive.
  const int universe = 90;
  std::vector<int> active;
  for (int i = 0; i < universe; ++i) {
    if (i % 9 != 4) active.push_back(i);
  }
  Rng rng(23);
  std::vector<int> degree(universe, 0);
  std::vector<std::pair<int, int>> conflicts;
  for (int t = 0; t < 400; ++t) {
    const int a = active[rng.next_below(active.size())];
    const int b = active[rng.next_below(active.size())];
    if (a == b || degree[a] == 6 || degree[b] == 6) continue;
    if (std::find(conflicts.begin(), conflicts.end(), std::pair{std::min(a, b), std::max(a, b)}) !=
        conflicts.end()) {
      continue;
    }
    conflicts.emplace_back(std::min(a, b), std::max(a, b));
    ++degree[a];
    ++degree[b];
  }
  DiffCase sparse = explicit_case("explicit degree<=6", universe, active, conflicts, 6, 29);
  sparse.degree_bound = sparse.view->max_degree();
  expect_kernels_match_reference(sparse);

  // The line graph of a random graph over half of its edges.
  DiffCase sub;
  sub.name = "line graph over an edge subset";
  sub.graph = std::make_unique<const Graph>(make_gnp(24, 0.25, 31));
  EdgeSubset half(sub.graph->num_edges());
  for (EdgeId e = 0; e < sub.graph->num_edges(); ++e) {
    if (rng.next_below(2) == 0) half.insert(e);
  }
  sub.view = std::make_unique<ConflictView>(LineGraphConflict(*sub.graph, half));
  ASSERT_GT(sub.view->num_active(), 0);
  ASSERT_LT(sub.view->num_active(), sub.graph->num_edges());
  sub.degree_bound = sub.view->max_degree();
  expect_kernels_match_reference(sub);
}

}  // namespace
}  // namespace qplec
