// Property-based tests: randomized operation sequences checked against
// straightforward reference models (std::set and brute force), plus
// whole-pipeline invariants swept across many seeds.
//
// The PropertyFuzz suite is the property/fuzz tier (ctest label `property`):
// seeded random-graph sweeps asserting that the NeighborColorCache removes
// exactly the colors a full rescan would, that every validation tier and
// shard count solves bit-identically and properly on every instance, and
// that the batched incremental greedy sweep matches a straightforward
// per-class reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "src/coloring/conflict.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/palette.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/rng.hpp"
#include "src/core/recolor.hpp"
#include "src/core/solver.hpp"
#include "src/dist/neighbor_cache.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/subset.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/runtime/thread_pool.hpp"
#include "src/service/solve_service.hpp"
#include "tests/support/cache_oracle.hpp"

namespace qplec {
namespace {

TEST(Properties, ColorListMatchesSetModel) {
  Rng rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    std::set<Color> model;
    for (int i = 0; i < 40; ++i) {
      model.insert(static_cast<Color>(rng.next_below(200)));
    }
    ColorList list(std::vector<Color>(model.begin(), model.end()));
    // Random removals keep the two in sync.
    for (int op = 0; op < 60; ++op) {
      const Color c = static_cast<Color>(rng.next_below(200));
      EXPECT_EQ(list.remove(c), model.erase(c) > 0);
      EXPECT_EQ(list.size(), static_cast<int>(model.size()));
      const Color probe = static_cast<Color>(rng.next_below(200));
      EXPECT_EQ(list.contains(probe), model.count(probe) > 0);
    }
    // Range queries against the model.
    for (int q = 0; q < 10; ++q) {
      const Color lo = static_cast<Color>(rng.next_below(200));
      const Color hi = lo + static_cast<Color>(rng.next_below(60));
      int expected = 0;
      for (const Color c : model) {
        expected += (c >= lo && c < hi) ? 1 : 0;
      }
      EXPECT_EQ(list.count_in_range(lo, hi), expected);
      EXPECT_EQ(list.restricted_to_range(lo, hi).size(), expected);
    }
  }
}

TEST(Properties, MinExcludingMatchesBruteForce) {
  Rng rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    std::set<Color> members;
    const int size = 1 + static_cast<int>(rng.next_below(20));
    while (static_cast<int>(members.size()) < size) {
      members.insert(static_cast<Color>(rng.next_below(40)));
    }
    std::set<Color> forbidden;
    const int fsize = static_cast<int>(rng.next_below(25));
    while (static_cast<int>(forbidden.size()) < fsize) {
      forbidden.insert(static_cast<Color>(rng.next_below(40)));
    }
    const ColorList list(std::vector<Color>(members.begin(), members.end()));
    const std::vector<Color> fvec(forbidden.begin(), forbidden.end());
    Color expected = kUncolored;
    for (const Color c : members) {
      if (!forbidden.count(c)) {
        expected = c;
        break;
      }
    }
    EXPECT_EQ(list.min_excluding(fvec), expected);
  }
}

TEST(Properties, EdgeSubsetMatchesSetModel) {
  Rng rng(606);
  const int universe = 64;
  EdgeSubset subset(universe);
  std::set<EdgeId> model;
  for (int op = 0; op < 500; ++op) {
    const auto e = static_cast<EdgeId>(rng.next_below(universe));
    if (rng.next_bool(0.5)) {
      subset.insert(e);
      model.insert(e);
    } else {
      subset.erase(e);
      model.erase(e);
    }
    EXPECT_EQ(subset.size(), static_cast<int>(model.size()));
    EXPECT_EQ(subset.contains(e), model.count(e) > 0);
  }
  const auto vec = subset.to_vector();
  EXPECT_TRUE(std::equal(vec.begin(), vec.end(), model.begin(), model.end()));
}

TEST(Properties, BuilderDedupMatchesSetModel) {
  Rng rng(707);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 12;
    GraphBuilder b(n);
    std::set<std::pair<NodeId, NodeId>> model;
    for (int i = 0; i < 80; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u == v) continue;
      b.add_edge(u, v);
      model.insert({std::min(u, v), std::max(u, v)});
    }
    const Graph g = b.build();
    ASSERT_EQ(g.num_edges(), static_cast<int>(model.size()));
    auto it = model.begin();
    for (EdgeId e = 0; e < g.num_edges(); ++e, ++it) {
      EXPECT_EQ(g.endpoints(e).u, it->first);
      EXPECT_EQ(g.endpoints(e).v, it->second);
    }
  }
}

TEST(Properties, SumOfDegreesIsTwiceEdges) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const Graph g = make_gnp(40, 0.2, seed);
    std::int64_t total = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) total += g.degree(v);
    EXPECT_EQ(total, 2LL * g.num_edges());
    // Handshake for the line graph too: sum of edge degrees = 2 * (number of
    // adjacent edge pairs).
    std::int64_t edge_total = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) edge_total += g.edge_degree(e);
    EXPECT_EQ(edge_total % 2, 0);
  }
}

TEST(Properties, SolverInvariantTelemetryAcrossSeeds) {
  // The recorded lemma-tightness extremes must respect the proofs on every
  // instance (they are also asserted internally; this checks the telemetry
  // plumbing end to end).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = make_gnp(36, 0.3, seed).with_scrambled_ids(36 * 36, seed);
    if (g.num_edges() == 0) continue;
    Policy pol = Policy::practical();
    pol.base_degree_threshold = 8;
    const auto res = Solver(pol).solve(make_two_delta_instance(g));
    EXPECT_LE(res.stats.max_defect_ratio, 1.0 + 1e-9) << seed;
    EXPECT_LE(res.stats.max_eq2_ratio, 1.0 + 1e-9) << seed;
    EXPECT_GE(res.stats.max_depth, 0);
    EXPECT_LE(res.stats.max_depth, pol.max_depth);
  }
}

TEST(Properties, PartitionCoversEveryColorExactlyOnce) {
  Rng rng(808);
  for (int trial = 0; trial < 100; ++trial) {
    const Color C = 1 + static_cast<Color>(rng.next_below(5000));
    const int p = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(C)));
    const PalettePartition part = PalettePartition::uniform(C, p);
    for (int probe = 0; probe < 20; ++probe) {
      const Color c = static_cast<Color>(rng.next_below(static_cast<std::uint64_t>(C)));
      const int i = part.part_of(c);
      EXPECT_GE(c, part.part_begin(i));
      EXPECT_LT(c, part.part_end(i));
    }
  }
}

TEST(Properties, ScrambledIdsPreserveStructureOnlyRelabelled) {
  const Graph a = make_random_regular(30, 4, 5);
  const Graph b = a.with_scrambled_ids(900, 77);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e), b.endpoints(e));  // topology identical
  }
}

// ---------------------------------------------------------------------------
// PropertyFuzz: the seeded random-graph sweep of the neighbor cache and the
// round-loop schedule.
// ---------------------------------------------------------------------------

/// family x size x seed sweep shared by the fuzz tests below; the power-law
/// family puts hub-heavy graphs in the sweep.
std::vector<Scenario> random_graph_sweep() {
  struct Case {
    GraphFamily family;
    int size;
    int aux;
  };
  const Case cases[] = {
      {GraphFamily::kGnp, 30, 0},       {GraphFamily::kGnp, 44, 0},
      {GraphFamily::kRegular, 32, 6},   {GraphFamily::kRegular, 48, 4},
      {GraphFamily::kPowerLaw, 60, 10}, {GraphFamily::kTree, 50, 0},
      {GraphFamily::kTorus, 5, 0},
  };
  const ListFlavor flavors[] = {ListFlavor::kTwoDelta, ListFlavor::kRandomDegPlusOne};
  std::vector<Scenario> out;
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      out.push_back(Scenario{c.family, c.size, flavors[seed % 2], PolicyKind::kPractical, seed,
                             c.aux});
    }
  }
  return out;
}

// Every instance of the sweep solves to a proper list coloring, and the
// neighbor cache the solve runs on removes exactly the colors the full
// rescan it replaces would: finalizing the solved colors in waves, every
// consume / live-neighbor / induced-degree answer of the cache is
// bit-identical to the brute-force rescan, starting from the instance lists.
TEST(PropertyFuzz, CacheOnOffBitIdenticalAcrossRandomGraphSweep) {
  int swept = 0;
  for (const Scenario& scenario : random_graph_sweep()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    if (instance.graph.num_edges() == 0) continue;
    ++swept;
    SCOPED_TRACE(scenario.name());
    const SolveResult res = Solver(Policy::practical()).solve(instance);
    EXPECT_TRUE(is_proper_edge_coloring(instance.graph, res.colors));
    EXPECT_TRUE(is_valid_list_coloring(instance, res.colors));
    test_support::expect_cache_matches_rescan(instance.graph, res.colors, instance.lists,
                                              /*stride=*/1);
  }
  EXPECT_GE(swept, 25);  // the sweep must not silently degenerate
}

// family x size x seed sweep: validation tier {off, sampled, every_round} x
// shards {1, 2, 7} must leave every fingerprint — colors, rounds, raw
// rounds, the full ledger report — bit-identical to the serial every_round
// solve, and that solve must be a proper list coloring.  The tier only skips
// pure-assert walks and shards only re-partition edge-owned work; nothing an
// edge observes may change.
TEST(PropertyFuzz, ValidationTierAndShardsBitIdenticalAcrossRandomSweep) {
  ThreadPool pool(3);
  int swept = 0;
  for (const Scenario& scenario : random_graph_sweep()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    if (instance.graph.num_edges() == 0) continue;
    ++swept;

    ExecConfig reference_config;
    reference_config.validation_tier = ValidationTier::kEveryRound;
    const SolveResult reference =
        Solver(Policy::practical(), reference_config).solve(instance);
    EXPECT_TRUE(is_proper_edge_coloring(instance.graph, reference.colors)) << scenario.name();
    EXPECT_TRUE(is_valid_list_coloring(instance, reference.colors)) << scenario.name();

    for (const ValidationTier tier :
         {ValidationTier::kOff, ValidationTier::kSampled, ValidationTier::kEveryRound}) {
      for (const int shards : {1, 2, 7}) {
        ExecConfig config;
        config.validation_tier = tier;
        config.shards = shards;
        config.min_sharded_edges = 0;  // shard even these small graphs
        config.shared_pool = shards > 1 ? &pool : nullptr;
        const SolveResult res = Solver(Policy::practical(), config).solve(instance);
        const std::string tag = scenario.name() + " tier=" + validation_tier_name(tier) +
                                " shards=" + std::to_string(shards);
        EXPECT_EQ(res.colors, reference.colors) << tag;
        EXPECT_EQ(res.rounds, reference.rounds) << tag;
        EXPECT_EQ(res.raw_rounds, reference.raw_rounds) << tag;
        EXPECT_EQ(res.round_report, reference.round_report) << tag;
      }
    }
  }
  EXPECT_GE(swept, 25);  // the sweep must not silently degenerate
}

// The batched incremental class sweep (delta-fed forbidden sets, small
// classes fused into one region) against a straightforward reference: one
// class at a time, forbidden rebuilt by a full neighborhood rescan.  The
// scrambled-id initial coloring gives a huge palette of tiny classes, so the
// quantum and the intra-batch independence check both exercise.
TEST(PropertyFuzz, BatchedGreedySweepMatchesPerClassReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g =
        make_gnp(26, 0.25, seed).with_scrambled_ids(26 * 26, seed + 10);
    if (g.num_edges() == 0) continue;
    const auto instance = make_random_list_instance(g, 2 * (g.max_edge_degree() + 1), seed);
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);

    std::vector<Color> batched(static_cast<std::size_t>(g.num_edges()), kUncolored);
    RoundLedger ledger;
    greedy_by_classes(view, instance.lists, init.colors, init.palette, batched, ledger);

    // Reference: classes in increasing order, forbidden from a full rescan.
    std::vector<Color> reference(static_cast<std::size_t>(g.num_edges()), kUncolored);
    std::map<std::uint64_t, std::vector<int>> classes;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      classes[init.colors[static_cast<std::size_t>(e)]].push_back(e);
    }
    for (const auto& [cls, items] : classes) {
      (void)cls;
      for (const int i : items) {
        std::vector<Color> forbidden;
        view.for_each_neighbor(i, [&](int f) {
          if (reference[static_cast<std::size_t>(f)] != kUncolored) {
            forbidden.push_back(reference[static_cast<std::size_t>(f)]);
          }
        });
        std::sort(forbidden.begin(), forbidden.end());
        reference[static_cast<std::size_t>(i)] =
            instance.lists[static_cast<std::size_t>(i)].min_excluding(forbidden);
      }
    }
    EXPECT_EQ(batched, reference) << "seed " << seed;
    EXPECT_TRUE(is_proper_on_conflict(view, batched, serial_backend())) << "seed " << seed;
  }
}

// Churn sweep: random graphs x random churn batches.  Every repair must
// produce a proper list coloring of the mutated instance, keep every
// survivor's pre-churn color verbatim (the bounded-drift invariant), solve
// bit-identically serial vs sharded, and — on the forced-fallback leg —
// match the from-scratch solve of the same mutated instance exactly.
TEST(PropertyFuzz, ChurnRepairInvariantsAcrossRandomSweep) {
  struct Case {
    GraphFamily family;
    int size;
    int aux;
  };
  const Case cases[] = {
      {GraphFamily::kGnp, 30, 0},
      {GraphFamily::kRegular, 48, 4},
      {GraphFamily::kPowerLaw, 60, 10},
      {GraphFamily::kTree, 50, 0},
  };
  int swept = 0;
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Scenario scenario{c.family, c.size,
                              seed % 2 ? ListFlavor::kTwoDelta
                                       : ListFlavor::kRandomDegPlusOne,
                              PolicyKind::kPractical, seed, c.aux};
      const ListEdgeColoringInstance instance = build_instance(scenario);
      if (instance.graph.num_edges() < 8) continue;
      ++swept;
      const SolveResult base = Solver(Policy::practical()).solve(instance);
      const ChurnBatch batch = make_random_churn(instance.graph, 3, 3, seed * 31);
      const RecolorPlan plan = plan_recolor(instance, base.colors, batch.ops);
      ASSERT_EQ(static_cast<int>(plan.region.size()), 3) << scenario.name();

      const RecolorOutcome serial =
          repair_recolor(plan, Policy::practical(), ExecConfig{});
      EXPECT_FALSE(serial.fallback) << scenario.name();
      EXPECT_TRUE(is_valid_list_coloring(plan.mutated, serial.result.colors))
          << scenario.name();
      for (std::size_t e = 0; e < plan.carried.size(); ++e) {
        if (plan.carried[e] != kUncolored) {
          ASSERT_EQ(serial.result.colors[e], plan.carried[e])
              << scenario.name() << " edge " << e << " drifted";
        }
      }

      ExecConfig sharded;
      sharded.shards = 2;
      sharded.min_sharded_edges = 0;
      const RecolorOutcome dist = repair_recolor(plan, Policy::practical(), sharded);
      EXPECT_EQ(dist.result.colors, serial.result.colors) << scenario.name();
      EXPECT_EQ(dist.result.rounds, serial.result.rounds) << scenario.name();

      ExecConfig no_budget;
      no_budget.recolor_budget = 0;  // <= 0: always fall back (region non-empty)
      const RecolorOutcome fallback =
          repair_recolor(plan, Policy::practical(), no_budget);
      EXPECT_TRUE(fallback.fallback) << scenario.name();
      const SolveResult scratch =
          Solver(Policy::practical(), no_budget).solve(plan.mutated);
      EXPECT_EQ(fallback.result.colors, scratch.colors) << scenario.name();
      EXPECT_EQ(fallback.result.rounds, scratch.rounds) << scenario.name();
    }
  }
  EXPECT_GE(swept, 10);  // the sweep must not silently degenerate
}

// The same random family x size x seed sweep submitted through the
// SolveService front door: every async, priority-queued, cancellable-path
// outcome must be bit-identical to the direct Solver::solve of the same
// scenario (and hash-stable under concurrent workers).
TEST(PropertyFuzz, ServiceSubmissionMatchesDirectSolveAcrossRandomSweep) {
  struct Case {
    GraphFamily family;
    int size;
    int aux;
  };
  const Case cases[] = {
      {GraphFamily::kGnp, 30, 0},     {GraphFamily::kRegular, 48, 4},
      {GraphFamily::kPowerLaw, 60, 10}, {GraphFamily::kTree, 50, 0},
      {GraphFamily::kTorus, 5, 0},
  };
  const ListFlavor flavors[] = {ListFlavor::kTwoDelta, ListFlavor::kRandomDegPlusOne};

  SolveService service(ExecConfig{.workers = 4});
  std::vector<Scenario> scenarios;
  std::vector<SolveTicket> tickets;
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Scenario scenario{c.family, c.size, flavors[seed % 2],
                              PolicyKind::kPractical, seed, c.aux};
      scenarios.push_back(scenario);
      tickets.push_back(service.submit(
          SolveRequest::from_scenario(scenario).priority(static_cast<int>(seed))));
    }
  }

  int swept = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const SolveOutcome& out = tickets[i].wait();
    ASSERT_EQ(out.status, SolveStatus::kOk) << scenarios[i].name() << ": " << out.error;
    const ListEdgeColoringInstance instance = build_instance(scenarios[i]);
    if (instance.graph.num_edges() == 0) continue;
    ++swept;
    const SolveResult direct = Solver(Policy::practical()).solve(instance);
    EXPECT_EQ(out.colors_hash, hash_coloring(direct.colors)) << scenarios[i].name();
    EXPECT_EQ(out.result.colors, direct.colors) << scenarios[i].name();
    EXPECT_EQ(out.result.rounds, direct.rounds) << scenarios[i].name();
    EXPECT_EQ(out.result.raw_rounds, direct.raw_rounds) << scenarios[i].name();
    EXPECT_TRUE(out.valid) << scenarios[i].name();
    EXPECT_TRUE(is_valid_list_coloring(instance, out.result.colors)) << scenarios[i].name();
  }
  EXPECT_GE(swept, 12);  // the sweep must not silently degenerate
}

// The greedy batch quantum is a pure batching knob: any quantum (batching
// disabled included) leaves the full solve bit-identical to the default.
TEST(PropertyFuzz, GreedyBatchQuantumBitIdenticalAcrossSweep) {
  const int quanta[] = {1, 32, 512};
  int swept = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Scenario scenario{GraphFamily::kGnp, 40, ListFlavor::kTwoDelta,
                            PolicyKind::kPractical, seed, 0};
    const ListEdgeColoringInstance instance = build_instance(scenario);
    if (instance.graph.num_edges() == 0) continue;
    ++swept;
    const SolveResult reference = Solver(Policy::practical()).solve(instance);
    for (const int quantum : quanta) {
      ExecConfig config;
      config.greedy_batch_quantum = quantum;
      const SolveResult res = Solver(Policy::practical(), config).solve(instance);
      EXPECT_EQ(res.colors, reference.colors) << scenario.name() << " quantum=" << quantum;
      EXPECT_EQ(res.rounds, reference.rounds) << scenario.name() << " quantum=" << quantum;
      EXPECT_EQ(res.round_report, reference.round_report)
          << scenario.name() << " quantum=" << quantum;
    }
  }
  EXPECT_GE(swept, 3);
}

}  // namespace
}  // namespace qplec

