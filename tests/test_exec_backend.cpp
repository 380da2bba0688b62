// The backend-routed base-case pipeline's contract: every primitive that
// runs through an ExecBackend — Linial reduction, the defective split, the
// greedy conflict solve — produces results bit-identical to the serial
// backend for any shard count, and the leased-shared-pool execution model
// (one ThreadPool serving many sharded solves, concurrently) changes
// nothing about any solver output.  The Solver on the sharded backend
// produces the same colorings, round counts and ledger totals as the serial
// path — bit for bit.
#include "src/dist/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/defective.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/linial.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/runtime/thread_pool.hpp"
#include "tests/support/smoke_manifest.hpp"

namespace qplec {
namespace {

using test_support::smoke_scenarios;

const int kShardCounts[] = {1, 2, 7};

TEST(ExecBackend, ForNodesVisitsEveryNodeOnceInAscendingLaneOrder) {
  const Graph g = make_power_law(60, 2.5, 12.0, 7);
  ThreadPool pool(4);
  for (const int shards : kShardCounts) {
    const ExecBackend backend(g, shards, pool);
    std::vector<int> visits(static_cast<std::size_t>(g.num_nodes()), 0);
    std::vector<int> lane_of(static_cast<std::size_t>(g.num_nodes()), -1);
    backend.for_nodes(g, [&](int lane, NodeId v) {
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, backend.lanes());
      ++visits[static_cast<std::size_t>(v)];
      lane_of[static_cast<std::size_t>(v)] = lane;
    });
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(visits[static_cast<std::size_t>(v)], 1) << "node " << v;
      if (v > 0) {
        // Lanes cover contiguous ascending node ranges.
        EXPECT_LE(lane_of[static_cast<std::size_t>(v) - 1],
                  lane_of[static_cast<std::size_t>(v)]);
      }
    }
  }
}

TEST(ExecBackend, SerialForNodesCoversAllNodes) {
  const Graph g = make_cycle(9);
  int count = 0;
  serial_backend().for_nodes(g, [&](int lane, NodeId) {
    EXPECT_EQ(lane, 0);
    ++count;
  });
  EXPECT_EQ(count, g.num_nodes());
}

TEST(ExecBackend, LaneScratchSlotsAreIndependent) {
  LaneScratch<std::vector<int>> scratch(3);
  EXPECT_EQ(scratch.num_lanes(), 3);
  scratch.lane(0).push_back(1);
  scratch.lane(2).push_back(7);
  EXPECT_EQ(scratch.lane(0).size(), 1u);
  EXPECT_TRUE(scratch.lane(1).empty());
  EXPECT_EQ(scratch.lane(2).front(), 7);
}

TEST(ExecBackend, MaxConflictDegreeMatchesSerialScan) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const int expected = view.max_degree();
    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      EXPECT_EQ(max_conflict_degree(view, &backend), expected)
          << scenario.name() << " shards=" << shards;
    }
    EXPECT_EQ(max_conflict_degree(view, nullptr), expected);
  }
}

// Linial reduction through the sharded backend: identical colors, palette,
// round counts and ledger charges as the serial path, on every smoke
// scenario and shard count.
TEST(ExecBackend, LinialReduceMatchesSerialAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    if (g.num_edges() == 0) continue;
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);

    RoundLedger serial_ledger;
    const LinialResult serial = linial_reduce(view, init.colors, init.palette,
                                              g.max_edge_degree(), serial_ledger);

    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      RoundLedger ledger;
      const LinialResult res = linial_reduce(view, init.colors, init.palette,
                                             g.max_edge_degree(), ledger, &backend);
      EXPECT_EQ(res.colors, serial.colors) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.palette, serial.palette) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.rounds, serial.rounds) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(ledger.total(), serial_ledger.total())
          << scenario.name() << " shards=" << shards;
    }
  }
}

// The defective split through the sharded backend: identical class
// assignment, class count and rounds on every smoke scenario.
TEST(ExecBackend, DefectiveColoringMatchesSerialAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    if (g.num_edges() == 0) continue;
    const EdgeSubset all = EdgeSubset::all(g);
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    const int beta = 2;

    RoundLedger serial_ledger;
    const DefectiveColoring serial =
        defective_edge_coloring(g, all, beta, init.colors, init.palette, serial_ledger);

    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      RoundLedger ledger;
      const DefectiveColoring res = defective_edge_coloring(
          g, all, beta, init.colors, init.palette, ledger, &backend);
      EXPECT_EQ(res.cls, serial.cls) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.num_classes, serial.num_classes)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.rounds, serial.rounds) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(ledger.total(), serial_ledger.total())
          << scenario.name() << " shards=" << shards;
    }
  }
}

// The full base-case conflict solve (Linial + greedy class sweep) through
// the sharded backend: identical output colorings.
TEST(ExecBackend, ConflictSolveMatchesSerialAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const Graph& g = instance.graph;
    if (g.num_edges() == 0) continue;
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    const int d = g.max_edge_degree();

    std::vector<Color> serial_out(static_cast<std::size_t>(g.num_edges()), kUncolored);
    RoundLedger serial_ledger;
    const ConflictSolveResult serial = solve_conflict_list(
        view, instance.lists, init.colors, init.palette, d, serial_out, serial_ledger);

    ThreadPool pool(3);
    for (const int shards : kShardCounts) {
      const ExecBackend backend(g, shards, pool);
      std::vector<Color> out(static_cast<std::size_t>(g.num_edges()), kUncolored);
      RoundLedger ledger;
      const ConflictSolveResult res =
          solve_conflict_list(view, instance.lists, init.colors, init.palette, d, out,
                              ledger, &backend);
      EXPECT_EQ(out, serial_out) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.linial_rounds, serial.linial_rounds)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.sweep_palette, serial.sweep_palette)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(ledger.total(), serial_ledger.total())
          << scenario.name() << " shards=" << shards;
    }
  }
}

// A solve on a leased shared pool is bit-identical to a solve that owns its
// pool, and to the serial path.
TEST(SharedPool, LeasedExecutionBitIdenticalToOwnedAndSerial) {
  ThreadPool pool(3);
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const SolveResult serial = Solver(make_policy(scenario.policy)).solve(instance);

    ExecConfig owned;
    owned.shards = 4;
    owned.min_sharded_edges = 0;
    const SolveResult with_owned =
        Solver(make_policy(scenario.policy), owned).solve(instance);

    ExecConfig leased = owned;
    leased.shared_pool = &pool;
    const SolveResult with_lease =
        Solver(make_policy(scenario.policy), leased).solve(instance);

    EXPECT_EQ(with_lease.colors, serial.colors) << scenario.name();
    EXPECT_EQ(with_lease.colors, with_owned.colors) << scenario.name();
    EXPECT_EQ(with_lease.rounds, serial.rounds) << scenario.name();
    EXPECT_EQ(with_lease.raw_rounds, serial.raw_rounds) << scenario.name();
    EXPECT_EQ(with_lease.round_report, serial.round_report) << scenario.name();
  }
}

// Two sharded solves holding the same lease concurrently (the BatchSolver
// situation: several batch workers hit large instances at once) must not
// interfere — same results as solo serial solves.  Run under TSan in CI.
TEST(SharedPool, ConcurrentLeasesStayIndependentAndDeterministic) {
  const auto scenarios = smoke_scenarios();
  std::vector<ListEdgeColoringInstance> instances;
  std::vector<SolveResult> serial;
  for (const Scenario& s : scenarios) {
    instances.push_back(build_instance(s));
    serial.push_back(Solver(make_policy(s.policy)).solve(instances.back()));
  }

  ThreadPool pool(3);
  std::vector<SolveResult> results(scenarios.size());
  std::vector<std::thread> threads;
  threads.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    threads.emplace_back([&, i] {
      ExecConfig exec;
      exec.shards = 3;
      exec.min_sharded_edges = 0;
      exec.shared_pool = &pool;
      results[i] = Solver(make_policy(scenarios[i].policy), exec).solve(instances[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(results[i].colors, serial[i].colors) << scenarios[i].name();
    EXPECT_EQ(results[i].rounds, serial[i].rounds) << scenarios[i].name();
    EXPECT_EQ(results[i].round_report, serial[i].round_report) << scenarios[i].name();
  }
}

// The batch runtime's shared pool (created internally when exec.shards > 1)
// and a caller-provided lease both reproduce the serial batch bit for bit.
TEST(SharedPool, BatchSolverLeaseBitIdenticalToSerialBatch) {
  const auto manifest = smoke_scenarios();
  ExecConfig serial_config;
  serial_config.workers = 2;
  const BatchReport serial = BatchSolver(serial_config, /*keep_colors=*/true).run(manifest);

  ExecConfig internal_lease = serial_config;
  internal_lease.shards = 4;
  internal_lease.min_sharded_edges = 0;
  const BatchReport internal =
      BatchSolver(internal_lease, /*keep_colors=*/true).run(manifest);

  ThreadPool pool(4);
  ExecConfig caller_lease = internal_lease;
  caller_lease.shared_pool = &pool;
  const BatchReport caller = BatchSolver(caller_lease, /*keep_colors=*/true).run(manifest);

  ASSERT_EQ(serial.results.size(), internal.results.size());
  ASSERT_EQ(serial.results.size(), caller.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(internal.results[i].colors, serial.results[i].colors);
    EXPECT_EQ(caller.results[i].colors, serial.results[i].colors);
    EXPECT_EQ(internal.results[i].rounds, serial.results[i].rounds);
    EXPECT_EQ(caller.results[i].rounds, serial.results[i].rounds);
    EXPECT_EQ(internal.results[i].shards, 4);
    EXPECT_EQ(caller.results[i].shards, 4);
    EXPECT_TRUE(internal.results[i].valid);
    EXPECT_TRUE(caller.results[i].valid);
  }
}

TEST(ExecBackend, ShardedVisitsEveryMemberExactlyOnce) {
  const Graph g = make_random_regular(50, 6, 9);
  ThreadPool pool(4);
  for (const int shards : {1, 2, 7}) {
    const ExecBackend backend(g, shards, pool);
    EdgeSubset odd(g.num_edges());
    for (EdgeId e = 1; e < g.num_edges(); e += 2) odd.insert(e);
    std::vector<int> visits(static_cast<std::size_t>(g.num_edges()), 0);
    backend.for_members(odd, [&](int lane, EdgeId e) {
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, backend.lanes());
      ++visits[static_cast<std::size_t>(e)];
    });
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(visits[static_cast<std::size_t>(e)], odd.contains(e) ? 1 : 0);
    }
    std::vector<int> index_visits(31, 0);
    backend.for_indices(31, [&](int, int i) { ++index_visits[static_cast<std::size_t>(i)]; });
    for (const int count : index_visits) EXPECT_EQ(count, 1);
  }
}

TEST(ExecBackend, ShardedForMembersSparseSubsetLaneOwnership) {
  const Graph g = make_power_law(400, 2.5, 20.0, 5);
  ThreadPool pool(4);
  for (const int shards : kShardCounts) {
    const ExecBackend backend(g, shards, pool);
    const auto lanes = static_cast<std::size_t>(backend.lanes());
    std::vector<std::pair<EdgeId, EdgeId>> owned(lanes);
    backend.for_edge_ranges(g.num_edges(), [&](int lane, EdgeId begin, EdgeId end) {
      owned[static_cast<std::size_t>(lane)] = {begin, end};
    });
    // Members sit where a word-at-a-time scan can slip: every lane's first
    // and last edge and every multiple of 64.
    EdgeSubset sparse(g.num_edges());
    for (const auto& [begin, end] : owned) {
      if (begin == end) continue;
      sparse.insert(begin);
      sparse.insert(end - 1);
    }
    for (EdgeId e = 0; e < g.num_edges(); e += 64) sparse.insert(e);

    std::vector<std::vector<EdgeId>> visited(lanes);
    backend.for_members(sparse, [&](int lane, EdgeId e) {
      visited[static_cast<std::size_t>(lane)].push_back(e);
    });
    std::vector<EdgeId> all;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto& seen = visited[lane];
      EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end())) << "lane " << lane;
      for (const EdgeId e : seen) {
        EXPECT_GE(e, owned[lane].first) << "lane " << lane << " visited foreign edge " << e;
        EXPECT_LT(e, owned[lane].second) << "lane " << lane << " visited foreign edge " << e;
      }
      all.insert(all.end(), seen.begin(), seen.end());
    }
    EXPECT_EQ(all, sparse.to_vector()) << shards << " shards";
  }
}

// The acceptance gate: every smoke-manifest scenario, solved with 1, 2 and 7
// shards, yields identical colorings, round counts and ledger totals.
TEST(ShardedSolver, SmokeManifestBitIdenticalAcrossShardCounts) {
  for (const Scenario& scenario : smoke_scenarios()) {
    const ListEdgeColoringInstance instance = build_instance(scenario);
    const SolveResult serial = Solver(make_policy(scenario.policy)).solve(instance);
    for (const int shards : {1, 2, 7}) {
      ExecConfig exec;
      exec.shards = shards;
      exec.min_sharded_edges = 0;  // force the sharded path on tiny graphs
      const SolveResult res = Solver(make_policy(scenario.policy), exec).solve(instance);
      EXPECT_EQ(res.colors, serial.colors) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.rounds, serial.rounds) << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.raw_rounds, serial.raw_rounds)
          << scenario.name() << " shards=" << shards;
      EXPECT_EQ(res.initial_rounds, serial.initial_rounds)
          << scenario.name() << " shards=" << shards;
      // The full ledger tree — per-scope totals and phase structure — must
      // agree, not just the grand total.
      EXPECT_EQ(res.round_report, serial.round_report)
          << scenario.name() << " shards=" << shards;
    }
  }
}

TEST(ShardedSolver, BatchRoutingPreservesResults) {
  const auto manifest = smoke_scenarios();
  ExecConfig serial_config;
  serial_config.workers = 2;
  const BatchReport serial = BatchSolver(serial_config, /*keep_colors=*/true).run(manifest);

  ExecConfig sharded_config = serial_config;
  sharded_config.shards = 4;
  sharded_config.min_sharded_edges = 0;
  const BatchReport sharded =
      BatchSolver(sharded_config, /*keep_colors=*/true).run(manifest);

  ASSERT_EQ(serial.results.size(), sharded.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].colors, sharded.results[i].colors);
    EXPECT_EQ(serial.results[i].rounds, sharded.results[i].rounds);
    EXPECT_EQ(serial.results[i].colors_hash, sharded.results[i].colors_hash);
    EXPECT_EQ(serial.results[i].shards, 1);
    EXPECT_EQ(sharded.results[i].shards, 4);
    EXPECT_TRUE(sharded.results[i].valid);
  }
}

}  // namespace
}  // namespace qplec
