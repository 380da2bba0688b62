#include "src/coloring/defective.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/coloring/initial.hpp"
#include "src/coloring/linial.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/rng.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/thread_pool.hpp"
#include "tests/support/defective_oracle.hpp"

namespace qplec {
namespace {

struct DefCase {
  const char* name;
  Graph graph;
  int beta;
};

class DefectiveTest : public ::testing::TestWithParam<int> {};

/// Runs the defective coloring and checks every guarantee of Section 4.1.
void check_defective(const Graph& g, const EdgeSubset& H, int beta) {
  if (g.num_edges() == 0) return;
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const DefectiveColoring dc =
      defective_edge_coloring(g, H, beta, init.colors, init.palette, ledger);

  // Palette size exactly 3 * 4beta(4beta+1)/2 = O(beta^2).
  EXPECT_EQ(dc.num_classes, 3 * (4 * beta) * (4 * beta + 1) / 2);

  H.for_each([&](EdgeId e) {
    const int cls = dc.cls[static_cast<std::size_t>(e)];
    ASSERT_GE(cls, 0);
    ASSERT_LT(cls, dc.num_classes);
    // The paper's defect bound: defect(e) <= deg_H(e) / (2 beta).
    const int defect = edge_defect(g, H, dc.cls, e);
    EXPECT_LE(2 * beta * defect, H.induced_edge_degree(g, e))
        << "edge " << e << " beta " << beta;
  });
  // Edges outside H are untouched.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!H.contains(e)) {
      EXPECT_EQ(dc.cls[static_cast<std::size_t>(e)], -1);
    }
  }
  // O(log* X) rounds: a small constant for these sizes.
  EXPECT_LE(ledger.total(), 80);
  EXPECT_EQ(ledger.total(), dc.rounds);
}

TEST_P(DefectiveTest, GuaranteesOnCompleteGraph) {
  const int beta = GetParam();
  const Graph g = make_complete(14).with_scrambled_ids(14 * 14, 3);
  check_defective(g, EdgeSubset::all(g), beta);
}

TEST_P(DefectiveTest, GuaranteesOnRegularGraph) {
  const int beta = GetParam();
  const Graph g = make_random_regular(40, 9, 5).with_scrambled_ids(1600, 4);
  check_defective(g, EdgeSubset::all(g), beta);
}

TEST_P(DefectiveTest, GuaranteesOnIrregularGraph) {
  const int beta = GetParam();
  const Graph g = make_power_law(80, 2.5, 20.0, 6).with_scrambled_ids(6400, 5);
  check_defective(g, EdgeSubset::all(g), beta);
}

TEST_P(DefectiveTest, GuaranteesOnSubset) {
  const int beta = GetParam();
  const Graph g = make_gnp(50, 0.2, 7).with_scrambled_ids(2500, 6);
  EdgeSubset H(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); e += 2) H.insert(e);
  check_defective(g, H, beta);
}

INSTANTIATE_TEST_SUITE_P(BetaSweep, DefectiveTest, ::testing::Values(1, 2, 3, 5, 8, 50));

TEST(Defective, LargeBetaGivesProperColoring) {
  // When 4*beta >= deg everything lands in one group per node: defect 0,
  // i.e. a proper edge coloring.
  const Graph g = make_complete(10).with_scrambled_ids(100, 9);
  const EdgeSubset all = EdgeSubset::all(g);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const DefectiveColoring dc =
      defective_edge_coloring(g, all, 50, init.colors, init.palette, ledger);
  EXPECT_EQ(max_defect(g, all, dc.cls), 0);
}

TEST(Defective, StarGraphDefectZeroWithModestBeta) {
  // Star edges all share the hub; within the hub groups are size 4beta and
  // numbering makes all pairs distinct -> defect bound ceil(n/4b)-1.
  const Graph g = make_star(16).with_scrambled_ids(289, 2);
  const EdgeSubset all = EdgeSubset::all(g);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  const DefectiveColoring dc =
      defective_edge_coloring(g, all, 4, init.colors, init.palette, ledger);
  EXPECT_EQ(max_defect(g, all, dc.cls), 0);  // 16 edges fit one group of 16
}

TEST(Defective, PathCycleConflictStructureHolds) {
  // Regression: the "same temp color in same group" graph must be degree<=2
  // (asserted internally); exercise a dense graph to stress it.
  const Graph g = make_complete(20).with_scrambled_ids(400, 8);
  const EdgeSubset all = EdgeSubset::all(g);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  EXPECT_NO_THROW(
      defective_edge_coloring(g, all, 2, init.colors, init.palette, ledger));
}

TEST(Defective, RejectsBadBeta) {
  const Graph g = make_cycle(4);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger ledger;
  EXPECT_THROW(defective_edge_coloring(g, EdgeSubset::all(g), 0, init.colors,
                                       init.palette, ledger),
               std::invalid_argument);
}

TEST(Defective, DeterministicAcrossRuns) {
  const Graph g = make_gnp(30, 0.3, 12).with_scrambled_ids(900, 13);
  const EdgeSubset all = EdgeSubset::all(g);
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  RoundLedger l1, l2;
  const auto a = defective_edge_coloring(g, all, 3, init.colors, init.palette, l1);
  const auto b = defective_edge_coloring(g, all, 3, init.colors, init.palette, l2);
  EXPECT_EQ(a.cls, b.cls);
  EXPECT_EQ(l1.total(), l2.total());
}

/// Runs the split and its sort-scan, full-edge-set oracle on the same input
/// under a fresh validation gate of `tier` each, and requires the same
/// classes, class count, rounds, ledger total and gate draws.
void expect_matches_oracle(const std::string& where, const Graph& g, const EdgeSubset& H, int beta,
                           const ExecBackend* exec, ValidationTier tier) {
  SCOPED_TRACE(where + " beta=" + std::to_string(beta));
  SCOPED_TRACE(tier == ValidationTier::kSampled ? "sampled" : "every_round");
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  const auto run = [&](auto split, RoundLedger& ledger, ValidationGate& gate) {
    return split(g, H, beta, init.colors, init.palette, ledger, exec, &gate);
  };
  RoundLedger ledger, oracle_ledger;
  ValidationGate gate(tier), oracle_gate(tier);
  const auto got = run(defective_edge_coloring, ledger, gate);
  const auto want = run(test_support::oracle_defective_edge_coloring, oracle_ledger, oracle_gate);
  EXPECT_EQ(got.cls, want.cls);
  EXPECT_EQ(got.num_classes, want.num_classes);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(ledger.total(), oracle_ledger.total());
  EXPECT_EQ(ledger.raw_total(), oracle_ledger.raw_total());
  // Same number of draws: the next sampling period fires at the same spot.
  for (int i = 0; i < ValidationGate::kSamplePeriod; ++i) {
    ASSERT_EQ(gate.due(), oracle_gate.due()) << "gate draw " << i;
  }
}

TEST(Defective, MatchesSortScanOracleAcrossGraphsSubsetsBetasAndShards) {
  const std::pair<std::string, Graph> graphs[] = {
      {"complete", make_complete(14).with_scrambled_ids(196, 3)},
      {"regular", make_random_regular(60, 9, 5).with_scrambled_ids(3600, 4)},
      {"gnp", make_gnp(50, 0.2, 7).with_scrambled_ids(2500, 6)},
      {"power-law", make_power_law(120, 2.5, 30.0, 6).with_scrambled_ids(14400, 5)},
      {"star", make_star(40).with_scrambled_ids(1681, 2)},
  };
  const ValidationTier tiers[] = {ValidationTier::kEveryRound, ValidationTier::kSampled};
  ThreadPool pool(2);
  Rng rng(26);
  for (const auto& [name, g] : graphs) {
    std::vector<std::pair<std::string, EdgeSubset>> subsets;
    subsets.emplace_back("full", EdgeSubset::all(g));
    for (const double keep : {0.3, 0.7}) {
      EdgeSubset H(g.num_edges());
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (rng.next_bool(keep)) H.insert(e);
      }
      subsets.emplace_back("subset " + std::to_string(keep), std::move(H));
    }
    std::vector<std::unique_ptr<ExecBackend>> sharded;
    for (const int shards : {1, 2, 7}) {
      sharded.push_back(std::make_unique<ExecBackend>(g, shards, pool));
    }
    std::vector<const ExecBackend*> backends{nullptr};
    for (const auto& b : sharded) backends.push_back(b.get());
    for (const auto& [hname, H] : subsets) {
      for (const int beta : {1, 2, 3, 5, 8, 50}) {
        for (const ExecBackend* exec : backends) {
          const std::string where =
              name + " " + hname + " lanes=" + std::to_string(exec ? exec->lanes() : 0);
          for (const ValidationTier tier : tiers) {
            expect_matches_oracle(where, g, H, beta, exec, tier);
          }
        }
      }
    }
  }
}

TEST(Defective, SplitWithoutConflictsChargesTheFullRounds) {
  // A star's leaves number their one edge 1, so the hub's edges hold the
  // distinct temporary colors {1, k}: no pair conflicts, the path/cycle
  // system is empty, every 3-color is 0 — and the rounds are still those of
  // the 3-coloring on the full edge set.
  const Graph g = make_star(30).with_scrambled_ids(961, 4);
  const EdgeSubset all = EdgeSubset::all(g);
  for (const int beta : {1, 2, 8}) {
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    RoundLedger ledger;
    const DefectiveColoring dc =
        defective_edge_coloring(g, all, beta, init.colors, init.palette, ledger);
    all.for_each([&](EdgeId e) { EXPECT_EQ(dc.cls[static_cast<std::size_t>(e)] % 3, 0); });
    EXPECT_GT(dc.rounds, 1);
    expect_matches_oracle("star", g, all, beta, nullptr, ValidationTier::kEveryRound);
  }
}

}  // namespace
}  // namespace qplec
