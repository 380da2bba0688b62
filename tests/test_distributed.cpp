// The engine cross-check (docs/ARCHITECTURE.md, "The two execution
// backends", on node programs): the literal message-passing
// implementation of greedy-by-class must agree color-for-color with the
// conflict-view implementation, and its engine round count must match the
// framework's schedule.
#include "src/coloring/distributed.hpp"

#include <gtest/gtest.h>

#include "src/coloring/conflict.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/validate.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"

namespace qplec {
namespace {

struct CrossCase {
  // 64-bit, so the struct has no padding: the test names print its bytes.
  std::int64_t n;
  double p;
  std::uint64_t seed;
};

class DistributedCrossCheck : public ::testing::TestWithParam<CrossCase> {};

TEST_P(DistributedCrossCheck, MatchesConflictViewImplementationExactly) {
  const auto [n, prob, seed] = GetParam();
  const Graph g = make_gnp(static_cast<int>(n), prob, seed)
                      .with_scrambled_ids(static_cast<std::uint64_t>(n * n), seed + 1);
  if (g.num_edges() == 0) return;
  const auto inst = make_two_delta_instance(g);

  // Path A: genuine message passing.
  const auto distributed = run_distributed_greedy_by_class(inst, g.max_local_id());

  // Path B: conflict-view framework with the same public degree bound.
  const int degree_bound = std::max(0, 2 * g.max_degree() - 2);
  const LineGraphConflict view(g, EdgeSubset::all(g));
  const InitialColoring init = initial_edge_coloring_from_ids(g);
  std::vector<Color> framework(static_cast<std::size_t>(g.num_edges()), kUncolored);
  RoundLedger ledger;
  const auto sub = solve_conflict_list(view, inst.lists, init.colors, init.palette,
                                       degree_bound, framework, ledger);

  // Color-for-color agreement.
  EXPECT_EQ(distributed.colors, framework);

  // Phase lengths agree: same Linial schedule, same sweep palette.
  EXPECT_EQ(distributed.linial_rounds, sub.linial_rounds);
  EXPECT_EQ(distributed.sweep_palette, sub.sweep_palette);

  // Engine rounds: 1 id round + L Linial rounds + m* sweep rounds.
  EXPECT_EQ(distributed.stats.rounds,
            1 + distributed.linial_rounds +
                static_cast<std::int64_t>(distributed.sweep_palette));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedCrossCheck,
                         ::testing::Values(CrossCase{12, 0.3, 1}, CrossCase{20, 0.2, 2},
                                           CrossCase{24, 0.15, 3}, CrossCase{16, 0.5, 4},
                                           CrossCase{30, 0.1, 5}, CrossCase{8, 0.9, 6}));

TEST(Distributed, SolvesListInstances) {
  const Graph g = make_random_regular(20, 4, 7).with_scrambled_ids(400, 8);
  const auto inst = make_random_list_instance(g, 2 * g.max_edge_degree() + 2, 9);
  const auto res = run_distributed_greedy_by_class(inst, g.max_local_id());
  EXPECT_TRUE(is_valid_list_coloring(inst, res.colors));
}

TEST(Distributed, MessageSizesAreDegreeBounded) {
  const Graph g = make_complete(10).with_scrambled_ids(100, 3);
  const auto inst = make_two_delta_instance(g);
  const auto res = run_distributed_greedy_by_class(inst, g.max_local_id());
  // Broadcast payloads are 2 words per incident edge.
  EXPECT_LE(res.stats.max_message_words, 2 * g.max_degree());
  EXPECT_GT(res.stats.messages, 0);
}

TEST(Distributed, HandlesPathAndCycle) {
  for (const bool cycle : {false, true}) {
    const Graph g = (cycle ? make_cycle(17) : make_path(17)).with_scrambled_ids(289, 5);
    const auto inst = make_two_delta_instance(g);
    const auto res = run_distributed_greedy_by_class(inst, g.max_local_id());
    EXPECT_TRUE(is_valid_list_coloring(inst, res.colors));
  }
}

TEST(Distributed, IsolatedNodesFinishImmediately) {
  GraphBuilder b(5);
  b.add_edge(0, 1);  // nodes 2,3,4 isolated
  const auto inst = make_two_delta_instance(b.build());
  const auto res = run_distributed_greedy_by_class(inst, 5);
  EXPECT_TRUE(is_valid_list_coloring(inst, res.colors));
}

TEST(Distributed, RejectsBadIdBound) {
  const Graph g = make_cycle(5).with_scrambled_ids(100, 2);
  const auto inst = make_two_delta_instance(g);
  EXPECT_THROW(run_distributed_greedy_by_class(inst, 3), std::invalid_argument);
}

}  // namespace
}  // namespace qplec
