// Partitioner invariants: shards tile the id spaces contiguously, shard
// counts clamp to the id universe, and the degree balancing stays within
// sane bounds.
#include "src/dist/partition.hpp"

#include <gtest/gtest.h>

#include "src/graph/generators.hpp"

namespace qplec {
namespace {

void expect_node_partition_invariants(const Graph& g, int shards) {
  const NodePartition part(g, shards);
  ASSERT_GE(part.num_shards(), 1);
  ASSERT_LE(part.num_shards(), std::max(1, std::min(shards, g.num_nodes())));

  // Shards tile [0, n) contiguously.
  NodeId expect_begin = 0;
  for (int s = 0; s < part.num_shards(); ++s) {
    EXPECT_EQ(part.shard(s).node_begin, expect_begin);
    EXPECT_LE(part.shard(s).node_begin, part.shard(s).node_end);
    expect_begin = part.shard(s).node_end;
  }
  EXPECT_EQ(expect_begin, g.num_nodes());
}

TEST(NodePartition, InvariantsAcrossFamiliesAndShardCounts) {
  const Graph graphs[] = {
      make_cycle(31),
      make_complete(12),
      make_random_regular(40, 8, 42),
      make_random_tree(70, 42),
      make_power_law(80, 2.5, 12.0, 7),
      make_star(17),
  };
  for (const Graph& g : graphs) {
    for (const int shards : {1, 2, 3, 7, 64, 1000}) {
      expect_node_partition_invariants(g, shards);
    }
  }
}

TEST(NodePartition, SingleShardHasNoBoundary) {
  const Graph g = make_random_regular(60, 6, 1);
  const NodePartition part(g, 1);
  ASSERT_EQ(part.num_shards(), 1);
  // One shard owns every node, so no edge can cross shards.
  EXPECT_EQ(part.shard(0).node_begin, 0);
  EXPECT_EQ(part.shard(0).node_end, g.num_nodes());
}

TEST(NodePartition, EmptyGraph) {
  const NodePartition part(Graph(), 4);
  EXPECT_EQ(part.num_shards(), 1);
}

TEST(NodePartition, BalancesAdjacencyOnSkewedDegrees) {
  // A power-law graph's hubs sit at low node ids; a count-balanced split
  // would dump almost all adjacency in shard 0.
  const Graph g = make_power_law(400, 2.5, 60.0, 3);
  const NodePartition part(g, 4);
  ASSERT_EQ(part.num_shards(), 4);
  std::int64_t total = 0, largest = 0;
  for (int s = 0; s < 4; ++s) {
    total += part.shard(s).adjacency;
    largest = std::max(largest, part.shard(s).adjacency);
  }
  // No shard should carry more than half of the total round work.
  EXPECT_LE(largest, total / 2 + 1);
}

TEST(EdgePartition, TilesAndBalances) {
  const Graph g = make_power_law(300, 2.5, 40.0, 5);
  std::int64_t max_weight = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    max_weight = std::max<std::int64_t>(max_weight, 1 + g.edge_degree(e));
  }
  for (const int shards : {1, 2, 7, 32}) {
    const EdgePartition part(g, shards);
    EdgeId expect_begin = 0;
    std::int64_t total = 0, largest = 0;
    for (int s = 0; s < part.num_shards(); ++s) {
      EXPECT_EQ(part.shard(s).edge_begin, expect_begin);
      expect_begin = part.shard(s).edge_end;
      total += part.shard(s).weight;
      largest = std::max(largest, part.shard(s).weight);
    }
    EXPECT_EQ(expect_begin, g.num_edges());
    // Greedy boundaries overshoot the ideal share by at most one element.
    EXPECT_LE(largest, total / part.num_shards() + max_weight);
  }
}

}  // namespace
}  // namespace qplec
