#include "src/dist/partition.hpp"

#include <algorithm>

namespace qplec {

namespace {

/// Greedy balanced split of [0, n) into at most `shards` contiguous ranges:
/// range s ends at the first index whose cumulative weight reaches the ideal
/// prefix total * (s+1) / shards.  Every range is non-empty when n >= shards.
/// Returns the boundaries b_0 = 0 < b_1 < ... < b_k = n.
std::vector<int> balanced_boundaries(const std::vector<std::int64_t>& weight, int shards) {
  const int n = static_cast<int>(weight.size());
  shards = std::clamp(shards, 1, std::max(1, n));
  std::int64_t total = 0;
  for (const std::int64_t w : weight) total += w;

  // Boundary s+1 is the smallest end with cum(end) >= total*(s+1)/shards,
  // clamped so every shard keeps at least one element.
  std::vector<int> bounds{0};
  std::int64_t cum = 0;
  int begin = 0;
  for (int s = 0; s < shards - 1; ++s) {
    const std::int64_t target = total * (s + 1) / shards;
    const int max_end = n - (shards - 1 - s);
    int end = begin + 1;
    cum += weight[static_cast<std::size_t>(begin)];
    while (end < max_end && cum < target) {
      cum += weight[static_cast<std::size_t>(end)];
      ++end;
    }
    bounds.push_back(end);
    begin = end;
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace

NodePartition::NodePartition(const Graph& g, int shards) {
  const int n = g.num_nodes();
  std::vector<std::int64_t> weight(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    // Weight 1 + deg(v): an isolated node still costs one program step.
    weight[static_cast<std::size_t>(v)] = 1 + g.degree(v);
  }
  const std::vector<int> bounds = balanced_boundaries(weight, shards);
  shards_.reserve(bounds.size() - 1);
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    NodeShard s;
    s.node_begin = static_cast<NodeId>(bounds[b]);
    s.node_end = static_cast<NodeId>(bounds[b + 1]);
    for (NodeId v = s.node_begin; v < s.node_end; ++v) s.adjacency += g.degree(v);
    shards_.push_back(s);
  }
}

EdgePartition::EdgePartition(const Graph& g, int shards) {
  const int m = g.num_edges();
  std::vector<std::int64_t> weight(static_cast<std::size_t>(m), 0);
  for (EdgeId e = 0; e < m; ++e) {
    weight[static_cast<std::size_t>(e)] = 1 + g.edge_degree(e);
  }
  const std::vector<int> bounds = balanced_boundaries(weight, shards);
  shards_.reserve(bounds.size() - 1);
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    EdgeShard s;
    s.edge_begin = static_cast<EdgeId>(bounds[b]);
    s.edge_end = static_cast<EdgeId>(bounds[b + 1]);
    for (EdgeId e = s.edge_begin; e < s.edge_end; ++e) {
      s.weight += weight[static_cast<std::size_t>(e)];
    }
    shards_.push_back(s);
  }
}

}  // namespace qplec
