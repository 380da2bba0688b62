// Mutable construction front-end for Graph.
//
// Accepts edges in any order, rejects self-loops, deduplicates parallel
// edges, and produces the immutable CSR Graph.  Edge ids are assigned in the
// (u, v)-lexicographic order of the canonicalized endpoint pairs so that a
// graph's edge ids are independent of insertion order (important for
// reproducibility of experiments).
//
// build() is linear in nodes plus edges: two counting sorts (by upper, then
// stably by lower endpoint) put the pairs in (u, v) order with duplicates
// adjacent, and one fill of the incidence CSR in that edge-id order leaves
// every incidence list ascending by neighbor, with no comparison sort.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.hpp"

namespace qplec {

class GraphBuilder {
 public:
  /// Creates a builder for a graph with num_nodes isolated nodes.
  explicit GraphBuilder(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  /// Adds the undirected edge {u, v}.  Self-loops are rejected; duplicates
  /// are deduplicated at build time.  Returns *this for chaining.
  GraphBuilder& add_edge(NodeId u, NodeId v);

  /// Reserves room for `count` more add_edge calls.
  GraphBuilder& reserve(std::size_t count);

  /// Number of edges added so far (before deduplication).
  std::size_t num_pending_edges() const { return pending_.size(); }

  /// Carries the LOCAL ids of `from` (which must have the same node count)
  /// into the built graph instead of the default v+1 assignment.  Edge-churn
  /// rebuilds use this: the mutated graph is the same network under the same
  /// identifiers, so the paper's id-driven symmetry breaking (and the graph
  /// fingerprint) keeps seeing the ids the base solve saw.
  GraphBuilder& carry_local_ids(const Graph& from);

  /// Installs explicit LOCAL ids (one per node) plus the id-space bound
  /// max_local_id (>= every id; it is part of the instance — the paper's
  /// O(log* X) terms read X from it).  Deserialization uses this to rebuild
  /// a graph bit-identical to a remote original.
  GraphBuilder& set_local_ids(std::vector<std::uint64_t> ids, std::uint64_t max_local_id);

  /// Builds the immutable graph: edge ids in (u, v) order, each node's
  /// incidences sorted by neighbor.  The builder may be reused afterwards.
  Graph build() const;

 private:
  int num_nodes_;
  std::vector<EdgeEndpoints> pending_;
  std::vector<std::uint64_t> local_ids_;  ///< empty: default v+1 assignment
  std::uint64_t max_local_id_ = 0;
};

}  // namespace qplec
