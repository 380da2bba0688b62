// Immutable simple undirected graph with stable edge identifiers.
//
// The graph is stored in CSR form: for every node, the list of (neighbor,
// edge id) pairs.  Edge ids index a parallel array of endpoint pairs with
// endpoints ordered u < v.  The line-graph neighborhood of an edge e = {u, v}
// — the central object of the paper, since edge coloring is vertex coloring
// of the line graph — is the disjoint union of the other edges incident to u
// and to v, so deg(e) = deg(u) + deg(v) - 2 exactly, and iteration needs no
// auxiliary structure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/assert.hpp"

namespace qplec {

using NodeId = std::int32_t;  ///< Dense node index in [0, num_nodes).
using EdgeId = std::int32_t;  ///< Dense edge index in [0, num_edges).

inline constexpr EdgeId kInvalidEdge = -1;

/// An incident edge as seen from a node: the other endpoint plus the edge id.
struct Incidence {
  NodeId neighbor;
  EdgeId edge;
};

struct EdgeEndpoints {
  NodeId u;  ///< smaller endpoint
  NodeId v;  ///< larger endpoint

  friend bool operator==(const EdgeEndpoints&, const EdgeEndpoints&) = default;
};

class GraphBuilder;

class Graph {
 public:
  Graph() = default;

  int num_nodes() const { return static_cast<int>(offsets_.size()) - 1; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Degree of node v.
  int degree(NodeId v) const {
    check_node(v);
    return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)]);
  }

  /// Degree of edge e in the line graph: number of edges sharing an endpoint.
  int edge_degree(EdgeId e) const {
    const auto& ep = endpoints(e);
    return degree(ep.u) + degree(ep.v) - 2;
  }

  /// Maximum node degree Delta (0 for the empty graph).
  int max_degree() const { return max_degree_; }

  /// Maximum line-graph degree Delta-bar <= 2*Delta - 2.
  int max_edge_degree() const { return max_edge_degree_; }

  const EdgeEndpoints& endpoints(EdgeId e) const {
    check_edge(e);
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Incident (neighbor, edge) pairs of node v, sorted by neighbor.
  std::span<const Incidence> incident(NodeId v) const {
    check_node(v);
    return std::span<const Incidence>(adj_).subspan(
        offsets_[static_cast<std::size_t>(v)],
        offsets_[static_cast<std::size_t>(v) + 1] - offsets_[static_cast<std::size_t>(v)]);
  }

  /// Given edge e = {u, v} and one endpoint w in {u, v}, the other endpoint.
  NodeId other_endpoint(EdgeId e, NodeId w) const {
    const auto& ep = endpoints(e);
    QPLEC_REQUIRE(w == ep.u || w == ep.v);
    return w == ep.u ? ep.v : ep.u;
  }

  /// Applies fn(EdgeId f) to every line-graph neighbor f of e (every edge
  /// sharing an endpoint with e, excluding e itself).
  template <typename Fn>
  void for_each_edge_neighbor(EdgeId e, Fn&& fn) const {
    const auto& ep = endpoints(e);
    for (const Incidence& inc : incident(ep.u)) {
      if (inc.edge != e) fn(inc.edge);
    }
    for (const Incidence& inc : incident(ep.v)) {
      if (inc.edge != e) fn(inc.edge);
    }
  }

  /// Line-graph neighbors of e, materialized.
  std::vector<EdgeId> edge_neighbors(EdgeId e) const {
    std::vector<EdgeId> out;
    out.reserve(static_cast<std::size_t>(edge_degree(e)));
    for_each_edge_neighbor(e, [&](EdgeId f) { out.push_back(f); });
    return out;
  }

  /// The edge between u and v, or kInvalidEdge (binary search on the sorted
  /// adjacency of the lower-degree endpoint).
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// Unique identifier of node v in the LOCAL-model sense: a value in
  /// {1, ..., n^O(1)}, distinct across nodes.  Defaults to v + 1; generators
  /// can scramble them (see Graph::with_scrambled_ids) to model adversarial
  /// id assignments.
  std::uint64_t local_id(NodeId v) const {
    check_node(v);
    return local_ids_[static_cast<std::size_t>(v)];
  }

  /// Largest local id (the X in "ids from {1..X}").
  std::uint64_t max_local_id() const { return max_local_id_; }

  /// Every edge's endpoints, indexed by edge id.
  std::span<const EdgeEndpoints> all_endpoints() const { return edges_; }

  /// Every node's local id, indexed by node id.
  std::span<const std::uint64_t> all_local_ids() const { return local_ids_; }

  /// Copy of this graph with node ids replaced by a random injection into
  /// {1, ..., id_space}; id_space must be >= num_nodes().
  Graph with_scrambled_ids(std::uint64_t id_space, std::uint64_t seed) const;

 private:
  friend class GraphBuilder;

  void check_node(NodeId v) const {
    QPLEC_REQUIRE_MSG(v >= 0 && v < num_nodes(), "node id " << v << " out of range");
  }
  void check_edge(EdgeId e) const {
    QPLEC_REQUIRE_MSG(e >= 0 && e < num_edges(), "edge id " << e << " out of range");
  }

  std::vector<std::size_t> offsets_{0};  // CSR offsets, size num_nodes + 1
  std::vector<Incidence> adj_;           // CSR payload
  std::vector<EdgeEndpoints> edges_;     // edge id -> endpoints
  std::vector<std::uint64_t> local_ids_;
  std::uint64_t max_local_id_ = 0;
  int max_degree_ = 0;
  int max_edge_degree_ = 0;
};

}  // namespace qplec
