#include "src/graph/builder.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

namespace qplec {

GraphBuilder::GraphBuilder(int num_nodes) : num_nodes_(num_nodes) {
  QPLEC_REQUIRE(num_nodes >= 0);
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  QPLEC_REQUIRE_MSG(u >= 0 && u < num_nodes_, "endpoint " << u << " out of range");
  QPLEC_REQUIRE_MSG(v >= 0 && v < num_nodes_, "endpoint " << v << " out of range");
  QPLEC_REQUIRE_MSG(u != v, "self-loop at node " << u);
  pending_.push_back(u < v ? EdgeEndpoints{u, v} : EdgeEndpoints{v, u});
  return *this;
}

GraphBuilder& GraphBuilder::reserve(std::size_t count) {
  pending_.reserve(pending_.size() + count);
  return *this;
}

GraphBuilder& GraphBuilder::carry_local_ids(const Graph& from) {
  QPLEC_REQUIRE_MSG(from.num_nodes() == num_nodes_,
                    "carry_local_ids: node count mismatch (" << from.num_nodes() << " vs "
                                                             << num_nodes_ << ")");
  local_ids_.resize(static_cast<std::size_t>(num_nodes_));
  for (NodeId v = 0; v < num_nodes_; ++v) {
    local_ids_[static_cast<std::size_t>(v)] = from.local_id(v);
  }
  max_local_id_ = from.max_local_id();
  return *this;
}

GraphBuilder& GraphBuilder::set_local_ids(std::vector<std::uint64_t> ids,
                                          std::uint64_t max_local_id) {
  QPLEC_REQUIRE_MSG(ids.size() == static_cast<std::size_t>(num_nodes_),
                    "set_local_ids: id count mismatch (" << ids.size() << " vs " << num_nodes_
                                                         << ")");
  for (const std::uint64_t id : ids) {
    QPLEC_REQUIRE_MSG(id >= 1 && id <= max_local_id, "set_local_ids: id " << id
                                                                          << " outside [1, "
                                                                          << max_local_id << "]");
  }
  local_ids_ = std::move(ids);
  max_local_id_ = max_local_id;
  return *this;
}

Graph GraphBuilder::build() const {
  const auto n = static_cast<std::size_t>(num_nodes_);
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v); };

  // Two counting sorts, an LSD radix sort over node ids: group the lower
  // endpoints by upper endpoint, then deal the pairs, by ascending upper
  // endpoint, into buckets by lower endpoint.  Bucket u of `upper`,
  // [first[u], first[u+1]), then holds u's upper endpoints ascending with
  // duplicates adjacent: the pairs in (u, v) order, with no comparison sort.
  std::vector<std::size_t> by_upper(n + 1, 0);
  std::vector<std::size_t> first(n + 1, 0);
  for (const EdgeEndpoints& e : pending_) {
    ++by_upper[at(e.v) + 1];
    ++first[at(e.u) + 1];
  }
  std::partial_sum(by_upper.begin(), by_upper.end(), by_upper.begin());
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<NodeId> lower(pending_.size());
  {
    std::vector<std::size_t> fill(by_upper.begin(), by_upper.end() - 1);
    for (const EdgeEndpoints& e : pending_) lower[fill[at(e.v)]++] = e.u;
  }
  std::vector<NodeId> upper(pending_.size());
  {
    std::vector<std::size_t> fill(first.begin(), first.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t i = by_upper[v]; i < by_upper[v + 1]; ++i) {
        upper[fill[at(lower[i])]++] = static_cast<NodeId>(v);
      }
    }
  }

  // Drop the duplicates, compacting in place: a pair's position is its id.
  std::size_t kept = 0;
  for (std::size_t u = 0, begin = 0; u < n; ++u) {
    const std::size_t end = first[u + 1];
    NodeId previous = -1;
    for (std::size_t i = begin; i < end; ++i) {
      if (upper[i] != previous) upper[kept++] = previous = upper[i];
    }
    first[u + 1] = kept;
    begin = end;
  }

  Graph g;
  g.edges_.resize(kept);
  g.offsets_.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t id = first[u]; id < first[u + 1]; ++id) {
      g.edges_[id] = EdgeEndpoints{static_cast<NodeId>(u), upper[id]};
      ++g.offsets_[u + 1];
      ++g.offsets_[at(upper[id]) + 1];
    }
  }
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());

  // Fill the incidence CSR in edge-id order.  Node w then lists first its
  // lower neighbors (edges of earlier buckets, ascending by bucket), then
  // its upper neighbors (its own bucket, ascending): every list is sorted
  // by neighbor, as find_edge's binary search needs, with no sort.
  g.adj_.resize(g.offsets_.back());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t id = 0; id < kept; ++id) {
    const EdgeEndpoints& e = g.edges_[id];
    const auto eid = static_cast<EdgeId>(id);
    g.adj_[cursor[at(e.u)]++] = Incidence{e.v, eid};
    g.adj_[cursor[at(e.v)]++] = Incidence{e.u, eid};
  }

  if (!local_ids_.empty()) {
    g.local_ids_ = local_ids_;
    g.max_local_id_ = max_local_id_;
  } else {
    g.local_ids_.resize(static_cast<std::size_t>(num_nodes_));
    for (int v = 0; v < num_nodes_; ++v) {
      g.local_ids_[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(v) + 1;
    }
    g.max_local_id_ = static_cast<std::uint64_t>(num_nodes_);
  }

  g.max_degree_ = 0;
  for (int v = 0; v < num_nodes_; ++v) g.max_degree_ = std::max(g.max_degree_, g.degree(v));
  g.max_edge_degree_ = 0;
  for (int e = 0; e < g.num_edges(); ++e) {
    g.max_edge_degree_ = std::max(g.max_edge_degree_, g.edge_degree(e));
  }
  return g;
}

}  // namespace qplec
