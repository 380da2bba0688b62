#include "src/graph/graph.hpp"

#include <algorithm>
#include <unordered_set>

#include "src/common/rng.hpp"

namespace qplec {

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  if (u == v) return kInvalidEdge;
  const NodeId probe = degree(u) <= degree(v) ? u : v;
  const NodeId target = probe == u ? v : u;
  const auto inc = incident(probe);
  auto it = std::lower_bound(inc.begin(), inc.end(), target,
                             [](const Incidence& a, NodeId t) { return a.neighbor < t; });
  if (it != inc.end() && it->neighbor == target) return it->edge;
  return kInvalidEdge;
}

Graph Graph::with_scrambled_ids(std::uint64_t id_space, std::uint64_t seed) const {
  const auto n = static_cast<std::uint64_t>(num_nodes());
  QPLEC_REQUIRE(id_space >= n);
  Graph g = *this;
  // Sample n distinct values from {1..id_space} via a partial Fisher–Yates on
  // a sparse map (id_space can be much larger than n).
  Rng rng(seed);
  std::vector<std::uint64_t> picks;
  picks.reserve(n);
  if (id_space <= 4 * n) {
    std::vector<std::uint64_t> pool(id_space);
    for (std::uint64_t i = 0; i < id_space; ++i) pool[i] = i + 1;
    rng.shuffle(pool);
    picks.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(n));
  } else {
    // Rejection sampling: collisions are rare when the space is >= 4n.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(n);
    while (picks.size() < n) {
      const std::uint64_t candidate = rng.next_below(id_space) + 1;
      if (seen.insert(candidate).second) picks.push_back(candidate);
    }
  }
  g.local_ids_ = std::move(picks);
  g.max_local_id_ = *std::max_element(g.local_ids_.begin(), g.local_ids_.end());
  return g;
}

}  // namespace qplec
