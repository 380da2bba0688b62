#include "src/graph/subset.hpp"

#include <algorithm>

namespace qplec {

EdgeSubset EdgeSubset::all(const Graph& g) {
  EdgeSubset s(g.num_edges());
  std::fill(s.words_.begin(), s.words_.end(), ~std::uint64_t{0});
  if (const int tail = s.universe_ % 64; tail != 0) {
    s.words_.back() = ~std::uint64_t{0} >> (64 - tail);
  }
  s.size_ = s.universe_;
  return s;
}

EdgeSubset EdgeSubset::of(int num_edges, const std::vector<EdgeId>& edges) {
  EdgeSubset s(num_edges);
  for (EdgeId e : edges) s.insert(e);
  return s;
}

std::vector<EdgeId> EdgeSubset::to_vector() const {
  std::vector<EdgeId> out;
  out.reserve(static_cast<std::size_t>(size_));
  for_each([&](EdgeId e) { out.push_back(e); });
  return out;
}

int EdgeSubset::induced_edge_degree(const Graph& g, EdgeId e) const {
  int d = 0;
  g.for_each_edge_neighbor(e, [&](EdgeId f) {
    if (contains(f)) ++d;
  });
  return d;
}

int EdgeSubset::max_induced_edge_degree(const Graph& g) const {
  int best = 0;
  for_each([&](EdgeId e) { best = std::max(best, induced_edge_degree(g, e)); });
  return best;
}

}  // namespace qplec
