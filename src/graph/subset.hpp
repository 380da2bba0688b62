// EdgeSubset: a set of edge ids of a fixed Graph, used to run coloring
// phases on induced sub-line-graphs.
//
// The paper's recursion constantly restricts attention to "the subgraph
// induced by edges with property P" (a defective color class, the still-
// uncolored edges, the edges assigned a given color subspace).  EdgeSubset
// provides O(1) membership (one bit per edge of the universe), iteration over
// members in word-at-a-time scans, and induced edge degrees
// deg_H(e) = |{f adjacent to e : f in H}| without copying the graph.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "src/graph/graph.hpp"

namespace qplec {

class EdgeSubset {
 public:
  /// Empty subset over a graph with num_edges edges.
  explicit EdgeSubset(int num_edges) : universe_(num_edges) {
    QPLEC_REQUIRE(num_edges >= 0);
    words_.assign((static_cast<std::size_t>(num_edges) + 63) / 64, 0);
  }

  /// Full subset of all edges of g.
  static EdgeSubset all(const Graph& g);

  /// Subset from an explicit list of edge ids.
  static EdgeSubset of(int num_edges, const std::vector<EdgeId>& edges);

  int universe_size() const { return universe_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool contains(EdgeId e) const {
    QPLEC_REQUIRE(e >= 0 && e < universe_);
    return ((words_[word(e)] >> (e & 63)) & 1) != 0;
  }

  void insert(EdgeId e) {
    QPLEC_REQUIRE(e >= 0 && e < universe_);
    auto& w = words_[word(e)];
    const std::uint64_t bit = std::uint64_t{1} << (e & 63);
    if ((w & bit) == 0) {
      w |= bit;
      ++size_;
    }
  }

  void erase(EdgeId e) {
    QPLEC_REQUIRE(e >= 0 && e < universe_);
    auto& w = words_[word(e)];
    const std::uint64_t bit = std::uint64_t{1} << (e & 63);
    if ((w & bit) != 0) {
      w &= ~bit;
      --size_;
    }
  }

  /// Members in increasing edge-id order.
  std::vector<EdgeId> to_vector() const;

  /// Induced line-graph degree of e within this subset (e need not be a
  /// member; the count is over neighbors only).
  int induced_edge_degree(const Graph& g, EdgeId e) const;

  /// Maximum induced line-graph degree over the members (0 if empty).
  int max_induced_edge_degree(const Graph& g) const;

  /// Applies fn to every member in [begin, end), in increasing id order.
  /// Costs one word read per 64 ids of the range plus one call per member.
  template <typename Fn>
  void for_each_in(EdgeId begin, EdgeId end, Fn&& fn) const {
    QPLEC_REQUIRE(0 <= begin && begin <= end && end <= universe_);
    if (begin == end) return;
    const std::size_t first = word(begin);
    const std::size_t last = word(end - 1);
    for (std::size_t w = first; w <= last; ++w) {
      std::uint64_t bits = words_[w];
      if (w == first) bits &= ~std::uint64_t{0} << (begin & 63);
      if (w == last) bits &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
      for (; bits != 0; bits &= bits - 1) {
        fn(static_cast<EdgeId>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
    }
  }

  /// Applies fn to every member, in increasing id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_in(0, universe_, fn);
  }

  friend bool operator==(const EdgeSubset&, const EdgeSubset&) = default;

 private:
  static std::size_t word(EdgeId e) { return static_cast<std::size_t>(e) >> 6; }

  // Bit e % 64 of words_[e / 64] is set iff e is a member; bits at or past
  // universe_ stay clear.
  int universe_ = 0;
  std::vector<std::uint64_t> words_;
  int size_ = 0;
};

}  // namespace qplec
