#include "src/coloring/problem.hpp"

#include <algorithm>
#include <bit>

#include "src/common/rng.hpp"

namespace qplec {
namespace {

/// Working memory one builder loop reuses across edges: the membership
/// bitset over the sampled span and the shuffle pool.
struct SampleScratch {
  std::vector<std::uint64_t> bits;
  std::vector<Color> pool;
};

/// Sets bit i; returns false if it was already set.
bool mark(std::vector<std::uint64_t>& bits, std::int64_t i) {
  auto& w = bits[static_cast<std::size_t>(i >> 6)];
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if ((w & bit) != 0) return false;
  w |= bit;
  return true;
}

/// size distinct colors sampled uniformly from [lo, hi), ascending.  Spans
/// of at most 3 * size are shuffled whole and cut; wider spans draw with
/// rejection.  Membership lives in a bitset over the span while that costs
/// at most one word per color (span <= 64 * size, always true when
/// shuffling), read out in order with countr_zero; a sparser draw from a
/// hostile palette keeps a sorted vector instead, so memory stays O(size).
std::vector<Color> sample_colors(Rng& rng, Color lo, Color hi, int size, SampleScratch& scratch) {
  const std::int64_t span = std::int64_t{hi} - lo;
  QPLEC_REQUIRE(size >= 0 && size <= span);
  const auto draw = [&] { return rng.next_below(static_cast<std::uint64_t>(span)); };
  std::vector<Color> out;
  out.reserve(static_cast<std::size_t>(size));
  if (span > std::int64_t{64} * size) {
    while (static_cast<int>(out.size()) < size) {
      const Color c = lo + static_cast<Color>(draw());
      auto it = std::lower_bound(out.begin(), out.end(), c);
      if (it == out.end() || *it != c) out.insert(it, c);
    }
    return out;
  }
  auto& bits = scratch.bits;
  bits.assign(static_cast<std::size_t>((span + 63) / 64), 0);
  if (std::int64_t{3} * size >= span) {
    auto& pool = scratch.pool;
    pool.resize(static_cast<std::size_t>(span));
    for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = static_cast<Color>(i);
    rng.shuffle(pool);
    for (int i = 0; i < size; ++i) mark(bits, pool[static_cast<std::size_t>(i)]);
  } else {
    for (int drawn = 0; drawn < size;) {
      if (mark(bits, static_cast<std::int64_t>(draw()))) ++drawn;
    }
  }
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      out.push_back(lo + static_cast<Color>(w * 64 + std::countr_zero(b)));
    }
  }
  return out;
}

}  // namespace

ListEdgeColoringInstance make_two_delta_instance(Graph g) {
  const Color C = std::max<Color>(1, 2 * g.max_degree() - 1);
  ListEdgeColoringInstance inst;
  inst.lists.assign(static_cast<std::size_t>(g.num_edges()), ColorList::range(0, C));
  inst.palette_size = C;
  inst.graph = std::move(g);
  return inst;
}

ListEdgeColoringInstance make_random_list_instance(Graph g, Color palette_size,
                                                   std::uint64_t seed) {
  QPLEC_REQUIRE_MSG(palette_size > g.max_edge_degree(),
                    "palette " << palette_size << " too small for max edge degree "
                               << g.max_edge_degree());
  Rng rng(seed);
  ListEdgeColoringInstance inst;
  inst.palette_size = palette_size;
  inst.lists.reserve(static_cast<std::size_t>(g.num_edges()));
  SampleScratch scratch;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    Rng edge_rng = rng.fork(static_cast<std::uint64_t>(e));
    const int size = g.edge_degree(e) + 1;
    inst.lists.emplace_back(sample_colors(edge_rng, 0, palette_size, size, scratch));
  }
  inst.graph = std::move(g);
  return inst;
}

ListEdgeColoringInstance make_slack_instance(Graph g, double slack, Color palette_size,
                                             std::uint64_t seed) {
  QPLEC_REQUIRE(slack >= 1.0);
  Rng rng(seed);
  ListEdgeColoringInstance inst;
  inst.palette_size = palette_size;
  inst.lists.reserve(static_cast<std::size_t>(g.num_edges()));
  SampleScratch scratch;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    Rng edge_rng = rng.fork(static_cast<std::uint64_t>(e));
    const auto size = static_cast<int>(slack * g.edge_degree(e)) + 1;
    QPLEC_REQUIRE_MSG(size <= palette_size,
                      "palette " << palette_size << " too small for slack " << slack
                                 << " at edge degree " << g.edge_degree(e));
    inst.lists.emplace_back(sample_colors(edge_rng, 0, palette_size, size, scratch));
  }
  inst.graph = std::move(g);
  return inst;
}

ListEdgeColoringInstance make_clustered_list_instance(Graph g, Color palette_size,
                                                      int window, std::uint64_t seed) {
  QPLEC_REQUIRE(window >= 1);
  Rng rng(seed);
  ListEdgeColoringInstance inst;
  inst.palette_size = palette_size;
  inst.lists.reserve(static_cast<std::size_t>(g.num_edges()));
  SampleScratch scratch;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    Rng edge_rng = rng.fork(static_cast<std::uint64_t>(e));
    const int size = g.edge_degree(e) + 1;
    // Center the window on a hash of the lower endpoint so neighboring edges
    // share most of their lists.
    const auto& ep = g.endpoints(e);
    const Color span = std::max<Color>(window, size);
    const Color max_lo = std::max<Color>(0, palette_size - span);
    const Color lo = max_lo == 0 ? 0
                                 : static_cast<Color>((static_cast<std::uint64_t>(ep.u) *
                                                       2654435761u) %
                                                      static_cast<std::uint64_t>(max_lo + 1));
    const Color hi = std::min<Color>(palette_size, lo + span);
    QPLEC_REQUIRE(hi - lo >= size);
    inst.lists.emplace_back(sample_colors(edge_rng, lo, hi, size, scratch));
  }
  inst.graph = std::move(g);
  return inst;
}

void validate_instance(const ListEdgeColoringInstance& instance) {
  const Graph& g = instance.graph;
  QPLEC_REQUIRE_MSG(static_cast<int>(instance.lists.size()) == g.num_edges(),
                    "lists size mismatch");
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& list = instance.lists[static_cast<std::size_t>(e)];
    QPLEC_REQUIRE_MSG(list.size() >= g.edge_degree(e) + 1,
                      "edge " << e << " has list of size " << list.size()
                              << " < deg(e)+1 = " << g.edge_degree(e) + 1);
    if (!list.empty()) {
      QPLEC_REQUIRE_MSG(list.colors().back() < instance.palette_size,
                        "edge " << e << " has color outside palette");
    }
  }
}

}  // namespace qplec
