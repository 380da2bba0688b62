#include "src/coloring/initial.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/math.hpp"

namespace qplec {

std::uint64_t scrambled_id_space(std::uint64_t num_nodes) {
  const std::uint64_t n = std::max<std::uint64_t>(1, num_nodes);
  return std::min(saturating_mul(n, n), kMaxInitialId);
}

InitialColoring initial_edge_coloring_from_ids(const Graph& g) {
  const std::uint64_t X = g.max_local_id();
  QPLEC_REQUIRE_MSG(X <= kMaxInitialId, "id space too large for 64-bit initial palette");
  const std::uint64_t base = X + 1;
  InitialColoring out;
  out.palette = base * base;
  out.colors.resize(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ep = g.endpoints(e);
    const std::uint64_t a = g.local_id(ep.u);
    const std::uint64_t b = g.local_id(ep.v);
    out.colors[static_cast<std::size_t>(e)] = std::min(a, b) * base + std::max(a, b);
  }
  return out;
}

}  // namespace qplec
