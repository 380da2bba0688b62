#include "src/dist/neighbor_cache.hpp"

#include "src/obs/metrics.hpp"

namespace qplec {

NeighborColorCache::NeighborColorCache(const Graph& g, const EdgeColoring& final,
                                       const ExecBackend& exec)
    : g_(&g),
      final_(&final),
      num_edges_(g.num_edges()),
      rescan_(!fits(g)),
      queues_(exec.lanes()),
      drops_(exec.lanes()) {
  QPLEC_REQUIRE(final.size() == static_cast<std::size_t>(num_edges_));
  // Process-wide mode counters: "hit" built the rows, "budget_reject" runs
  // in rescan mode because the rows would dwarf the graph.
  if (num_edges_ > 0) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& hit = reg.counter("qplec_cache_engines_total{mode=\"hit\"}");
    static obs::Counter& budget_reject =
        reg.counter("qplec_cache_engines_total{mode=\"budget_reject\"}");
    (rescan_ ? budget_reject : hit).inc();
  }
  if (rescan_) return;
  const std::size_t m = static_cast<std::size_t>(num_edges_);
  pending_.resize(m);
  offsets_.resize(m + 1, 0);
  live_count_.resize(m, 0);
  row_epoch_.resize(m, 0);
  for (std::size_t e = 0; e < m; ++e) {
    offsets_[e + 1] =
        offsets_[e] + static_cast<std::size_t>(g.edge_degree(static_cast<EdgeId>(e)));
  }
  nbrs_.resize(offsets_[m]);
  // Row fill runs over the backend's unique-writer edge ranges: each lane
  // fills exactly the CSR rows of the edges it owns.
  exec.for_edge_ranges(num_edges_, [&](int, EdgeId begin, EdgeId end) {
    for (EdgeId e = begin; e < end; ++e) {
      std::size_t w = offsets_[static_cast<std::size_t>(e)];
      g_->for_each_edge_neighbor(e, [&](EdgeId f) { nbrs_[w++] = f; });
      live_count_[static_cast<std::size_t>(e)] =
          static_cast<std::int32_t>(w - offsets_[static_cast<std::size_t>(e)]);
    }
  });
}

void NeighborColorCache::flush() {
  delta_buf_.clear();
  for (int lane = 0; lane < queues_.num_lanes(); ++lane) {
    auto& queue = queues_.lane(lane);
    delta_buf_.insert(delta_buf_.end(), queue.begin(), queue.end());
    queue.clear();
  }
  if (delta_buf_.empty()) return;
  ++flushes_;
  ++epoch_;  // a finalize wave landed: rows swept before it must re-check
  deltas_flushed_ += static_cast<std::int64_t>(delta_buf_.size());
  for (const EdgeId f : delta_buf_) {
    QPLEC_ASSERT_MSG((*final_)[static_cast<std::size_t>(f)] != kUncolored,
                     "edge " << f << " queued as finalized but has no final color");
  }
  delta_buf_.clear();
}

}  // namespace qplec
