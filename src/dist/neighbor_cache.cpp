#include "src/dist/neighbor_cache.hpp"

namespace qplec {

NeighborColorCache::NeighborColorCache(ConflictView line_graph, const EdgeColoring& final,
                                       const ExecBackend& exec)
    : final_(&final),
      num_edges_(line_graph.num_items()),
      queues_(exec.lanes()),
      pending_(static_cast<std::size_t>(num_edges_)),
      offsets_(std::move(line_graph.offsets_)),
      nbrs_(std::move(line_graph.nbrs_)),
      live_count_(static_cast<std::size_t>(num_edges_)),
      row_epoch_(static_cast<std::size_t>(num_edges_), 0),
      drops_(exec.lanes()) {
  QPLEC_REQUIRE_MSG(line_graph.num_active() == num_edges_,
                    "the cache adopts the rows of a full line graph");
  QPLEC_REQUIRE(final.size() == static_cast<std::size_t>(num_edges_));
  for (std::size_t e = 0; e < live_count_.size(); ++e) {
    live_count_[e] = static_cast<std::int32_t>(offsets_[e + 1] - offsets_[e]);
  }
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
