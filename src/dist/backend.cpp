#include "src/dist/backend.hpp"

#include "src/runtime/thread_pool.hpp"

namespace qplec {

const ExecBackend& serial_backend() {
  static const ExecBackend backend;
  return backend;
}

// The node partition is capped at the edge-shard count so a for_nodes lane
// index always fits accumulators sized by lanes() (on a tree the edge
// universe clamps to n-1 shards while the node universe could take n).
ExecBackend::ExecBackend(const Graph& g, int shards, ThreadPool& pool) : g_(&g), pool_(&pool) {
  const EdgePartition edges(g, shards);
  const NodePartition nodes(g, edges.num_shards());
  edge_bounds_.assign(1, 0);
  for (int k = 0; k < edges.num_shards(); ++k) edge_bounds_.push_back(edges.shard(k).edge_end);
  node_bounds_.assign(1, 0);
  for (int k = 0; k < nodes.num_shards(); ++k) node_bounds_.push_back(nodes.shard(k).node_end);
}

void ExecBackend::run_lanes(int n, const std::function<void(int)>& fn) const {
  pool_->run_indexed(n, [&](int, int lane) { fn(lane); });
}

ShardedExecution::ShardedExecution(const Graph& g, const ExecConfig& config)
    : owned_pool_(config.shared_pool == nullptr
                      ? std::make_unique<ThreadPool>(config.pool_threads())
                      : nullptr),
      backend_(g, config.shards,
               config.shared_pool != nullptr ? *config.shared_pool : *owned_pool_) {}

ShardedExecution::~ShardedExecution() = default;

}  // namespace qplec
