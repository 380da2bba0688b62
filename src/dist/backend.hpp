// ExecBackend — the one execution strategy for edge-local rounds.
//
// The solver's rounds are all of one shape: "every edge of a subset updates
// its own state from committed neighbor state".  That step is embarrassingly
// parallel within the round, so the SolverEngine routes it through this
// class instead of iterating inline.  A backend is a range dispatcher: a
// lane -> edge-range table, a lane -> node-range table and an optional
// ThreadPool.  The default-constructed (serial) backend has one lane and
// runs every pass on the calling thread (the seed behavior, and the right
// choice for the small instances the batch runtime sweeps); a sharded one
// fans each pass out over contiguous degree-balanced edge shards on its pool
// and joins at the round barrier.  The base-case primitives (Linial
// reduction, the defective split, greedy class sweeps behind ConflictView)
// run their per-node and per-item passes through the same class, so a
// sharded solve parallelizes all the way down, not just the outer recursion.
//
// The pass methods are templates: the step function inlines into the lane
// loop, and the only type-erased call is the one per lane into the pool.
//
// Contract for step functions fn(lane, e):
//   * fn may mutate only state owned by edge e (its working list, its final
//     color, per-edge scratch slots) plus accumulators indexed by `lane`
//     (see DeterministicReducer and LaneScratch);
//   * fn must not charge the ledger (the caller charges the round once,
//     outside the parallel region) and must not recurse into the engine.
// Lanes cover contiguous ascending id ranges, so per-lane partial results
// concatenated in lane order are in global id order regardless of the shard
// count — together with order-invariant folds this makes sharded execution
// bit-identical to serial execution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/exec_config.hpp"
#include "src/dist/partition.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

class ThreadPool;

class ExecBackend {
 public:
  /// The serial backend: one lane, every pass on the calling thread, any
  /// graph.
  ExecBackend() = default;

  /// Shards g's edge-id universe over `pool`: one lane per degree-balanced
  /// edge shard (EdgePartition), and for_nodes lanes over the node shards
  /// of the same graph.  The pool must outlive the backend.
  ExecBackend(const Graph& g, int shards, ThreadPool& pool);

  /// Number of reduction lanes step functions may index (1 for serial).
  int lanes() const { return static_cast<int>(edge_bounds_.size()) - 1; }

  /// Runs fn(lane, e) for every member of s, each exactly once; blocks until
  /// all steps finished (the round barrier).  Exceptions from fn propagate.
  template <typename Fn>
  void for_members(const EdgeSubset& s, Fn&& fn) const {
    if (pool_ == nullptr) {
      s.for_each([&](EdgeId e) { fn(0, e); });
      return;
    }
    QPLEC_REQUIRE_MSG(s.universe_size() == g_->num_edges(),
                      "subset universe does not match the sharded graph");
    run_lanes(lanes(), [&](int lane) {
      s.for_each_in(edge_bounds_[lane], edge_bounds_[lane + 1], [&](EdgeId e) { fn(lane, e); });
    });
  }

  /// Runs fn(lane, i) for every i in [0, count); lanes cover contiguous
  /// ascending index blocks.
  template <typename Fn>
  void for_indices(int count, Fn&& fn) const {
    QPLEC_REQUIRE(count >= 0);
    if (pool_ == nullptr) {
      for (int i = 0; i < count; ++i) fn(0, i);
      return;
    }
    if (count == 0) return;
    if (count == g_->num_edges()) {
      // An index space the size of the edge universe is (in every current
      // caller, and harmlessly otherwise) edge-indexed: reuse the
      // degree-balanced edge shards instead of an even count split, so hub
      // edges don't pile into one lane.  Any contiguous ascending lane split
      // is equivalent for determinism.
      run_lanes(lanes(), [&](int lane) {
        for (EdgeId e = edge_bounds_[lane]; e < edge_bounds_[lane + 1]; ++e) {
          fn(lane, static_cast<int>(e));
        }
      });
      return;
    }
    const int n = std::min(lanes(), count);
    run_lanes(n, [&](int lane) {
      const int begin = static_cast<int>(static_cast<std::int64_t>(count) * lane / n);
      const int end = static_cast<int>(static_cast<std::int64_t>(count) * (lane + 1) / n);
      for (int i = begin; i < end; ++i) fn(lane, i);
    });
  }

  /// Runs fn(lane, v) for every node v of g; lanes cover contiguous
  /// ascending node ranges (degree-balanced on the sharded path).  The
  /// per-node passes of the base-case primitives (defective numbering,
  /// same-group conflict detection) run through this: a node may mutate only
  /// state owned by its own incident (node, port) slots plus lane-indexed
  /// accumulators.  On a sharded backend g must be the sharded graph.
  template <typename Fn>
  void for_nodes(const Graph& g, Fn&& fn) const {
    if (pool_ == nullptr) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) fn(0, v);
      return;
    }
    QPLEC_REQUIRE_MSG(&g == g_, "for_nodes graph does not match the sharded graph");
    run_lanes(static_cast<int>(node_bounds_.size()) - 1, [&](int lane) {
      for (NodeId v = node_bounds_[lane]; v < node_bounds_[lane + 1]; ++v) fn(lane, v);
    });
  }

  /// Runs fn(lane, begin, end) once per lane with that lane's owned
  /// contiguous edge-id range; the ranges are disjoint, ascending in lane
  /// order, and cover [0, universe) exactly.  The unique-writer partition
  /// primitive: within its call, a lane may write per-edge state of ANY
  /// edge id inside its own range (not just state of edges a step function
  /// was handed).  On a sharded backend `universe` must equal the sharded
  /// graph's edge count (the ranges are the degree-balanced edge shards).
  template <typename Fn>
  void for_edge_ranges(int universe, Fn&& fn) const {
    QPLEC_REQUIRE(universe >= 0);
    if (universe == 0) return;
    if (pool_ == nullptr) {
      fn(0, EdgeId{0}, static_cast<EdgeId>(universe));
      return;
    }
    QPLEC_REQUIRE_MSG(universe == g_->num_edges(),
                      "for_edge_ranges universe does not match the sharded graph");
    run_lanes(lanes(), [&](int lane) { fn(lane, edge_bounds_[lane], edge_bounds_[lane + 1]); });
  }

 private:
  /// Runs fn(lane) for every lane in [0, n) on the pool and joins.
  void run_lanes(int n, const std::function<void(int)>& fn) const;

  // Serial when pool_ is null (g_ is then unused).  Lane l owns edge ids
  // [edge_bounds_[l], edge_bounds_[l+1]) and nodes [node_bounds_[l],
  // node_bounds_[l+1]); serial has the one edge lane {0, 0}.
  const Graph* g_ = nullptr;
  ThreadPool* pool_ = nullptr;
  std::vector<EdgeId> edge_bounds_{0, 0};
  std::vector<NodeId> node_bounds_{0, 0};
};

/// Per-lane scratch slots for the reusable working sets of a parallel pass
/// (neighbor-color buffers, conflict-pair sinks, delta queues).
/// Unlike DeterministicReducer there is no fold: the contents are transient
/// working memory that stays resident in one lane across the steps it runs,
/// so a hot round loop reuses one allocation per shard instead of one per
/// item.  Slots are cache-line padded against false sharing.
template <typename T>
class LaneScratch {
 public:
  explicit LaneScratch(int lanes) {
    QPLEC_REQUIRE(lanes >= 1);
    slots_.resize(static_cast<std::size_t>(lanes));
  }

  int num_lanes() const { return static_cast<int>(slots_.size()); }

  T& lane(int l) {
    QPLEC_REQUIRE(l >= 0 && l < num_lanes());
    return slots_[static_cast<std::size_t>(l)].value;
  }

  const T& lane(int l) const {
    QPLEC_REQUIRE(l >= 0 && l < num_lanes());
    return slots_[static_cast<std::size_t>(l)].value;
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

/// The process-wide serial backend (stateless, shared by every engine that
/// was not handed a sharded one).
const ExecBackend& serial_backend();

/// Bundles the pool + backend lifetime for one sharded solve: the Solver
/// materializes one of these per instance it decides to shard.  With
/// ExecConfig::shared_pool set the execution runs on the leased pool and
/// owns no threads of its own; otherwise it owns a pool of
/// ExecConfig::pool_threads() threads, the calling thread included.
class ShardedExecution {
 public:
  ShardedExecution(const Graph& g, const ExecConfig& config);
  ~ShardedExecution();

  const ExecBackend& backend() const { return backend_; }

 private:
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when running on a lease
  ExecBackend backend_;
};

}  // namespace qplec
