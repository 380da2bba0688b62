// ExecBackend — pluggable execution strategy for edge-local rounds.
//
// The solver's rounds are all of one shape: "every edge of a subset updates
// its own state from committed neighbor state".  That step is embarrassingly
// parallel within the round, so the SolverEngine routes it through this
// interface instead of iterating inline: SerialBackend runs the step on the
// calling thread (the seed behavior, and the right choice for the small
// instances the batch runtime sweeps), ShardedBackend fans the subset out
// over contiguous degree-balanced edge shards on a ThreadPool and joins at
// the round barrier.  The base-case primitives (Linial reduction, the
// defective split, greedy class sweeps behind ConflictView) run their
// per-node and per-item passes through the same interface, so a sharded
// solve parallelizes all the way down, not just the outer recursion.
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

#include <functional>
#include <memory>

#include "src/common/exec_config.hpp"
#include "src/dist/partition.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

class ThreadPool;

class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  /// Number of reduction lanes step functions may index (1 for serial).
  virtual int lanes() const = 0;

  /// Runs fn(lane, e) for every member of s, each exactly once; blocks until
  /// all steps finished (the round barrier).  Exceptions from fn propagate.
  virtual void for_members(const EdgeSubset& s,
                           const std::function<void(int, EdgeId)>& fn) const = 0;

  /// Runs fn(lane, i) for every i in [0, count); lanes cover contiguous
  /// ascending index blocks.
  virtual void for_indices(int count, const std::function<void(int, int)>& fn) const = 0;

  /// Runs fn(lane, v) for every node v of g; lanes cover contiguous
  /// ascending node ranges (degree-balanced on the sharded path).  The
  /// per-node passes of the base-case primitives (defective numbering,
  /// same-group conflict detection) run through this: a node may mutate only
  /// state owned by its own incident (node, port) slots plus lane-indexed
  /// accumulators.  On a sharded backend g must be the sharded graph.
  virtual void for_nodes(const Graph& g,
                         const std::function<void(int, NodeId)>& fn) const = 0;

  /// Runs fn(lane, begin, end) once per lane with that lane's owned
  /// contiguous edge-id range; the ranges are disjoint, ascending in lane
  /// order, and cover [0, universe) exactly.  The unique-writer partition
  /// primitive: within its call, a lane may write per-edge state of ANY
  /// edge id inside its own range (not just state of edges a step function
  /// was handed) — the NeighborColorCache fills its per-edge live rows
  /// through this, and any future owner-partitioned table exchange slots in
  /// the same way.  On a sharded backend `universe` must equal the sharded
  /// graph's edge count (the ranges are the degree-balanced edge shards).
  virtual void for_edge_ranges(int universe,
                               const std::function<void(int, EdgeId, EdgeId)>& fn) const = 0;
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

/// The seed execution strategy: one lane, steps on the calling thread.
class SerialBackend final : public ExecBackend {
 public:
  int lanes() const override { return 1; }
  void for_members(const EdgeSubset& s,
                   const std::function<void(int, EdgeId)>& fn) const override;
  void for_indices(int count, const std::function<void(int, int)>& fn) const override;
  void for_nodes(const Graph& g,
                 const std::function<void(int, NodeId)>& fn) const override;
  void for_edge_ranges(int universe,
                       const std::function<void(int, EdgeId, EdgeId)>& fn) const override;
};

/// The process-wide serial backend (stateless, shared by every engine that
/// was not handed a sharded one).
const ExecBackend& serial_backend();

/// Shards the edge-id universe of one graph over a thread pool.  One lane
/// per edge shard; for_members iterates each shard's id range on its own
/// worker; for_nodes iterates the degree-balanced node shards of the same
/// graph.  The pool must outlive the backend.
class ShardedBackend final : public ExecBackend {
 public:
  ShardedBackend(const Graph& g, int shards, ThreadPool& pool);

  int lanes() const override { return partition_.num_shards(); }
  const EdgePartition& partition() const { return partition_; }

  void for_members(const EdgeSubset& s,
                   const std::function<void(int, EdgeId)>& fn) const override;
  void for_indices(int count, const std::function<void(int, int)>& fn) const override;
  void for_nodes(const Graph& g,
                 const std::function<void(int, NodeId)>& fn) const override;
  void for_edge_ranges(int universe,
                       const std::function<void(int, EdgeId, EdgeId)>& fn) const override;

 private:
  const Graph* g_;
  EdgePartition partition_;
  NodePartition node_partition_;
  ThreadPool* pool_;
};

/// Bundles the pool + backend lifetime for one sharded solve: the Solver
/// materializes one of these per instance it decides to shard.  With
/// ExecConfig::shared_pool set the execution runs on the leased pool and
/// owns no threads of its own; otherwise it spawns (and joins) a pool sized
/// min(shards, hardware concurrency).
class ShardedExecution {
 public:
  ShardedExecution(const Graph& g, const ExecConfig& config);
  ~ShardedExecution();

  const ExecBackend& backend() const { return *backend_; }

 private:
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when running on a lease
  std::unique_ptr<ShardedBackend> backend_;
};

}  // namespace qplec
