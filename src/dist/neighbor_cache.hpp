// NeighborColorCache — incremental neighbor-color state for the round loop.
//
// The recursion of Section 4 repeatedly restricts an edge's working list to
// L_e \ {colors of finalized neighbors} (refresh-lists, the mark-active
// pruning of Lemma 4.2, the Equation (2) restriction of Lemma 4.3).  A full
// rescan re-walks every edge's line-graph neighborhood against the global
// final-color array every round; but between two rounds only the NEWLY
// finalized neighbors matter — the observation the round complexity of the
// GKMU / BBKO edge-coloring algorithms is built on.  The cache makes the
// passes incremental with edge-owned state:
//
//   * a flat-CSR LIVE ROW per edge — the neighbors not yet finalized.  A
//     consuming pass sweeps only the row, removing the colors of the
//     entries that finalized since the edge's previous sweep and compacting
//     them out, so the rows shrink monotonically — late rounds walk a
//     fraction of the full neighborhood, and an untouched row (epoch-gated)
//     skips its walk entirely.  All row maintenance is owner-driven (an
//     edge mutates only its own row), so it is legal inside any backend
//     pass that owns the edge;
//   * a PENDING finalized-neighbor color multiset per edge: passes that
//     iterate live neighbors without consuming (the Lemma 4.3 candidate /
//     restriction passes, induced-degree scans) defer the colors they
//     compact out into the owner's pending slot, and the next consume
//     drains them — removal is idempotent and commutative, so the lists
//     end up exactly as a full rescan would leave them;
//   * a per-lane DELTA QUEUE of newly finalized edge ids (lane queues
//     concatenate in lane order, i.e. ascending id order for any shard
//     count).  flush() drains it once per refresh round as the round's
//     finalize log: every drained id is consistency-checked against the
//     final array, the wave advances the row epoch, and the drain feeds the
//     telemetry the differential tests pin.
//
// The rows are not built here: the cache adopts the CSR of a full-graph
// ConflictView (Solver::run hands over the one its Linial phase read), so a
// solve fills the line graph once.  They hold sum(deg(e)) entries — fewer
// than the sum(|L_e|) >= sum(deg(e) + 1) colors the engine's lists hold.
//
// Cross-shard note: all row/pending maintenance is edge-owned, so no lock or
// message is needed at shard boundaries — boundary information travels
// through the shared final-color array, which is frozen during every pass.
//
// One cache serves one SolverEngine (the final-color array it watches); the
// engines the recursion spawns for virtual graphs build their own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/list_store.hpp"
#include "src/coloring/problem.hpp"
#include "src/common/mapped_allocator.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

class NeighborColorCache {
 public:
  /// Adopts the rows of `line_graph`, the full line graph of the engine's
  /// graph (every edge active, so slots are edge ids).  `final` is the
  /// engine's final-color array (one slot per edge, kUncolored until
  /// finalized) and must outlive the cache.  `exec` supplies the lanes the
  /// delta queues and drop counters are indexed by.
  NeighborColorCache(ConflictView line_graph, const EdgeColoring& final,
                     const ExecBackend& exec);

  NeighborColorCache(const NeighborColorCache&) = delete;
  NeighborColorCache& operator=(const NeighborColorCache&) = delete;

  int num_lanes() const { return queues_.num_lanes(); }

  /// Records edge e as newly finalized, from inside a backend pass running
  /// on `lane`.  final[e] must already hold its color by the next flush().
  void note_finalized(int lane, EdgeId e) {
    QPLEC_REQUIRE(e >= 0 && e < num_edges_);
    queues_.lane(lane).push_back(e);
  }

  /// Drains the delta queues (lane order — ascending edge ids): the round's
  /// finalize log, every id checked to actually be finalized; a non-empty
  /// wave advances the row epoch.  Coordinating thread only; called once
  /// per refresh round.
  void flush();

  /// The consuming sweep: drains e's pending colors, then walks e's live
  /// row, removing the final color of every newly finalized entry from e's
  /// list in `lists` and compacting the entry out.  Together with the
  /// pending drain this removes exactly the colors of the neighbors
  /// finalized since e's previous consume — the colors a full rescan would
  /// remove.  Epoch-gated: if no finalize wave was flushed since e's last
  /// sweep, the row provably holds no finalized entries and the walk is
  /// skipped.
  ///
  /// The walk has no branch on the neighbor's state: every entry is written
  /// back and the write cursor advances only past live ones, and every
  /// entry's final color is handed to the store, which ignores kUncolored.
  void consume(int lane, EdgeId e, ListStore& lists) {
    sweep(lane, e, lists, [](EdgeId) { return 0; });
  }

  /// consume(), then induced_degree(lane, e, s), in one walk of e's row:
  /// the round head's refresh and degree measurement.  The Lemma 4.2 class
  /// loop's mark-active pass uses it too, with `s` the class's bucket: the
  /// count is e's live neighbors in its class, and when it is 0 over every
  /// active edge the class is independent and takes the trivial pick
  /// without a second walk of its rows.  A clean row (no wave since its
  /// last sweep) still iterates to count, where consume() skips it.
  int consume_and_count(int lane, EdgeId e, ListStore& lists, const EdgeSubset& s) {
    return sweep(lane, e, lists, [&](EdgeId f) { return s.contains(f) ? 1 : 0; });
  }

  /// Prefetch hint for a pass that consumes e a few edges from now; changes
  /// no state.  Stage 0 pulls e's per-edge slots; stage 1, sent once those
  /// have landed, the head of its live row (whose offset stage 0 loaded).
  void prefetch(EdgeId e, int stage) const {
    const std::size_t i = static_cast<std::size_t>(e);
    if (stage == 0) {
      __builtin_prefetch(&pending_[i]);
      __builtin_prefetch(&row_epoch_[i]);
      __builtin_prefetch(&offsets_[i]);
      __builtin_prefetch(&live_count_[i]);
    } else {
      __builtin_prefetch(nbrs_.data() + offsets_[i], 1);
    }
  }

  /// Applies fn(EdgeId f) to every live (unfinalized) neighbor of e, in
  /// first-seen adjacency order.  Entries that finalized since the last
  /// sweep are compacted out and their colors DEFERRED into e's pending
  /// slot (this is not a consuming pass — the next consume drains them, so
  /// no removal is ever lost).  Mutates only e-owned state: legal inside
  /// any backend pass that owns e.  On a clean epoch the row is iterated
  /// without finalization checks (nothing can have finalized).
  ///
  /// NOTE: between a finalizing pass and the next flush() the epoch is
  /// stale, so a row may briefly be iterated with finalized entries still
  /// in it.  Every caller filters by membership in an unfinalized-only
  /// subset, so those entries are transparent — the check here exists for
  /// compaction, never for correctness of the enumeration.
  template <typename Fn>
  void for_each_live_neighbor(int lane, EdgeId e, Fn&& fn) {
    const std::size_t begin = offsets_[static_cast<std::size_t>(e)];
    const std::size_t end =
        begin + static_cast<std::size_t>(live_count_[static_cast<std::size_t>(e)]);
    if (row_epoch_[static_cast<std::size_t>(e)] == epoch_) {
      for (std::size_t r = begin; r < end; ++r) fn(nbrs_[r]);
      return;
    }
    std::size_t w = begin;
    std::int64_t dropped = 0;
    for (std::size_t r = begin; r < end; ++r) {
      const EdgeId f = nbrs_[r];
      const Color cf = (*final_)[static_cast<std::size_t>(f)];
      if (cf == kUncolored) {
        nbrs_[w++] = f;
        fn(f);
      } else {
        pending_[static_cast<std::size_t>(e)].push_back(cf);
        ++dropped;
      }
    }
    live_count_[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(w - begin);
    row_epoch_[static_cast<std::size_t>(e)] = epoch_;
    drops_.lane(lane) += dropped;
  }

  /// |{f adjacent to e : s.contains(f)}| computed over the live row.  Equal
  /// to s.induced_edge_degree(g, e) whenever s holds only unfinalized edges
  /// — which every subset of the round loop does.
  int induced_degree(int lane, EdgeId e, const EdgeSubset& s) {
    int d = 0;
    for_each_live_neighbor(lane, e, [&](EdgeId f) { d += s.contains(f) ? 1 : 0; });
    return d;
  }

  /// e's live row as of its last sweep: a superset of its unfinalized
  /// neighbors between sweeps, and its full neighborhood until the first
  /// finalize wave.  Read-only: legal in any pass once no sweep of e runs.
  std::span<const EdgeId> live_row(EdgeId e) const {
    return {nbrs_.data() + offsets_[static_cast<std::size_t>(e)],
            static_cast<std::size_t>(live_count_[static_cast<std::size_t>(e)])};
  }

  /// Number of neighbors of e still unfinalized as of the last sweep (an
  /// upper bound between sweeps).
  int live_degree_bound(EdgeId e) const { return static_cast<int>(live_row(e).size()); }

  /// Colors deferred for e by non-consuming sweeps, not yet drained (test
  /// hook).
  const std::vector<Color>& pending(EdgeId e) const {
    return pending_[static_cast<std::size_t>(e)];
  }

  // Telemetry — deterministic for a given instance and identical for any
  // shard count (the pass structure, rows and final states are).
  std::int64_t flushes() const { return flushes_; }
  std::int64_t deltas_flushed() const { return deltas_flushed_; }

  /// Every finalized edge noted so far, flushed or still queued (a solve
  /// that ends on a base case leaves its last batch queued — nothing is
  /// left that would drain it).  Coordinating thread only.
  std::int64_t deltas_noted() const {
    std::int64_t queued = 0;
    for (int lane = 0; lane < queues_.num_lanes(); ++lane) {
      queued += static_cast<std::int64_t>(queues_.lane(lane).size());
    }
    return deltas_flushed_ + queued;
  }

  /// Total (edge, finalized neighbor) pairs handled incrementally: each
  /// pair is dropped from a live row exactly once — either removed directly
  /// by a consume or deferred through pending.  Coordinating thread only.
  std::int64_t colors_removed() const {
    std::int64_t total = 0;
    for (int lane = 0; lane < drops_.num_lanes(); ++lane) total += drops_.lane(lane);
    return total;
  }

 private:
  // The walk behind consume() and consume_and_count(): returns the number
  // of live entries of e's row (after the sweep) that count(f) accepts.
  template <typename Count>
  int sweep(int lane, EdgeId e, ListStore& lists, Count&& count) {
    auto& pending = pending_[static_cast<std::size_t>(e)];
    if (!pending.empty()) {
      for (const Color c : pending) lists.remove(e, c);
      pending.clear();
    }
    const std::size_t begin = offsets_[static_cast<std::size_t>(e)];
    const std::size_t end =
        begin + static_cast<std::size_t>(live_count_[static_cast<std::size_t>(e)]);
    int counted = 0;
    if (row_epoch_[static_cast<std::size_t>(e)] == epoch_) {
      for (std::size_t r = begin; r < end; ++r) counted += count(nbrs_[r]);
      return counted;
    }
    const Color* final = final_->data();
    std::size_t w = begin;
    lists.remove_each(e, [&](auto&& remove) {
      for (std::size_t r = begin; r < end; ++r) {
        const EdgeId f = nbrs_[r];
        const Color cf = final[static_cast<std::size_t>(f)];
        const int live = cf == kUncolored ? 1 : 0;
        nbrs_[w] = f;
        w += static_cast<std::size_t>(live);
        counted += live & count(f);
        remove(cf);
      }
    });
    live_count_[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(w - begin);
    row_epoch_[static_cast<std::size_t>(e)] = epoch_;
    drops_.lane(lane) += static_cast<std::int64_t>(end - w);
    return counted;
  }

  const EdgeColoring* final_;
  int num_edges_;

  LaneScratch<std::vector<EdgeId>> queues_;
  std::vector<EdgeId> delta_buf_;  ///< drained batch, reused across flushes

  std::vector<std::vector<Color>> pending_;  ///< deferred, undrained colors

  // Flat-CSR live rows (adopted from the line graph): edge e's live
  // neighbors are nbrs_[offsets_[e] .. offsets_[e] + live_count_[e]).
  MappedVector<std::size_t> offsets_;
  MappedVector<EdgeId> nbrs_;
  std::vector<std::int32_t> live_count_;

  // Finalize-wave epoch (bumped by flush() when a round's log is non-empty)
  // and each row's last-swept epoch: equal means the row provably holds no
  // finalized entries, so sweeps take the check-free fast path.
  std::uint64_t epoch_ = 1;
  std::vector<std::uint64_t> row_epoch_;

  LaneScratch<std::int64_t> drops_;  ///< per-lane dropped-pair counters

  std::int64_t flushes_ = 0;
  std::int64_t deltas_flushed_ = 0;
};

}  // namespace qplec
