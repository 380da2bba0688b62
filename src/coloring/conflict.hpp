// ConflictView — the one adjacency every coloring subproblem reads.
//
// Each subroutine of the paper colors "items" subject to pairwise conflicts:
//   * the main problem colors edges conflicting when they share a node
//     (the line graph, restricted to the currently relevant edge subset);
//   * the defective-coloring step 3-colors edges conflicting when they have
//     the same temporary color and share a group (a disjoint union of paths
//     and cycles);
//   * the color-space reduction (Lemma 4.3) assigns subspaces to edges
//     conflicting when they belong to the same node group of a phase.
// All of these are list coloring problems on sparse conflict graphs whose
// conflicting pairs are within O(1) hops of each other in the communication
// graph, so one conflict-graph round costs O(1) LOCAL rounds.  Linial color
// reduction, greedy-by-class, the validators and the engine's
// NeighborColorCache all read the same rows, built once per view.
//
// Layout: the active items get dense SLOTS in increasing item order; a flat
// CSR holds each slot's neighbor slots (neighbor-slot rows, in the
// enumeration order documented at each constructor), so a walk is a span
// scan and a degree is one subtraction.  LineGraphConflict and
// ExplicitConflict are the two ways to build one; they add no state, so a
// built view may be passed or moved as a plain ConflictView.
//
// Thread-safety contract: a view is immutable after construction, so every
// accessor may be called concurrently from the workers of an ExecBackend —
// the property the backend-routed primitives (src/coloring/{linial,greedy,
// defective}) rely on.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/mapped_allocator.hpp"
#include "src/dist/backend.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"

namespace qplec {

class NeighborColorCache;

class ConflictView {
 public:
  /// Size of the dense item universe; items are ints in [0, num_items()).
  int num_items() const { return static_cast<int>(slot_.size()); }

  /// Number of active items (== number of slots).
  int num_active() const { return static_cast<int>(item_.size()); }

  /// Whether the item participates in this subproblem.
  bool active(int item) const { return slot(item) >= 0; }

  /// The item's slot, or -1 if it is inactive.  Slots ascend with item ids.
  int slot(int item) const {
    QPLEC_REQUIRE(item >= 0 && item < num_items());
    return slot_[static_cast<std::size_t>(item)];
  }

  /// The item occupying a slot.
  int item(int slot) const { return item_[static_cast<std::size_t>(slot)]; }

  /// The active items, in slot order (ascending ids).
  std::span<const int> items() const { return item_; }

  /// The neighbor slots of a slot, in enumeration order.
  std::span<const int> row(int slot) const {
    const std::size_t begin = offsets_[static_cast<std::size_t>(slot)];
    return {nbrs_.data() + begin, offsets_[static_cast<std::size_t>(slot) + 1] - begin};
  }

  /// Conflict degree of an active item.
  int degree(int item) const { return static_cast<int>(row(active_slot(item)).size()); }

  /// Applies fn(int neighbor_item) to every conflicting active item of an
  /// active item, in enumeration order.
  template <typename Fn>
  void for_each_neighbor(int item, Fn&& fn) const {
    for (const int s : row(active_slot(item))) fn(item_[static_cast<std::size_t>(s)]);
  }

  /// Maximum conflict degree over active items (0 if none).
  int max_degree() const;

 protected:
  ConflictView() = default;

  int active_slot(int item) const {
    const int s = slot(item);
    QPLEC_REQUIRE_MSG(s >= 0, "item " << item << " is not active");
    return s;
  }

  std::vector<int> slot_;              ///< item -> slot (-1 inactive)
  std::vector<int> item_;              ///< slot -> item
  MappedVector<std::size_t> offsets_;  ///< slot -> row bounds in nbrs_
  MappedVector<int> nbrs_;             ///< neighbor slots, row after row

 private:
  // The engine's cache adopts a full line graph's rows instead of refilling
  // them (slots are edge ids when every edge is active).
  friend class NeighborColorCache;
};

/// The line graph of g restricted to an edge subset: items are edge ids,
/// conflicts are shared endpoints within the subset.  A row lists the
/// subset's edges at the smaller endpoint, then at the larger one, each in
/// incidence order (Graph::for_each_edge_neighbor's order).  The row passes
/// run on `exec` (null = serial) and write only their own slot's row, so the
/// view is identical for any backend and lane count.
class LineGraphConflict final : public ConflictView {
 public:
  LineGraphConflict(const Graph& g, const EdgeSubset& subset,
                    const ExecBackend* exec = nullptr);
};

/// An explicitly listed sparse conflict graph over a dense item universe
/// (the defective split's path/cycle systems).  Only the listed active items get
/// slots; a row lists its neighbors in increasing item order.
class ExplicitConflict final : public ConflictView {
 public:
  /// active_items: the participating items; conflicts: symmetric pairs
  /// between active items (duplicates allowed, deduplicated here).
  ExplicitConflict(int universe, const std::vector<int>& active_items,
                   const std::vector<std::pair<int, int>>& conflicts);
};

/// ConflictView::max_degree computed through an execution backend: the slot
/// scan fans out over the backend's lanes and folds with a per-lane max
/// (order-invariant, so the result is bit-identical for any lane layout).
/// Null exec runs on the process-wide serial backend.
int max_conflict_degree(const ConflictView& view, const ExecBackend* exec);

}  // namespace qplec
