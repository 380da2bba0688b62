#include "src/coloring/greedy.hpp"

#include <algorithm>

#include "src/coloring/linial.hpp"
#include "src/coloring/validate.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

namespace {

// The lists a sweep over `view` reads: each active item's first deg(i) + 1
// colors.  An item has at most deg(i) colored neighbors, so its pick — the
// smallest color no neighbor holds — always lies in that prefix, and the
// feasibility check |L_i| >= deg(i) + 1 reads the same either way.  A list
// far longer than its degree (a slack instance) thus costs its degree.
ListStore pick_lists(const ConflictView& view, const std::vector<ColorList>& lists) {
  return ListStore::from_spans(view.num_items(), view.items(), [&](int i) {
    const std::vector<Color>& colors = lists[static_cast<std::size_t>(i)].colors();
    const std::size_t keep = static_cast<std::size_t>(view.degree(i)) + 1;
    return std::span<const Color>(colors).first(std::min(colors.size(), keep));
  });
}

}  // namespace

void greedy_by_classes(const ConflictView& view, const ListStore& lists,
                       const std::vector<std::uint64_t>& phi, std::uint64_t palette,
                       std::vector<Color>& out, RoundLedger& ledger, const ExecBackend* exec,
                       const SolveControl* control, ValidationGate* gate, int batch_quantum) {
  const trace::Span span("greedy-sweep", "engine");
  const ExecBackend& ex = exec != nullptr ? *exec : serial_backend();
  QPLEC_REQUIRE(out.size() == static_cast<std::size_t>(view.num_items()));
  QPLEC_REQUIRE(lists.num_items() == view.num_items());
  // Gate draws happen here on the coordinating thread — never inside a
  // backend pass — so for a fixed tier the same checks run regardless of
  // the lane layout.
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT_MSG(is_proper_on_conflict(view, phi, ex),
                     "greedy sweep needs a proper phi");
  }
  const bool check_feasibility = gate == nullptr || gate->due();

  // Bucket active slots by class; iterate classes in increasing order.  Only
  // non-empty classes cost simulation work; the LOCAL round cost of the sweep
  // is the full palette (the synchronous schedule has one slot per class) and
  // is charged as such.  Slots ascend with item ids, so the sort orders each
  // class by id for any lane layout.
  const int n = view.num_active();
  std::vector<std::pair<std::uint64_t, int>> by_class(static_cast<std::size_t>(n));
  ex.for_indices(n, [&](int, int s) {
    const int i = view.item(s);
    if (check_feasibility) {
      QPLEC_REQUIRE_MSG(lists.size(i) >= view.degree(i) + 1,
                        "greedy feasibility violated at item "
                            << i << ": list " << lists.size(i)
                            << " < deg+1 = " << view.degree(i) + 1);
    }
    QPLEC_REQUIRE_MSG(out[static_cast<std::size_t>(i)] == kUncolored,
                      "greedy sweep requires active items uncolored at entry (item " << i
                                                                                    << ")");
    QPLEC_REQUIRE(phi[static_cast<std::size_t>(i)] < palette);
    by_class[static_cast<std::size_t>(s)] = {phi[static_cast<std::size_t>(i)], s};
  });
  std::sort(by_class.begin(), by_class.end());
  ledger.charge(static_cast<std::int64_t>(palette), "greedy-sweep");

  // Pull at pick time: every item of a region gathers the colors its
  // already-colored conflict neighbors hold.  The items of one region are
  // pairwise independent, so no neighbor is written while it is read, and
  // the active items entered uncolored, so the colored neighbors are exactly
  // the ones earlier regions colored — the per-class schedule's forbidden
  // sets.  An uncolored neighbor reads kUncolored, which the pick ignores.
  LaneScratch<ListStore::PickScratch> scratch(ex.lanes());
  std::vector<std::uint8_t> in_batch(static_cast<std::size_t>(n), 0);  // indexed by slot

  // Small-class batching: consecutive classes whose combined size stays
  // below one fan-out quantum run as ONE parallel region when no item of a
  // joining class conflicts with an item already in the batch.  The result
  // is exactly the per-class schedule's — with one round barrier instead of
  // one per tiny class.  The ledger still charges the synchronous schedule
  // (one slot per palette class); batching is simulation speed, not a
  // round-complexity claim.
  std::vector<int> batch;  // slots of the current region
  std::size_t pos = 0;
  while (pos < by_class.size()) {
    // Between class rounds (the previous region has fully landed): the one
    // spot where a long O(d^2)-round sweep can be cancelled mid-flight.
    solve_checkpoint(control,
                     [&] { return RoundProgress{ledger.total(), ledger.raw_total()}; });
    batch.clear();
    auto class_end = [&](std::size_t from) {
      std::size_t end = from;
      const std::uint64_t cls = by_class[from].first;
      while (end < by_class.size() && by_class[end].first == cls) ++end;
      return end;
    };
    auto take = [&](std::size_t from, std::size_t to) {
      for (std::size_t t = from; t < to; ++t) {
        batch.push_back(by_class[t].second);
        in_batch[static_cast<std::size_t>(by_class[t].second)] = 1;
      }
    };
    // The first class joins unconditionally (it must run either way, even if
    // it alone exceeds the quantum).
    std::size_t end = class_end(pos);
    take(pos, end);
    pos = end;
    // Greedily append whole classes while the quantum holds and the joining
    // class is independent of everything already batched (a conflicting pair
    // inside one region would miss the earlier item's color).
    while (pos < by_class.size() && static_cast<int>(batch.size()) < batch_quantum) {
      end = class_end(pos);
      if (batch.size() + (end - pos) > static_cast<std::size_t>(std::max(batch_quantum, 1))) {
        break;
      }
      bool independent = true;
      for (std::size_t t = pos; t < end && independent; ++t) {
        for (const int f : view.row(by_class[t].second)) {
          if (in_batch[static_cast<std::size_t>(f)]) independent = false;
        }
      }
      if (!independent) break;
      take(pos, end);
      pos = end;
    }
    ex.for_indices(static_cast<int>(batch.size()), [&](int lane, int t) {
      const int s = batch[static_cast<std::size_t>(t)];
      const int i = view.item(s);
      const Color c = lists.first_free(i, scratch.lane(lane), [&](auto&& forbid) {
        for (const int f : view.row(s)) forbid(out[static_cast<std::size_t>(view.item(f))]);
      });
      QPLEC_ASSERT_MSG(c != kUncolored, "greedy sweep ran out of colors at item " << i);
      out[static_cast<std::size_t>(i)] = c;
    });
    for (const int s : batch) in_batch[static_cast<std::size_t>(s)] = 0;
  }
}

void greedy_by_classes(const ConflictView& view, const std::vector<ColorList>& lists,
                       const std::vector<std::uint64_t>& phi, std::uint64_t palette,
                       std::vector<Color>& out, RoundLedger& ledger, const ExecBackend* exec,
                       const SolveControl* control, ValidationGate* gate, int batch_quantum) {
  QPLEC_REQUIRE(lists.size() == static_cast<std::size_t>(view.num_items()));
  greedy_by_classes(view, pick_lists(view, lists), phi, palette, out, ledger, exec, control,
                    gate, batch_quantum);
}

ConflictSolveResult solve_conflict_list(const ConflictView& view, const ListStore& lists,
                                        const std::vector<std::uint64_t>& phi0,
                                        std::uint64_t palette0, int degree_bound,
                                        std::vector<Color>& out, RoundLedger& ledger,
                                        const ExecBackend* exec, const SolveControl* control,
                                        ValidationGate* gate, int batch_quantum) {
  ConflictSolveResult res;
  LinialResult lin = linial_reduce(view, phi0, palette0, degree_bound, ledger, exec, gate);
  res.linial_rounds = lin.rounds;
  res.sweep_palette = lin.palette;
  greedy_by_classes(view, lists, lin.colors, lin.palette, out, ledger, exec, control, gate,
                    batch_quantum);
  return res;
}

ConflictSolveResult solve_conflict_list(const ConflictView& view,
                                        const std::vector<ColorList>& lists,
                                        const std::vector<std::uint64_t>& phi0,
                                        std::uint64_t palette0, int degree_bound,
                                        std::vector<Color>& out, RoundLedger& ledger,
                                        const ExecBackend* exec, const SolveControl* control,
                                        ValidationGate* gate, int batch_quantum) {
  QPLEC_REQUIRE(lists.size() == static_cast<std::size_t>(view.num_items()));
  return solve_conflict_list(view, pick_lists(view, lists), phi0, palette0, degree_bound, out,
                             ledger, exec, control, gate, batch_quantum);
}

EdgeColoring greedy_centralized(const ListEdgeColoringInstance& instance) {
  const Graph& g = instance.graph;
  EdgeColoring colors(static_cast<std::size_t>(g.num_edges()), kUncolored);
  std::vector<Color> forbidden;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    forbidden.clear();
    g.for_each_edge_neighbor(e, [&](EdgeId f) {
      if (colors[static_cast<std::size_t>(f)] != kUncolored) {
        forbidden.push_back(colors[static_cast<std::size_t>(f)]);
      }
    });
    std::sort(forbidden.begin(), forbidden.end());
    const Color c = instance.lists[static_cast<std::size_t>(e)].min_excluding(forbidden);
    QPLEC_ASSERT_MSG(c != kUncolored, "centralized greedy stuck at edge "
                                          << e << " — instance is not (deg+1)-feasible");
    colors[static_cast<std::size_t>(e)] = c;
  }
  return colors;
}

}  // namespace qplec
