#include "src/coloring/linial.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "src/common/assert.hpp"
#include "src/common/field.hpp"
#include "src/common/math.hpp"
#include "src/coloring/validate.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

namespace {

/// Per-reduce memo of everything linial_reduce's iterations recompute
/// identically: the active set, each active item's row slot, and its
/// neighbor row.  The up-to-64 steps of one reduce run over a FIXED active
/// set in a fixed enumeration order, so the for_each_neighbor walks — a
/// std::function-indirected scan over the FULL incident lists, filtering by
/// subset membership — are paid once here and replayed as flat CSR rows of
/// neighbor slots by every step.
struct LinialMemo {
  std::vector<int> slot;              ///< item -> row slot (-1 inactive)
  std::vector<std::int64_t> offsets;  ///< item -> row bounds in nbr_slots
  std::vector<int> nbr_slots;         ///< neighbor slots, enumeration order
  int slots = 0;                      ///< number of active items
};

LinialMemo build_linial_memo(const ConflictView& view, const ExecBackend& ex) {
  const trace::Span span("linial-memo", "engine");
  LinialMemo memo;
  const int n = view.num_items();
  memo.slot.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (view.active(i)) memo.slot[static_cast<std::size_t>(i)] = memo.slots++;
  }
  // Degree pass, serial prefix sum, fill pass: each item writes only its own
  // count/row, so the rows are identical for any backend and lane count.
  memo.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  ex.for_indices(n, [&](int, int i) {
    if (memo.slot[static_cast<std::size_t>(i)] < 0) return;
    std::int64_t d = 0;
    view.for_each_neighbor(i, [&](int) { ++d; });
    memo.offsets[static_cast<std::size_t>(i) + 1] = d;
  });
  for (int i = 0; i < n; ++i) {
    memo.offsets[static_cast<std::size_t>(i) + 1] += memo.offsets[static_cast<std::size_t>(i)];
  }
  memo.nbr_slots.resize(static_cast<std::size_t>(memo.offsets[static_cast<std::size_t>(n)]));
  ex.for_indices(n, [&](int, int i) {
    if (memo.slot[static_cast<std::size_t>(i)] < 0) return;
    std::int64_t pos = memo.offsets[static_cast<std::size_t>(i)];
    view.for_each_neighbor(i, [&](int f) {
      memo.nbr_slots[static_cast<std::size_t>(pos++)] = memo.slot[static_cast<std::size_t>(f)];
    });
  });
  return memo;
}

/// One reduction step over the memo's rows.  No per-item allocation and no
/// division in the scan: each active item's color becomes k+1 base-q digits
/// in one flat row table, each candidate point's powers are computed once
/// per item, and every evaluation is a dot product plus one reciprocal
/// reduction (FlatPolyEval).
std::vector<std::uint64_t> linial_step_impl(const std::vector<std::uint64_t>& colors,
                                            LinialParams params, const ExecBackend& ex,
                                            const LinialMemo& memo) {
  const FlatPolyEval field(params.q, params.k);
  const std::uint32_t q = field.q();
  const auto width = static_cast<std::size_t>(field.width());
  const int n = static_cast<int>(memo.slot.size());

  // Item-owned digit pass: slot s's row is digits[s*width, (s+1)*width);
  // slot_color keeps the colors dense for the per-neighbor input check.
  std::vector<std::uint32_t> digits(static_cast<std::size_t>(memo.slots) * width);
  std::vector<std::uint64_t> slot_color(static_cast<std::size_t>(memo.slots));
  ex.for_indices(n, [&](int, int i) {
    const int s = memo.slot[static_cast<std::size_t>(i)];
    if (s < 0) return;
    const std::uint64_t c = colors[static_cast<std::size_t>(i)];
    slot_color[static_cast<std::size_t>(s)] = c;
    field.digits(c, &digits[static_cast<std::size_t>(s) * width]);
  });

  // Inactive items keep their previous colors untouched.  Each active item
  // reads the committed previous-round digit rows of its neighbors and
  // writes only next[i], so the scan fans out over the backend's lanes.
  std::vector<std::uint64_t> next = colors;
  ex.for_indices(n, [&](int, int i) {
    const int s = memo.slot[static_cast<std::size_t>(i)];
    if (s < 0) return;
    const std::uint64_t c = slot_color[static_cast<std::size_t>(s)];
    const int* const nbr = memo.nbr_slots.data() + memo.offsets[static_cast<std::size_t>(i)];
    const int deg = static_cast<int>(memo.offsets[static_cast<std::size_t>(i) + 1] -
                                     memo.offsets[static_cast<std::size_t>(i)]);
    for (int j = 0; j < deg; ++j) {
      QPLEC_ASSERT_MSG(slot_color[static_cast<std::size_t>(nbr[j])] != c,
                       "linial_step requires a proper input coloring");
    }
    const std::uint32_t* const mine = &digits[static_cast<std::size_t>(s) * width];
    // Scan evaluation points starting at a color-dependent offset, c mod q
    // (mine[0]; purely a simulation-speed heuristic — any good point is
    // correct).
    std::array<std::uint32_t, FlatPolyEval::kMaxWidth> power{};
    std::uint32_t a = mine[0];
    bool found = false;
    for (std::uint32_t t = 0; t < q; ++t, a = a + 1 == q ? 0 : a + 1) {
      field.powers(a, power.data());
      const std::uint32_t mv = field.eval(mine, power.data());
      bool good = true;
      for (int j = 0; j < deg; ++j) {
        if (field.eval(&digits[static_cast<std::size_t>(nbr[j]) * width], power.data()) == mv) {
          good = false;
          break;
        }
      }
      if (good) {
        next[static_cast<std::size_t>(i)] =
            static_cast<std::uint64_t>(a) * q + static_cast<std::uint64_t>(mv);
        found = true;
        break;
      }
    }
    QPLEC_ASSERT_MSG(found, "no good evaluation point — degree bound violated? (q=" << q
                                << ", k=" << params.k << ", deg=" << deg << ")");
  });
  return next;
}

}  // namespace

LinialParams choose_linial_params(std::uint64_t palette, int degree_bound) {
  QPLEC_REQUIRE(palette >= 1);
  QPLEC_REQUIRE(degree_bound >= 0);
  const int d = std::max(1, degree_bound);
  LinialParams best{0, 0};
  std::uint64_t best_out = palette;  // must strictly improve on the input
  for (int k = 1; k <= 63; ++k) {
    // Smallest q for this k: q^(k+1) >= palette and q >= d*k + 1.
    const std::uint64_t dk = static_cast<std::uint64_t>(d) * static_cast<std::uint64_t>(k) + 1;
    const std::uint64_t lo = std::max(dk, nth_root_ceil(palette, k + 1));
    const std::uint64_t q = next_prime(std::max<std::uint64_t>(2, lo));
    // The evaluator's limit (q < 2^31, (k+1)(q-1)^2 < 2^64); larger k will
    // shrink q.
    if (!FlatPolyEval::fits(q, k)) continue;
    const std::uint64_t out = q * q;
    if (out < best_out) {
      best_out = out;
      best = LinialParams{static_cast<std::uint32_t>(q), k};
    }
    // Once d*k+1 alone exceeds the best output's square root, no larger k
    // can help.
    if (dk * dk >= best_out) break;
  }
  return best;
}

std::vector<std::uint64_t> linial_step(const ConflictView& view,
                                       const std::vector<std::uint64_t>& colors,
                                       LinialParams params, const ExecBackend* exec) {
  const ExecBackend& ex = exec != nullptr ? *exec : serial_backend();
  QPLEC_REQUIRE(colors.size() == static_cast<std::size_t>(view.num_items()));
  return linial_step_impl(colors, params, ex, build_linial_memo(view, ex));
}

LinialResult linial_reduce(const ConflictView& view, std::vector<std::uint64_t> colors,
                           std::uint64_t palette, int degree_bound, RoundLedger& ledger,
                           const ExecBackend* exec, ValidationGate* gate) {
  const ExecBackend& ex = exec != nullptr ? *exec : serial_backend();
  QPLEC_REQUIRE(colors.size() == static_cast<std::size_t>(view.num_items()));
  LinialResult out;
  out.colors = std::move(colors);
  out.palette = palette;
  // The reduction collapses super-exponentially; 64 iterations is far beyond
  // log* of anything representable.
  // The iterations share one memo (built lazily at the first step): the
  // active set never changes inside a reduce, so every step after the first
  // replays the flat neighbor rows instead of re-walking incident lists.
  std::optional<LinialMemo> memo;
  for (int iter = 0; iter < 64; ++iter) {
    const LinialParams params = choose_linial_params(out.palette, degree_bound);
    if (params.q == 0) break;  // fixpoint
    const std::uint64_t new_palette =
        static_cast<std::uint64_t>(params.q) * static_cast<std::uint64_t>(params.q);
    if (!memo) memo = build_linial_memo(view, ex);
    {
      const trace::Span span("linial-step", "engine");
      out.colors = linial_step_impl(out.colors, params, ex, *memo);
    }
    out.palette = new_palette;
    ++out.rounds;
    ledger.charge(1, "linial");
  }
  // Demoted exit walk: each linial_step already asserts proper inputs
  // neighbor-by-neighbor inside the pass, so the standalone re-walk of the
  // final coloring is tierable.
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT(is_proper_on_conflict(view, out.colors, ex));
  }
  return out;
}

}  // namespace qplec
