#include "src/coloring/linial.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "src/common/assert.hpp"
#include "src/common/field.hpp"
#include "src/common/math.hpp"
#include "src/coloring/validate.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

namespace {

/// Slot-indexed state a reduction keeps across its steps: the active items'
/// colors (slot s holds item(s)'s), the step's output colors, and the digit
/// table of the step's input, one row of the step's width per slot.  Nothing
/// here is universe-sized, so a reduction over a small view of a large
/// universe pays for the view only.
struct StepScratch {
  std::vector<std::uint64_t> color;
  std::vector<std::uint64_t> next;
  std::vector<std::uint16_t> digits16;  ///< rows when q < 2^16
  std::vector<std::uint32_t> digits32;  ///< rows otherwise
};

StepScratch gather_slots(const ConflictView& view, const std::vector<std::uint64_t>& colors,
                         const ExecBackend& ex) {
  StepScratch scratch;
  scratch.color.resize(static_cast<std::size_t>(view.num_active()));
  scratch.next.resize(scratch.color.size());
  ex.for_indices(view.num_active(), [&](int, int s) {
    scratch.color[static_cast<std::size_t>(s)] = colors[static_cast<std::size_t>(view.item(s))];
  });
  return scratch;
}

void scatter_slots(const ConflictView& view, const StepScratch& scratch,
                   std::vector<std::uint64_t>& colors) {
  for (int s = 0; s < view.num_active(); ++s) {
    colors[static_cast<std::size_t>(view.item(s))] = scratch.color[static_cast<std::size_t>(s)];
  }
}

/// One reduction step over the view's rows, with digit rows of type Digit
/// and width W (W == 0: field.width(), read at run time).  No allocation
/// once the scratch is grown and no division in the scan: each slot's color
/// becomes one digit row, each candidate point's powers are computed once
/// per item, and every evaluation is a dot product plus one reciprocal
/// reduction (FlatPolyEval).
///
/// The proper-input check sits on the collision path: a neighbor with the
/// item's own color has the item's own polynomial, so it collides at every
/// point, and the colors are compared only where values collide.  A point
/// where an earlier neighbor collides first never reaches that comparison,
/// so before the no-good-point assert one cold walk of the row looks for the
/// equal-colored neighbor; every improper input finds no good point, so it
/// raises the proper-input error on exactly the inputs a pre-scan walk would.
template <typename Digit, int W>
void step_kernel(const ConflictView& view, const FlatPolyEval& field, StepScratch& scratch,
                 std::vector<Digit>& digits, const ExecBackend& ex) {
  const std::uint32_t q = field.q();
  const auto width = static_cast<std::size_t>(W > 0 ? W : field.width());
  const int n = view.num_active();
  // Exactly n rows, so a container-checked build catches any row offset past
  // the table even when an earlier, wider step left capacity behind it.
  digits.resize(static_cast<std::size_t>(n) * width);
  const std::vector<std::uint64_t>& color = scratch.color;
  std::vector<std::uint64_t>& next = scratch.next;
  ex.for_indices(n, [&](int, int s) {
    const auto slot = static_cast<std::size_t>(s);
    field.digits(color[slot], &digits[slot * width]);
  });

  // Each slot reads the committed digit rows of its neighbors and writes
  // only next[s], so the scan fans out over the backend's lanes.
  ex.for_indices(n, [&](int, int s) {
    const auto slot = static_cast<std::size_t>(s);
    const std::uint64_t c = color[slot];
    const std::span<const int> nbr = view.row(s);
    const Digit* const mine = &digits[slot * width];
    // Scan evaluation points starting at a color-dependent offset, c mod q
    // (mine[0]; purely a simulation-speed heuristic — any good point is
    // correct).
    std::array<std::uint32_t, (W > 0 ? W : FlatPolyEval::kMaxWidth)> power{};
    std::uint32_t a = mine[0];
    for (std::uint32_t t = 0; t < q; ++t, a = a + 1 == q ? 0 : a + 1) {
      field.powers<W>(a, power.data());
      const std::uint32_t mv = field.eval<W>(mine, power.data());
      bool good = true;
      for (const int f : nbr) {
        const auto other = static_cast<std::size_t>(f);
        if (field.eval<W>(&digits[other * width], power.data()) == mv) {
          QPLEC_ASSERT_MSG(color[other] != c, "linial_step requires a proper input coloring");
          good = false;
          break;
        }
      }
      if (good) {
        next[slot] = static_cast<std::uint64_t>(a) * q + static_cast<std::uint64_t>(mv);
        return;
      }
    }
    for (const int f : nbr) {
      QPLEC_ASSERT_MSG(color[static_cast<std::size_t>(f)] != c,
                       "linial_step requires a proper input coloring");
    }
    QPLEC_ASSERT_MSG(false, "no good evaluation point — degree bound violated? (q="
                                << q << ", k=" << field.k() << ", deg=" << nbr.size() << ")");
  });
}

/// Runs step_kernel at the row width fixed at compile time when it is at
/// most W, and at the run-time width otherwise.
template <typename Digit, int W = 8>
void step_at_width(const ConflictView& view, const FlatPolyEval& field, StepScratch& scratch,
                   std::vector<Digit>& digits, const ExecBackend& ex) {
  if constexpr (W == 0) {
    step_kernel<Digit, 0>(view, field, scratch, digits, ex);
  } else if (field.width() == W) {
    step_kernel<Digit, W>(view, field, scratch, digits, ex);
  } else {
    step_at_width<Digit, W - 1>(view, field, scratch, digits, ex);
  }
}

/// One reduction step on the slot colors: scratch.color becomes the step's
/// output.
void linial_step_slots(const ConflictView& view, LinialParams params, StepScratch& scratch,
                       const ExecBackend& ex) {
  const FlatPolyEval field(params.q, params.k);
  if (field.q() < (1u << 16)) {
    step_at_width(view, field, scratch, scratch.digits16, ex);
  } else {
    step_at_width(view, field, scratch, scratch.digits32, ex);
  }
  scratch.color.swap(scratch.next);
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
  StepScratch scratch = gather_slots(view, colors, ex);
  linial_step_slots(view, params, scratch, ex);
  std::vector<std::uint64_t> next = colors;
  scatter_slots(view, scratch, next);
  return next;
}

LinialResult linial_reduce(const ConflictView& view, std::vector<std::uint64_t> colors,
                           std::uint64_t palette, int degree_bound, RoundLedger& ledger,
                           const ExecBackend* exec, ValidationGate* gate) {
  const ExecBackend& ex = exec != nullptr ? *exec : serial_backend();
  QPLEC_REQUIRE(colors.size() == static_cast<std::size_t>(view.num_items()));
  LinialResult out;
  out.colors = std::move(colors);
  out.palette = palette;
  // The steps run on slot-indexed colors; inactive items keep theirs.
  StepScratch scratch = gather_slots(view, out.colors, ex);
  // The reduction collapses super-exponentially; 64 iterations is far beyond
  // log* of anything representable.
  for (int iter = 0; iter < 64; ++iter) {
    const LinialParams params = choose_linial_params(out.palette, degree_bound);
    if (params.q == 0) break;  // fixpoint
    const std::uint64_t new_palette =
        static_cast<std::uint64_t>(params.q) * static_cast<std::uint64_t>(params.q);
    {
      const trace::Span span("linial-step", "engine");
      linial_step_slots(view, params, scratch, ex);
    }
    out.palette = new_palette;
    ++out.rounds;
    ledger.charge(1, "linial");
  }
  scatter_slots(view, scratch, out.colors);
  // Demoted exit walk: each step already rejects an improper input (an
  // equal-colored neighbor pair) inside the pass, so the standalone re-walk
  // of the final coloring is tierable.
  if (gate == nullptr || gate->due()) {
    QPLEC_ASSERT(is_proper_on_conflict(view, out.colors, ex));
  }
  return out;
}

}  // namespace qplec
