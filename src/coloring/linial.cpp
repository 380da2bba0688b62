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

/// One reduction step over the view's rows.  No per-item allocation and no
/// division in the scan: each active item's color becomes k+1 base-q digits
/// in one flat slot table, each candidate point's powers are computed once
/// per item, and every evaluation is a dot product plus one reciprocal
/// reduction (FlatPolyEval).
std::vector<std::uint64_t> linial_step_impl(const ConflictView& view,
                                            const std::vector<std::uint64_t>& colors,
                                            LinialParams params, const ExecBackend& ex) {
  const FlatPolyEval field(params.q, params.k);
  const std::uint32_t q = field.q();
  const auto width = static_cast<std::size_t>(field.width());
  const int n = view.num_active();

  // Slot-owned digit pass: slot s's digits are digits[s*width, (s+1)*width);
  // slot_color keeps the colors dense for the per-neighbor input check.
  std::vector<std::uint32_t> digits(static_cast<std::size_t>(n) * width);
  std::vector<std::uint64_t> slot_color(static_cast<std::size_t>(n));
  ex.for_indices(n, [&](int, int s) {
    const std::uint64_t c = colors[static_cast<std::size_t>(view.item(s))];
    slot_color[static_cast<std::size_t>(s)] = c;
    field.digits(c, &digits[static_cast<std::size_t>(s) * width]);
  });

  // Inactive items keep their previous colors untouched.  Each active item
  // reads the committed previous-round digit rows of its neighbors and
  // writes only next[i], so the scan fans out over the backend's lanes.
  std::vector<std::uint64_t> next = colors;
  ex.for_indices(n, [&](int, int s) {
    const int i = view.item(s);
    const std::uint64_t c = slot_color[static_cast<std::size_t>(s)];
    const std::span<const int> nbr = view.row(s);
    const int deg = static_cast<int>(nbr.size());
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
  return linial_step_impl(view, colors, params, ex);
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
  for (int iter = 0; iter < 64; ++iter) {
    const LinialParams params = choose_linial_params(out.palette, degree_bound);
    if (params.q == 0) break;  // fixpoint
    const std::uint64_t new_palette =
        static_cast<std::uint64_t>(params.q) * static_cast<std::uint64_t>(params.q);
    {
      const trace::Span span("linial-step", "engine");
      out.colors = linial_step_impl(view, out.colors, params, ex);
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
