// Linial's one-round color reduction via polynomials over GF(q)
// (cover-free families), iterated to an O(d^2)-size palette.
//
// Given a proper m-coloring of a conflict graph with maximum degree d, one
// synchronous round produces a proper q^2-coloring: a color c is read as the
// degree-<=k polynomial p_c over GF(q) whose coefficients are c's base-q
// digits (distinct colors give distinct polynomials when q^(k+1) >= m).  An
// item with polynomial p picks a point a in GF(q) such that p(a) differs
// from p'(a) for every neighboring polynomial p'; since two distinct
// polynomials of degree <= k agree on at most k points, at most d*k points
// are bad, so q >= d*k + 1 guarantees a choice.  The new color is the pair
// (a, p(a)) < q^2.  Iterating is the classic O(log* m)-round reduction
// [Lin87]; the fixpoint palette is O(d^2) with a constant ~4: the last step
// has k = 2, so q is the first prime >= 2d + 1.  That is larger than the
// optimum of Linial's cover-free families, the price of building the family
// from polynomials.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/common/exec_config.hpp"
#include "src/dist/backend.hpp"
#include "src/local/ledger.hpp"

namespace qplec {

struct LinialParams {
  std::uint32_t q = 0;  ///< field size (prime)
  int k = 0;            ///< polynomial degree bound
};

/// Chooses (q, k) minimizing the output palette q^2 subject to
/// q^(k+1) >= palette and q >= degree_bound*k + 1.  Returns q == 0 when no
/// choice shrinks the palette (fixpoint reached).
LinialParams choose_linial_params(std::uint64_t palette, int degree_bound);

struct LinialResult {
  std::vector<std::uint64_t> colors;  ///< proper coloring, palette below
  std::uint64_t palette = 0;
  int rounds = 0;  ///< iterations executed (== LOCAL rounds charged)
};

/// Iterates the one-round reduction until the palette stops shrinking.
/// `colors` must be a proper coloring of the active items of `view` with
/// values in [0, palette); degree_bound must upper-bound the conflict degree
/// of every active item.  Charges one round per iteration to the ledger.
/// The per-item passes run on `exec` (null = the serial backend): every step
/// writes only its own item's slot and reads the previous round's committed
/// colors, so results are bit-identical for any backend and lane count.  The
/// steps keep their colors and digit rows in slot-indexed scratch (nothing
/// universe-sized) and write the active items' final colors into the result
/// in place.
/// `gate` (optional) tiers the final standalone properness walk.  The input
/// check of each step always runs, on the collision path: an item compares
/// its color with a neighbor's only where their values collide, and walks its
/// row once more before reporting that no point was good (an equal-colored
/// neighbor collides at every point), so every improper input throws
/// InvariantViolation "linial_step requires a proper input coloring".
LinialResult linial_reduce(const ConflictView& view, std::vector<std::uint64_t> colors,
                           std::uint64_t palette, int degree_bound, RoundLedger& ledger,
                           const ExecBackend* exec = nullptr,
                           ValidationGate* gate = nullptr);

/// One reduction step with explicit parameters (exposed for tests): returns
/// the full color vector, inactive items untouched.
std::vector<std::uint64_t> linial_step(const ConflictView& view,
                                       const std::vector<std::uint64_t>& colors,
                                       LinialParams params,
                                       const ExecBackend* exec = nullptr);

}  // namespace qplec
