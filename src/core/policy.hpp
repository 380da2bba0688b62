// Parameter policies for the Balliu–Kuhn–Olivetti solver.
//
// The paper's asymptotic parameter choices (Theorem 4.1) are
//     beta = alpha * log^{4c} Delta-bar      (Lemma 4.2 slack target)
//     p    = sqrt(Delta-bar)                 (Lemma 4.3/4.5 split factor)
// with "a large enough constant alpha".  These only bite for astronomically
// large Delta (src/core/recurrence.hpp evaluates the bounds with explicit
// constants): one color-space reduction step consumes a slack factor of
// 24*H_{2p}*log2(p) >= 50, so beta below 50 can never afford a reduction step
// at all.  The policy object makes the choices explicit:
//
//   * Policy::practical()  — beta fixed at 50 (the smallest value that
//     enables space reduction with p = 2), p chosen as the largest value the
//     available slack can pay for.  Every code path of the paper is
//     exercised at simulatable Delta.
//   * Policy::paper(alpha, c) — the exact formulas, for validation runs on
//     small graphs and for the analytic recurrence evaluator.
//
// Both policies drive 100% identical algorithm code.
#pragma once

#include <string>

#include "src/coloring/palette.hpp"

namespace qplec {

struct Policy {
  std::string name = "practical";

  /// Subgraphs whose induced line-graph degree is at most this are solved by
  /// the O(d^2 + log* X) base case ("Delta-bar = O(1)" in the paper).
  int base_degree_threshold = 16;

  /// If > 0, beta is this constant; if 0, beta = alpha * (log2 dbar)^{4c}.
  int beta_fixed = 50;
  double beta_alpha = 1.0;
  int c_exponent = 1;

  /// Upper clamp on beta (keeps the paper formula simulatable).
  int beta_cap = 1 << 16;

  /// If true, prefer p = sqrt(dbar) (the theorem's choice), reduced to the
  /// largest slack-feasible value; if false, use the largest feasible p.
  bool paper_p = false;

  /// Hard recursion guard; the recursion provably terminates much earlier.
  int max_depth = 64;

  /// Lemma 4.2's beta for a subgraph of max line-graph degree dbar.
  int beta(int dbar) const;

  /// Slack factor consumed by one space-reduction step with parameter p
  /// (Lemma 4.3: 24 * H_{2p} * log2 p).
  static double space_cost(int p);

  /// Largest p in [2, min(palette, dbar-cap)] whose cost fits within `slack`
  /// (respecting paper_p); 0 if no p is affordable.
  int choose_p(double slack, Color palette_range, int dbar) const;

  static Policy practical();
  static Policy paper(double alpha = 1.0, int c = 1);
};

}  // namespace qplec
