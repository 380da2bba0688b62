// Incremental recolor under edge churn — the neighborhood-local repair
// engine behind SolveService::update.
//
// The LOCAL-model premise of the whole repo makes churn repair cheap: an
// inserted or removed edge can only disturb colors within its incident
// line-graph neighborhood (Barenboim–Elkin's bounded-neighborhood-
// independence view of edge conflicts), so a batch of k edge ops needs new
// colors only on the edges the batch actually introduced.  Removals never
// create a conflict (constraints only disappear), and an inserted edge does
// not change any existing color — so the repair region is exactly the
// inserted edges, and every other edge keeps its pre-churn color.  That is
// the module's explicit bounded-drift invariant:
//
//   * the repaired coloring is a proper, list-valid coloring of the mutated
//     instance;
//   * every edge outside the repair region keeps its pre-churn color
//     verbatim (carried across the rebuild by endpoint pair);
//   * when the region payload exceeds ExecConfig::recolor_budget the repair
//     falls back to a full Solver::solve of the mutated instance and the
//     result is bit-identical to a from-scratch solve.
//
// The repair itself is the repo's base-case machinery, unchanged: the region
// is a LineGraphConflict subset, effective lists are the mutated lists minus
// the colors of finalized (carried) neighbors — one neighborhood walk per
// region edge, so the gather scales with the region payload — and
// solve_conflict_list Linial-reduces an id coloring and sweeps.  Every stage
// routes through ExecBackend, so the repaired colors are bit-identical
// across shard counts and validation tiers, exactly like a full solve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/coloring/problem.hpp"
#include "src/common/control.hpp"
#include "src/common/exec_config.hpp"
#include "src/core/policy.hpp"
#include "src/core/solver.hpp"

namespace qplec {

/// One edge mutation: insert {u, v} (must be absent) or remove it (must be
/// present).  Endpoints are unordered; self-loops are invalid.
struct EdgeDelta {
  bool insert = true;
  NodeId u = 0;
  NodeId v = 0;
};

/// The deterministic derivation step of an update: the mutated instance plus
/// everything the repair needs, computed once.  plan_recolor is a pure
/// function of (base instance, base colors, ops) — a from-scratch solve of
/// `mutated` is therefore well-defined and comparable.
struct RecolorPlan {
  ListEdgeColoringInstance mutated;  ///< rebuilt graph (base local ids carried),
                                     ///< lists carried / padded / freshly assigned
  EdgeColoring carried;   ///< pre-churn colors by mutated edge id; kUncolored on region
  std::vector<EdgeId> region;     ///< mutated edge ids needing a color (the inserts)
  std::int64_t region_payload = 0;  ///< sum of line-graph degrees over the region
  int inserts = 0;
  int removes = 0;
};

/// Checks a churn batch against the base graph without building anything.
/// Throws std::invalid_argument on the first inconsistent op: endpoint out of
/// range, self-loop, inserting an existing edge, removing a missing one, or
/// the same endpoint pair appearing twice in one batch.  plan_recolor runs
/// this itself; the service layer calls it up front so a bad batch is
/// rejected at submit time, before a job is enqueued.
void validate_deltas(const Graph& base, const std::vector<EdgeDelta>& ops);

/// Derives the mutated instance and repair plan.  Throws std::invalid_argument
/// on an inconsistent batch: endpoint out of range, self-loop, inserting an
/// existing edge, removing a missing one, or the same endpoint pair appearing
/// twice in one batch.
///
/// List derivation rule (deterministic, documented in docs/SERVICE.md):
/// surviving edges keep their base list, padded with the smallest absent
/// palette colors when an endpoint's degree growth leaves |L| < deg(e)+1;
/// inserted edges get the full palette [0, C'); the mutated palette C' is
/// max(base C, new max edge degree + 1).
RecolorPlan plan_recolor(const ListEdgeColoringInstance& base, const EdgeColoring& base_colors,
                         const std::vector<EdgeDelta>& ops);

/// What repair_recolor produced.  On the repair path `result` carries the
/// repaired colors and the repair's own ledger totals/report; on the
/// fallback path it is verbatim the full solve's SolveResult.
struct RecolorOutcome {
  SolveResult result;
  bool fallback = false;    ///< region payload blew the budget: full re-solve ran
  int region_edges = 0;     ///< edges recolored by the local repair (0 on fallback)
};

/// Repairs (or falls back and re-solves) the planned mutation.  The output
/// coloring is validated against the mutated instance before returning —
/// same always-on final check as Solver::run.  `control` is polled between
/// repair rounds (cancellation / deadline unwind with SolveInterrupted,
/// exactly like a full solve).
RecolorOutcome repair_recolor(const RecolorPlan& plan, const Policy& policy,
                              const ExecConfig& config, const SolveControl* control = nullptr);

}  // namespace qplec
