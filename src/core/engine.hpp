// SolverEngine — the recursive machinery of Section 4.
//
// One engine instance owns one list-edge-coloring instance (a graph, working
// lists, a maintained proper "helper" coloring phi used to seed every
// O(log* X) primitive) and colors all of its edges via the paper's mutual
// recursion:
//
//   solve_no_slack  (Lemma 4.2)   T(dbar, 1, C):
//     defective split -> per class: mark active edges -> solve_relaxed with
//     slack beta (a class whose active edges the marking walk found
//     independent takes its trivial pick directly) -> recurse on the
//     uncolored half-degree subgraph.
//   solve_relaxed   (Lemma 4.5)   T(dbar, S, C):
//     color-space reduction (Lemma 4.3) into q parallel instances with
//     palette C/p, or base case / no-slack fallback when S cannot pay for a
//     reduction step.
//   assign_subspaces (Lemma 4.3/4.4):
//     levels, low-level argmax assignment, phased assignment on virtual
//     graphs (each phase a recursive (deg+1)-list instance with palette
//     q <= 2p, solved by a child SolverEngine — the paper's T(2p-1,1,2p)),
//     and the E(2) residual instance.
//
// Every lemma-level guarantee (defect bound, Lemma 4.4 witness, |Je| size,
// Equation (2), degree halving) is asserted at runtime; SolverStats records
// the measured extremes so benchmarks can report how tight the bounds are.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/coloring/list_store.hpp"
#include "src/coloring/palette.hpp"
#include "src/coloring/problem.hpp"
#include "src/common/control.hpp"
#include "src/common/exec_config.hpp"
#include "src/core/pass_timer.hpp"
#include "src/core/policy.hpp"
#include "src/dist/backend.hpp"
#include "src/dist/neighbor_cache.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/subset.hpp"
#include "src/local/ledger.hpp"

namespace qplec {

/// How the engine actually scheduled its round loop: supersteps,
/// validation-tier decisions and where the wall time between round barriers
/// went.  The counters are deterministic for a fixed ExecConfig (they follow
/// the serial control flow, not the lane layout); the *_ms splits are wall
/// time — real but non-deterministic, never part of a fingerprint.
struct RoundProfile {
  /// Round-head sweeps executed (refresh + degree measurement + due
  /// validation sharing one backend pass / one round barrier).
  std::int64_t supersteps = 0;
  /// Demoted invariant walks that ran / that the validation tier skipped.
  std::int64_t validation_walks_run = 0;
  std::int64_t validation_walks_skipped = 0;
  /// SolveControl polls (0 when no control is attached).
  std::int64_t checkpoints = 0;
  /// Round-head sweeps (the supersteps).
  double pass_ms = 0.0;
  /// Standalone demoted validation walks that ran (validation inside a
  /// superstep is in pass_ms).
  double validate_ms = 0.0;
  /// Progress-snapshot cost inside checkpoints — the ledger-total reads the
  /// incremental ledger made O(1)/O(depth).
  double ledger_ms = 0.0;
};

struct SolverStats {
  std::int64_t basecase_calls = 0;
  std::int64_t defective_calls = 0;
  std::int64_t space_reductions = 0;
  std::int64_t noslack_fallbacks = 0;
  std::int64_t virtual_instances = 0;
  std::int64_t e2_instances = 0;
  std::int64_t trivial_picks = 0;
  std::int64_t classes_total = 0;
  std::int64_t classes_nonempty = 0;
  std::int64_t phases_executed = 0;
  int max_depth = 0;
  /// Measured Lemma 4.3 Equation (2) tightness: max over edges of
  /// deg'(e) / (24*H_q*log2(p) * (|L'_e|/|L_e|) * deg(e)); must stay <= 1.
  double max_eq2_ratio = 0.0;
  /// Measured defect tightness: max of defect(e) / (deg(e)/(2*beta)).
  double max_defect_ratio = 0.0;

  // NeighborColorCache telemetry.  Deterministic for a given instance and
  // shard count-invariant: one delta per finalized edge, one removed pair
  // per (edge, finalized neighbor), summed over the engine and its children.
  std::int64_t cache_flushes = 0;
  std::int64_t cache_deltas = 0;
  std::int64_t cache_colors_removed = 0;

  // Wall time accumulated in the refresh/mark-active passes and in the
  // Lemma 4.3 restriction passes (engine + children).  NOT deterministic —
  // never compare across runs.
  double refresh_ms = 0.0;
  double restrict_ms = 0.0;

  /// Round-loop schedule profile (engine + children share one).
  RoundProfile profile;

  void merge_max(const SolverStats&) = delete;  // single object shared by reference
};

class SolverEngine {
 public:
  /// lists: the starting lists, copied once into the engine's ListStore
  /// (span `engine-lists`); palette: colors lie in [0, palette);
  /// phi/phi_palette: proper edge coloring of g seeding the primitives.
  /// exec: execution backend for the per-round edge steps AND the base-case
  /// primitive passes (Linial reduction, defective split, conflict solves —
  /// src/coloring routes through it); null = serial; the backend must shard
  /// this g.  Children created by the recursion run serial: their virtual
  /// graphs are orders of magnitude smaller.
  /// config: the round-loop knobs of the unified ExecConfig — the
  /// validation tier (cadence of the demoted invariant walks) and the greedy
  /// batch quantum.  Children inherit the config; every combination is
  /// bit-identical (the differential suite in tests/test_roundloop.cpp pins
  /// it).  The engine ignores the sharding fields — the caller already
  /// resolved them into `exec`.  The refresh / mark-active / Lemma 4.3
  /// restriction passes always go through the engine's NeighborColorCache.
  /// control: optional cancellation/deadline/progress hook, polled at the
  /// serial points between rounds only (children inherit the pointer); a
  /// cancelled solve unwinds with SolveInterrupted, a completed solve is
  /// bit-identical with or without a control attached.
  /// line_graph: the full line graph of g (LineGraphConflict over every
  /// edge), handed over by a caller that already built it; the cache adopts
  /// its rows.  Absent, the engine builds it on `exec`.
  SolverEngine(const Graph& g, const std::vector<ColorList>& lists, Color palette,
               std::vector<std::uint64_t> phi, std::uint64_t phi_palette,
               const Policy& policy, RoundLedger& ledger, SolverStats& stats, int depth,
               const ExecBackend* exec = nullptr, const ExecConfig& config = {},
               const SolveControl* control = nullptr,
               std::optional<ConflictView> line_graph = std::nullopt);

  // The cache points into final_: an engine never moves.
  SolverEngine(const SolverEngine&) = delete;
  SolverEngine& operator=(const SolverEngine&) = delete;

  /// Colors every edge; the result is proper (asserted) and each edge's
  /// color comes from the list the engine was given.
  EdgeColoring solve();

  /// Colors every edge via the relaxed path P(dbar, slack, C) of Lemma 4.5.
  /// The caller guarantees |L_e| > slack * deg(e) (Solver::solve_relaxed
  /// checks it).
  EdgeColoring solve_relaxed_instance(double slack);

  /// Lemma 4.3, exposed for analysis benches/tests: assigns a part of the
  /// uniform partition of [lo, hi) into p pieces to every edge of A and
  /// restricts the working lists to the assigned part.  Returns the part
  /// index per edge (-1 outside A).  Asserts Equation (2) on every edge.
  std::vector<int> assign_subspaces(const EdgeSubset& A, Color lo, Color hi, int p,
                                    int depth);

  /// Working list of an edge (after whatever restriction has happened), as
  /// a copy.
  ColorList work_list(EdgeId e) const { return work_.to_list(e); }

 private:
  // Shared prologue of the public solve entry points: the demoted walk of
  // phi's properness over the cache's rows.
  void validate_entry();

  // Shared epilogue of the public solve entry points: validates the output
  // and folds the cache telemetry into the stats.
  EdgeColoring finish_solve();

  // Lemma 4.2: colors all edges of H (lists currently satisfy
  // |L_e| >= deg_H(e)+1 after refresh).
  void solve_no_slack(EdgeSubset H, int depth);

  // Lemma 4.5: colors all edges of A; lists satisfy |L_e| > slack*deg_A(e);
  // all list colors lie in [lo, hi).
  void solve_relaxed(EdgeSubset A, double slack, Color lo, Color hi, int depth);

  // Base case: O(d^2 + log* X) conflict solve on H's induced line graph.
  // `degrees`/`measured` (optional): what a round head over the same H
  // measured with nothing finalized since, handed to the base case's own
  // head (see round_head).
  void solve_basecase(const EdgeSubset& H, std::vector<int>* degrees = nullptr,
                      std::optional<int> measured = std::nullopt);

  // Colors a set of independent edges: each takes its smallest remaining
  // color.  Counts the pick and charges its round; `for_edges(pick)` runs
  // pick(lane, e) for every edge of the set inside one backend pass.
  template <typename ForEdges>
  void trivial_pick(ForEdges&& for_edges);

  // A Lemma 4.2 class whose active edges (`is_active` over `bucket`) the
  // mark-active walk found independent: one trivial pick, with the gate
  // draws, checkpoint, depth and superstep of the solve_relaxed call it
  // stands for, in the same order.
  void pick_independent_class(const std::vector<EdgeId>& bucket,
                              const std::vector<std::uint8_t>& is_active, int depth);

  // The round head shared by solve_no_slack and solve_basecase, one
  // superstep: every edge of H deletes the colors of its newly finalized
  // neighbors from its working list, the max induced degree is measured,
  // and (when the validation gate fires) the (deg+1) feasibility invariant
  // is walked — all in ONE backend pass.  Charges the one refresh round;
  // returns the measured degree.  `invariant` labels the feasibility
  // assert's message.  `degrees` (optional, sized to the edge count)
  // receives each edge's induced degree in H.  Two heads skip the row walk
  // and keep everything else (charge, superstep, gate draw, assert): before
  // the first finalize over the full edge set each degree is the edge's row
  // length, and with `measured` set a head over the same H already left
  // the lists current and `degrees` filled, so `measured` is the degree.
  int round_head(const EdgeSubset& H, const char* invariant, std::vector<int>* degrees = nullptr,
                 std::optional<int> measured = std::nullopt);

  // The solve_relaxed entry head: measure max induced degree over A and
  // (when the gate fires) walk the P(dbar, S, C) entry invariant in one
  // pass.  Charges nothing (it is not a communication round).
  int relaxed_head(const EdgeSubset& A, double slack, Color lo, Color hi);

  // Draws the validation gate for one demoted walk site and records the
  // decision in the profile.
  bool validation_due();

  // max_induced_edge_degree(s) computed through the execution backend (a
  // shard-parallel max reduction on the sharded path).  Valid only for
  // subsets of unfinalized edges — every subset the round loop builds — so
  // the cache may count over live neighbors.
  int max_induced_degree(const EdgeSubset& s);

  void note_depth(int depth);

  // Polls the attached SolveControl (cancel flag, deadline, progress
  // callback).  Called only from the serial sections between rounds — never
  // inside a backend pass — so throwing here unwinds cleanly at a round
  // barrier with no parallel work in flight.  The progress snapshot reads
  // the ledger's incremental totals: O(1) for the raw sum, O(open depth)
  // for the effective total — no ledger-tree walk.
  void checkpoint() const {
    if (control_ == nullptr) return;
    ++stats_.profile.checkpoints;
    trace::instant("checkpoint", "engine");
    const PassTimer timer(stats_.profile.ledger_ms);
    solve_checkpoint(control_, [&] {
      return RoundProgress{ledger_.total(), ledger_.raw_total()};
    });
  }

  const Graph& g_;
  ListStore work_;  ///< working lists, one bitset window (or slice) per edge
  Color palette_;
  std::vector<std::uint64_t> phi_;
  std::uint64_t phi_palette_;
  Policy policy_;  ///< held by value: a caller may pass a temporary
  RoundLedger& ledger_;
  SolverStats& stats_;
  int base_depth_;
  const ExecBackend* exec_;  ///< never null; serial_backend() by default
  ExecConfig config_;        ///< round-loop knobs; children inherit the config
  ValidationGate gate_;      ///< per-engine cadence of the demoted walks
  const SolveControl* control_;  ///< null when uncontrolled; children inherit
  EdgeColoring final_;
  NeighborColorCache cache_;  ///< watches final_; owns the line graph's rows
};

}  // namespace qplec
