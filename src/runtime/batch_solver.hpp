// BatchSolver — the whole-manifest barrier adapter over SolveService.
//
// The paper's algorithm is a single-instance round structure, but the
// simulator's workload is embarrassingly parallel *across* instances.  Since
// the SolveService front door (src/service) subsumed the solve pipeline,
// BatchSolver is a thin adapter: submit every scenario of the manifest to
// one service, wait in manifest order, and fold the outcomes into the
// BatchReport shape the benches and CI gates consume.
//
// Determinism guarantee (unchanged): every per-instance quantity (graph,
// lists, solver run) derives from the scenario's seed alone, so a batch's
// results — colors included — are bit-identical for any worker count.
// test_batch_solver.cpp pins this down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/exec_config.hpp"
#include "src/core/solver.hpp"
#include "src/runtime/scenarios.hpp"

namespace qplec {

/// Everything measured about one solved scenario.
struct ScenarioResult {
  Scenario scenario;
  int num_nodes = 0;
  int num_edges = 0;
  int max_degree = 0;       ///< Delta
  int max_edge_degree = 0;  ///< Delta-bar
  Color palette_size = 0;
  int shards = 1;  ///< intra-instance shards this scenario was solved with
  std::int64_t rounds = 0;
  std::int64_t raw_rounds = 0;
  SolverStats stats;  ///< pass timers, cache telemetry, RoundProfile (verbatim)
  std::uint64_t colors_hash = 0;  ///< FNV-1a over the coloring (cross-run check)
  bool valid = false;
  std::string error;  ///< service outcome detail when the solve did not end Ok
  double queue_ms = 0.0;  ///< submission -> solve-start wait (batch tail latency)
  double build_ms = 0.0;  ///< instance construction
  double solve_ms = 0.0;  ///< Solver::solve proper
  double edges_per_sec = 0.0;
  EdgeColoring colors;  ///< filled only when BatchSolver keep_colors
};

struct BatchReport {
  std::vector<ScenarioResult> results;  ///< same order as the manifest
  int num_threads = 0;
  double wall_ms = 0.0;  ///< end-to-end batch wall time
  std::int64_t total_edges = 0;
  double total_solve_ms = 0.0;  ///< sum of per-scenario solve times

  /// Aggregate throughput: total edges over batch wall time.
  double edges_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(total_edges) / (wall_ms / 1000.0) : 0.0;
  }
};

/// FNV-1a over an edge coloring; the cheap cross-thread-count fingerprint.
std::uint64_t hash_coloring(const EdgeColoring& colors);

class BatchSolver {
 public:
  /// `config` is the one unified execution configuration
  /// (src/common/exec_config.hpp): `workers` sizes the scenario-level
  /// fan-out, the intra-instance knobs (shards, validation tier, greedy
  /// quantum) pass through to every solve.  `keep_colors` retains the full
  /// colorings in the results (hash and validity are always computed).
  explicit BatchSolver(ExecConfig config = {}, bool keep_colors = false);

  int num_threads() const;

  /// Solves every scenario of the manifest; result i corresponds to
  /// manifest[i].  Each result's coloring is validated against its instance
  /// (ScenarioResult::valid) — an invalid coloring is reported, not thrown.
  BatchReport run(const std::vector<Scenario>& manifest) const;

 private:
  ExecConfig config_;
  bool keep_colors_;
};

}  // namespace qplec
