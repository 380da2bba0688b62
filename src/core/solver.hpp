// Public entry point — Theorem 4.1.
//
// Solver::solve runs the full pipeline of the paper on a
// (deg(e)+1)-list edge coloring instance:
//   1. derive the initial proper edge coloring from node identifiers
//      (0 rounds — ids are known locally),
//   2. Linial-reduce it to a poly(Δ̄) palette in O(log* n) rounds — this is
//      the maintained "helper" coloring phi that seeds every base case,
//   3. run the Lemma 4.2 / 4.3 / 4.5 recursion (SolverEngine).
// The output is validated against the original instance before returning.
#pragma once

#include <cstdint>
#include <string>

#include "src/coloring/problem.hpp"
#include "src/common/control.hpp"
#include "src/core/engine.hpp"
#include "src/core/policy.hpp"
#include "src/dist/backend.hpp"

namespace qplec {

struct SolveResult {
  EdgeColoring colors;
  std::int64_t rounds = 0;      ///< effective LOCAL rounds (ledger total)
  std::int64_t raw_rounds = 0;  ///< parallelism-ignoring charge sum
  std::int64_t initial_rounds = 0;  ///< the O(log* n) phi-preparation part
  std::uint64_t phi_palette = 0;    ///< palette of the maintained coloring
  SolverStats stats;
  std::string round_report;  ///< human-readable ledger tree
};

class Solver {
 public:
  /// config carries the unified execution knobs (src/common/exec_config.hpp):
  /// the default runs the seed's serial path; ExecConfig{.shards = S}
  /// simulates the instance's rounds S-way parallel (src/dist) once the
  /// graph crosses config.min_sharded_edges; the validation tier selects
  /// the round-loop schedule.  Results are bit-identical across backends,
  /// shard counts and tiers.
  explicit Solver(Policy policy = Policy::practical(), ExecConfig config = {})
      : policy_(std::move(policy)), config_(config) {}

  const Policy& policy() const { return policy_; }
  const ExecConfig& config() const { return config_; }

  /// Solves the instance; throws InvariantViolation if any internal
  /// guarantee fails and returns a solution validated against `instance`.
  /// control (optional) hooks the round boundaries: cancellation / deadline
  /// unwind with SolveInterrupted, the progress callback streams ledger
  /// totals between rounds.  A solve that completes is bit-identical with or
  /// without a control attached (SolveService relies on this).
  SolveResult solve(const ListEdgeColoringInstance& instance,
                    const SolveControl* control = nullptr) const;

  /// Solves the paper's relaxed problem P(dbar, S, C) (Lemma 4.5): requires
  /// |L_e| > slack * deg(e) for every edge (throws otherwise).  With slack
  /// >= 24*H_4*log2(2) = 50 this enters the color-space-reduction path
  /// directly.
  SolveResult solve_relaxed(const ListEdgeColoringInstance& instance, double slack,
                            const SolveControl* control = nullptr) const;

 private:
  SolveResult run(const ListEdgeColoringInstance& instance, double slack,
                  const SolveControl* control) const;

  Policy policy_;
  ExecConfig config_;
};

}  // namespace qplec
