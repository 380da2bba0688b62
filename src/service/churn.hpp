// ChurnBatch — the service-facing shape of an edge-churn update.
//
// SolveService::update(ticket_or_fingerprint, batch) takes a completed
// solve's instance and repairs it under a batch of edge inserts/removes
// (src/core/recolor) instead of re-solving from scratch.  This header holds
// the service-side plumbing around that engine:
//
//   * ChurnBatch — an ordered list of EdgeDeltas with parse/generate
//     helpers (the CLI's --churn-file format lives here);
//   * ChurnSnapshot — what the service retains from a completed solve so an
//     update can start from it: the solved instance, its colors, and the
//     policy it ran under;
//   * chain_fingerprint — the derived-fingerprint rule.  An update's cache
//     key is a pure function of (base fingerprint, batch), so repeated
//     identical updates hit the result cache, and a chain of updates yields
//     a deterministic key sequence any replica can re-derive.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/coloring/problem.hpp"
#include "src/core/policy.hpp"
#include "src/core/recolor.hpp"

namespace qplec {

/// An ordered batch of edge mutations applied atomically by one update.
struct ChurnBatch {
  std::vector<EdgeDelta> ops;

  ChurnBatch& insert(NodeId u, NodeId v) {
    ops.push_back(EdgeDelta{true, u, v});
    return *this;
  }
  ChurnBatch& remove(NodeId u, NodeId v) {
    ops.push_back(EdgeDelta{false, u, v});
    return *this;
  }
  bool empty() const { return ops.empty(); }
  std::size_t size() const { return ops.size(); }
};

/// What the service keeps from a completed solve so updates can start from
/// it: the exact instance that was solved, the colors it produced, and the
/// policy that produced them (an update repairs under the base's policy —
/// mixing policies across a repair would make the fallback path diverge
/// from the repair path).  The instance is shared and immutable: for an
/// instance source it is the request's own copy, never a second one.
struct ChurnSnapshot {
  std::shared_ptr<const ListEdgeColoringInstance> instance;
  EdgeColoring colors;
  Policy policy;
};

/// The derived-fingerprint rule: the cache key of an update is
/// KeyHash(base fingerprint, op count, each op's (insert, u, v)).  Pure and
/// order-sensitive — two batches with the same ops in different order are
/// different updates (they are: list padding and region ids are derived
/// from the batch as given).
std::uint64_t chain_fingerprint(std::uint64_t base_fingerprint, const ChurnBatch& batch);

/// Parses the --churn-file format: one op per line, `i u v` inserts edge
/// {u, v}, `r u v` removes it; blank lines and `#` comments are skipped.
/// Throws std::invalid_argument on a malformed line (op codes other than
/// i/r, missing endpoints, trailing tokens).
ChurnBatch parse_churn_stream(std::istream& in);
ChurnBatch parse_churn_file(const std::string& path);

/// Deterministic random batch against `g`: `removes` distinct existing
/// edges and `inserts` distinct absent pairs (none colliding with the
/// removals' pairs), drawn from Rng(seed).  Requires the graph to actually
/// have that many edges / absent pairs within a bounded number of draws.
ChurnBatch make_random_churn(const Graph& g, int inserts, int removes, std::uint64_t seed);

/// Rough resident size of one snapshot (graph + lists + colors), used to
/// bound the service's snapshot registry the same way the result cache
/// bounds outcomes.
std::size_t estimate_snapshot_bytes(const ChurnSnapshot& snapshot);

}  // namespace qplec
