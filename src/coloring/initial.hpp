// Initial proper edge coloring derived from node identifiers.
//
// In the LOCAL model nodes start with unique ids from {1, ..., X}; the pair
// of endpoint ids of an edge, ordered, is a proper edge coloring with palette
// (X+1)^2: two edges sharing a node differ in the id of the other endpoint.
// This is the 0-round coloring that seeds every O(log* )-style reduction
// (the paper: "if an initial edge coloring with X colors is given ...").
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.hpp"

namespace qplec {

/// Largest local id the initial coloring accepts: its palette (X+1)^2 must
/// fit in 64 bits.
inline constexpr std::uint64_t kMaxInitialId = (std::uint64_t{1} << 32) - 2;

/// The id space an adversarial scramble of an n-node graph draws from: n^2,
/// clamped to kMaxInitialId.  Graphs of up to 65,535 nodes get exactly n^2;
/// larger ones keep a poly(n) space the initial palette can hold.
std::uint64_t scrambled_id_space(std::uint64_t num_nodes);

struct InitialColoring {
  std::vector<std::uint64_t> colors;  ///< per edge
  std::uint64_t palette = 0;          ///< colors lie in [0, palette)
};

/// phi(e) = min_id(e) * (X+1) + max_id(e) where X = max local id; palette
/// (X+1)^2.  Requires X <= kMaxInitialId.
InitialColoring initial_edge_coloring_from_ids(const Graph& g);

}  // namespace qplec
