// Lemma 4.4 — subspace levels.
//
// Given a list L over a palette partitioned into q parts C_1..C_q, the lemma
// guarantees an integer k in {1..q} such that at least k parts satisfy
// |L ∩ C_j| >= |L| / (k * H_q).  The *level* of an edge is
// l = floor(log2 k) for the smallest such k: then at least 2^l parts have
// intersection at least |L| / (2^(l+1) * H_q), which is the form the phase
// machinery of Lemma 4.3 consumes.
#pragma once

#include <vector>

#include "src/coloring/list_store.hpp"
#include "src/coloring/palette.hpp"

namespace qplec {

struct LevelResult {
  int k = 0;           ///< smallest witness k of Lemma 4.4
  int level = 0;       ///< floor(log2 k)
  double threshold = 0;  ///< |L| / (2^(level+1) * H_q)
};

/// part_sizes[j] = |L ∩ C_j|; list_size = |L| (must equal the sum).
/// Throws InvariantViolation if no witness exists (impossible per the lemma
/// — this is a machine check of the proof).
LevelResult compute_level(const std::vector<int>& part_sizes, int list_size);

/// Convenience: intersection sizes of `list` with the parts of `partition`,
/// where the partition covers [offset, offset + partition.palette_size()).
std::vector<int> intersection_sizes(const ColorList& list, Color offset,
                                    const class PalettePartition& partition);

/// The same for item i of a ListStore (a popcount per part).
std::vector<int> intersection_sizes(const ListStore& lists, int i, Color offset,
                                    const PalettePartition& partition);

}  // namespace qplec
