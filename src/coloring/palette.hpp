// Colors, color lists and palette partitions.
//
// Colors are dense integers in [0, C).  A ColorList is a sorted set of
// colors — the list L_e of the list edge coloring problem.  The paper's
// color-space reduction (Lemma 4.3) partitions the palette {0..C-1} into
// q <= 2p contiguous subspaces of size at most ceil(C/p); PalettePartition
// implements exactly that partition, and ColorList supports the O(log)
// range-intersection queries the level computation (Lemma 4.4) needs.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/assert.hpp"

namespace qplec {

using Color = std::int32_t;

inline constexpr Color kUncolored = -1;

/// Sorted set of colors.
class ColorList {
 public:
  ColorList() = default;

  /// Takes ownership of a vector that must be strictly increasing.
  explicit ColorList(std::vector<Color> sorted_unique);

  /// The contiguous list {lo, lo+1, ..., hi-1}.
  static ColorList range(Color lo, Color hi);

  int size() const { return static_cast<int>(colors_.size()); }
  bool empty() const { return colors_.empty(); }

  /// Branch-free binary search: a membership test lands at a data-dependent
  /// position no branch predictor learns (the list-coloring check tests one
  /// color per list, list after list).
  bool contains(Color c) const {
    if (colors_.empty()) return false;
    const Color* base = colors_.data();
    for (std::size_t n = colors_.size(); n > 1;) {
      const std::size_t half = n / 2;
      base = base[half] <= c ? base + half : base;
      n -= half;
    }
    return *base == c;
  }

  /// Removes c if present; returns whether it was present.
  bool remove(Color c);

  /// Smallest color (list must be non-empty).
  Color min() const {
    QPLEC_REQUIRE(!colors_.empty());
    return colors_.front();
  }

  /// Smallest color not in `forbidden` (a sorted vector); kUncolored if none.
  Color min_excluding(const std::vector<Color>& forbidden_sorted) const;

  /// Number of colors in [lo, hi).
  int count_in_range(Color lo, Color hi) const;

  /// New list with only the colors in [lo, hi).
  ColorList restricted_to_range(Color lo, Color hi) const;

  const std::vector<Color>& colors() const { return colors_; }

  friend bool operator==(const ColorList&, const ColorList&) = default;

 private:
  std::vector<Color> colors_;
};

/// Partition of the palette [0, C) into q contiguous parts of size at most
/// ceil(C/p); q <= p <= 2p, matching Lemma 4.3's requirements.
class PalettePartition {
 public:
  /// Uniform partition driven by the parameter p in [1, C].
  static PalettePartition uniform(Color C, int p);

  int num_parts() const { return static_cast<int>(starts_.size()) - 1; }

  Color part_begin(int i) const {
    check(i);
    return starts_[static_cast<std::size_t>(i)];
  }
  Color part_end(int i) const {
    check(i);
    return starts_[static_cast<std::size_t>(i) + 1];
  }
  int part_size(int i) const { return part_end(i) - part_begin(i); }

  /// Largest part size (== ceil(C/p) except possibly the last part).
  int max_part_size() const;

  Color palette_size() const { return starts_.back(); }

  /// Index of the part containing color c.
  int part_of(Color c) const;

 private:
  void check(int i) const {
    QPLEC_REQUIRE_MSG(i >= 0 && i < num_parts(), "part index " << i << " out of range");
  }
  std::vector<Color> starts_;  // q+1 boundaries: 0 = starts_[0] < ... < starts_[q] = C
};

}  // namespace qplec
