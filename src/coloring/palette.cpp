#include "src/coloring/palette.hpp"

#include <algorithm>

#include "src/common/math.hpp"

namespace qplec {

ColorList::ColorList(std::vector<Color> sorted_unique) : colors_(std::move(sorted_unique)) {
  for (std::size_t i = 0; i + 1 < colors_.size(); ++i) {
    QPLEC_REQUIRE_MSG(colors_[i] < colors_[i + 1], "color list must be strictly increasing");
  }
  if (!colors_.empty()) QPLEC_REQUIRE(colors_.front() >= 0);
}

ColorList ColorList::range(Color lo, Color hi) {
  QPLEC_REQUIRE(0 <= lo && lo <= hi);
  std::vector<Color> v(static_cast<std::size_t>(hi - lo));
  for (Color c = lo; c < hi; ++c) v[static_cast<std::size_t>(c - lo)] = c;
  return ColorList(std::move(v));
}

bool ColorList::remove(Color c) {
  auto it = std::lower_bound(colors_.begin(), colors_.end(), c);
  if (it != colors_.end() && *it == c) {
    colors_.erase(it);
    return true;
  }
  return false;
}

Color ColorList::min_excluding(const std::vector<Color>& forbidden_sorted) const {
  // Merge walk over the two sorted sequences.
  std::size_t j = 0;
  for (const Color c : colors_) {
    while (j < forbidden_sorted.size() && forbidden_sorted[j] < c) ++j;
    if (j == forbidden_sorted.size() || forbidden_sorted[j] != c) return c;
  }
  return kUncolored;
}

int ColorList::count_in_range(Color lo, Color hi) const {
  auto b = std::lower_bound(colors_.begin(), colors_.end(), lo);
  auto e = std::lower_bound(colors_.begin(), colors_.end(), hi);
  return static_cast<int>(e - b);
}

ColorList ColorList::restricted_to_range(Color lo, Color hi) const {
  auto b = std::lower_bound(colors_.begin(), colors_.end(), lo);
  auto e = std::lower_bound(colors_.begin(), colors_.end(), hi);
  return ColorList(std::vector<Color>(b, e));
}

PalettePartition PalettePartition::uniform(Color C, int p) {
  QPLEC_REQUIRE(C >= 1);
  QPLEC_REQUIRE(p >= 1 && p <= C);
  const Color part = static_cast<Color>(ceil_div(C, p));
  PalettePartition out;
  out.starts_.push_back(0);
  Color cur = 0;
  while (cur < C) {
    cur = std::min<Color>(C, cur + part);
    out.starts_.push_back(cur);
  }
  return out;
}

int PalettePartition::max_part_size() const {
  int best = 0;
  for (int i = 0; i < num_parts(); ++i) best = std::max(best, part_size(i));
  return best;
}

int PalettePartition::part_of(Color c) const {
  QPLEC_REQUIRE(c >= 0 && c < palette_size());
  auto it = std::upper_bound(starts_.begin(), starts_.end(), c);
  return static_cast<int>(it - starts_.begin()) - 1;
}

}  // namespace qplec
