#include "src/core/lemma44.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/math.hpp"

namespace qplec {

LevelResult compute_level(const std::vector<int>& part_sizes, int list_size) {
  QPLEC_REQUIRE(!part_sizes.empty());
  QPLEC_REQUIRE(list_size >= 1);
  const int q = static_cast<int>(part_sizes.size());
  const double hq = harmonic(static_cast<std::uint64_t>(q));

  std::vector<int> sorted = part_sizes;
  std::sort(sorted.begin(), sorted.end(), std::greater<int>());

  for (int k = 1; k <= q; ++k) {
    // k parts with |L ∩ C| >= |L|/(k*Hq) exist iff the k-th largest part
    // meets the threshold.  The small epsilon forgives floating rounding in
    // the threshold itself (the comparison the lemma needs is >=).
    const double threshold = static_cast<double>(list_size) / (static_cast<double>(k) * hq);
    if (static_cast<double>(sorted[static_cast<std::size_t>(k - 1)]) >= threshold - 1e-9) {
      LevelResult out;
      out.k = k;
      out.level = floor_log2(static_cast<std::uint64_t>(k));
      out.threshold = static_cast<double>(list_size) /
                      (static_cast<double>(1 << (out.level + 1)) * hq);
      return out;
    }
  }
  QPLEC_ASSERT_MSG(false, "Lemma 4.4 witness missing — implementation bug");
  return {};
}

std::vector<int> intersection_sizes(const ColorList& list, Color offset,
                                    const PalettePartition& partition) {
  return intersection_sizes(ListStore(std::vector<ColorList>{list}), 0, offset, partition);
}

std::vector<int> intersection_sizes(const ListStore& lists, int i, Color offset,
                                    const PalettePartition& partition) {
  std::vector<int> out(static_cast<std::size_t>(partition.num_parts()));
  for (int j = 0; j < partition.num_parts(); ++j) {
    out[static_cast<std::size_t>(j)] = lists.count_in_range(
        i, offset + partition.part_begin(j), offset + partition.part_end(j));
  }
  return out;
}

}  // namespace qplec
