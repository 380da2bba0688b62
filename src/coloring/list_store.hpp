// ListStore — one solve's working lists in one flat word array.
//
// The recursion of Section 4 treats a list L_e as a set: the marking round of
// Lemma 4.2 deletes the colors of finalized neighbors and compares |L_e| with
// deg(e)/2, Lemma 4.3 restricts L_e to one palette part and counts its
// intersection with every part, and every pick takes the smallest color of
// L_e no colored neighbor holds.  Over a bitset each of those is O(1) per
// color (a bit clear, a mask, a popcount, a countr_zero); over a sorted
// vector a removal is a binary search plus an erase.
//
// Layout: item i owns the words [offset, offset + words) of one array, and
// every list starts on a word boundary, so the lanes of a backend pass that
// own disjoint items never write the same word.  A list is stored in one of
// two formats, chosen once from its initial colors:
//   * DENSE (span <= 64 * |L|, span = max - min + 1): a bitset window whose
//     bit k is color base + k, base = min L at build time.  It takes at most
//     one word per color.
//   * SPARSE (wider spans): the sorted colors, one per word, so a hostile
//     palette such as {0, 2^30} still costs O(|L|) memory.
// Both keep the list's size per item.  Restriction may shrink a dense window
// by whole words (offset and base advance together); nothing ever grows.
//
// Every operation answers exactly what the same operation on ColorList
// answers (tests/test_list_store.cpp runs the differential), so a solver that
// reads only these set functions colors bit-identically on either format.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/coloring/palette.hpp"
#include "src/common/assert.hpp"

namespace qplec {

class ListStore {
 public:
  /// Lane-local buffers of first_free (one per backend lane).
  struct PickScratch {
    std::vector<std::uint64_t> used;  ///< forbidden bits of a multiword window
    std::vector<Color> colors;        ///< forbidden colors of a sparse list
  };

  ListStore() = default;

  /// Item i holds lists[i], for every i.
  explicit ListStore(const std::vector<ColorList>& lists);

  /// Items in `items` hold lists[i]; every other item of [0, lists.size())
  /// is empty (and stores nothing), so a caller pays for the items it uses.
  ListStore(const std::vector<ColorList>& lists, std::span<const int> items);

  /// Items in `items` hold the range [lo, hi); every other item of
  /// [0, num_items) is empty.
  static ListStore ranges(int num_items, std::span<const int> items, Color lo, Color hi);

  /// Items in `items` (distinct) hold colors_of(i), a std::span<const
  /// Color> of strictly increasing colors >= 0; every other item of
  /// [0, num_items) is empty.  One pass reads each list's size and extremes
  /// to lay the words out, a second fills them.
  template <typename ColorsOf>
  static ListStore from_spans(int num_items, std::span<const int> items, ColorsOf&& colors_of) {
    QPLEC_REQUIRE(num_items >= 0);
    ListStore out;
    out.entries_.assign(static_cast<std::size_t>(num_items), Entry{});
    for (const int i : items) out.shape(i, colors_of(i));
    out.layout(items);
    for (const int i : items) out.fill(i, colors_of(i));
    return out;
  }

  int num_items() const { return static_cast<int>(entries_.size()); }

  /// Words the lists occupy (a dense list takes at most one per color).
  std::size_t num_words() const { return words_.size(); }

  int size(int i) const { return entry(i).size; }
  bool empty(int i) const { return entry(i).size == 0; }

  /// Whether item i is held as a sorted slice (its initial span exceeded
  /// 64 colors per color).
  bool sparse(int i) const { return entry(i).base == kSparse; }

  bool contains(int i, Color c) const;

  /// Removes c if present; returns whether it was present.  Colors outside
  /// the list, kUncolored included, are ignored.
  bool remove(int i, Color c) {
    Entry& en = entry(i);
    if (en.base == kSparse) return remove_sparse(i, c);
    return clear_bit(en, c);
  }

  /// Removes every color `gather` hands to its argument: gather(remove)
  /// calls remove(c) once per color, and kUncolored or colors outside the
  /// list are ignored.  On a dense list a removal is a masked bit clear with
  /// no branch, so a caller may pass a neighbor's color without testing it.
  template <typename Gather>
  void remove_each(int i, Gather&& gather) {
    Entry& en = entry(i);
    if (en.base == kSparse) {
      gather([&](Color c) { remove_sparse(i, c); });
      return;
    }
    gather([&](Color c) { clear_bit(en, c); });
  }

  /// Smallest color (the list must be non-empty).
  Color min(int i) const;

  /// Largest color (the list must be non-empty).
  Color max(int i) const;

  /// Number of colors in [lo, hi).
  int count_in_range(int i, Color lo, Color hi) const;

  /// Keeps only the colors in [lo, hi).
  void restrict_to_range(int i, Color lo, Color hi);

  /// The smallest color of item i that `gather` does not forbid, or
  /// kUncolored if every color is forbidden.  gather(forbid) calls
  /// forbid(c) once per forbidden color; kUncolored and colors outside the
  /// list are ignored.  A one-word list collects the forbidden bits in a
  /// register; wider lists use the lane's scratch.
  template <typename Gather>
  Color first_free(int i, PickScratch& scratch, Gather&& gather) const {
    const Entry& en = entry(i);
    if (en.base == kSparse) {
      scratch.colors.clear();
      gather([&](Color c) {
        if (c >= 0) scratch.colors.push_back(c);
      });
      std::sort(scratch.colors.begin(), scratch.colors.end());
      return sparse_min_excluding(en, scratch.colors);
    }
    const std::uint64_t* w = words_.data() + en.offset;
    const std::uint32_t base = static_cast<std::uint32_t>(en.base);
    if (en.words == 1) {
      std::uint64_t used = 0;
      gather([&](Color c) {
        const std::uint32_t k = static_cast<std::uint32_t>(c) - base;
        used |= k < 64 ? std::uint64_t{1} << k : 0;
      });
      const std::uint64_t free = w[0] & ~used;
      return free != 0 ? en.base + std::countr_zero(free) : kUncolored;
    }
    const std::uint32_t nbits = 64 * en.words;
    scratch.used.assign(en.words, 0);
    gather([&](Color c) {
      const std::uint32_t k = static_cast<std::uint32_t>(c) - base;
      if (k < nbits) scratch.used[k >> 6] |= std::uint64_t{1} << (k & 63);
    });
    for (std::uint32_t k = 0; k < en.words; ++k) {
      const std::uint64_t free = w[k] & ~scratch.used[k];
      if (free != 0) return en.base + static_cast<Color>(64 * k) + std::countr_zero(free);
    }
    return kUncolored;
  }

  /// Prefetch hint for a pass that updates item i a few items from now;
  /// changes no state.  Stage 0 pulls i's entry; stage 1, sent once it has
  /// landed, i's first word.
  void prefetch(int i, int stage) const {
    const std::size_t k = static_cast<std::size_t>(i);
    if (stage == 0) {
      __builtin_prefetch(&entries_[k]);
    } else {
      __builtin_prefetch(words_.data() + entries_[k].offset, 1);
    }
  }

  /// Item i's colors as a ColorList (tests and read-only accessors).
  ColorList to_list(int i) const;

 private:
  static constexpr Color kSparse = -1;  ///< Entry::base of a sorted slice

  struct Entry {
    std::uint32_t offset = 0;  ///< first word
    Color base = 0;            ///< dense: color of bit 0; kSparse: sorted slice
    std::uint32_t words = 0;   ///< dense: window words; sparse: slice capacity
    std::int32_t size = 0;     ///< colors in the list
  };

  const Entry& entry(int i) const {
    QPLEC_REQUIRE(i >= 0 && i < num_items());
    return entries_[static_cast<std::size_t>(i)];
  }
  Entry& entry(int i) {
    QPLEC_REQUIRE(i >= 0 && i < num_items());
    return entries_[static_cast<std::size_t>(i)];
  }

  // The three steps of from_spans: an item's size and format, every listed
  // item's word offset, an item's words.
  void shape(int i, std::span<const Color> colors);
  void layout(std::span<const int> items);
  void fill(int i, std::span<const Color> colors);

  // Dense removal: a masked clear of bit c - base; the size drops by the
  // bit's old value.  An out-of-window color clears nothing in the item's
  // first word; an empty window owns no word at all.
  bool clear_bit(Entry& en, Color c) {
    if (en.words == 0) return false;
    const std::uint32_t k = static_cast<std::uint32_t>(c) - static_cast<std::uint32_t>(en.base);
    const bool in = k < 64 * en.words;
    std::uint64_t& word = words_[en.offset + (in ? k >> 6 : 0)];
    const std::uint64_t bit = in ? std::uint64_t{1} << (k & 63) : 0;
    const bool was = (word & bit) != 0;
    word &= ~bit;
    en.size -= static_cast<std::int32_t>(was);
    return was;
  }

  bool remove_sparse(int i, Color c);
  Color sparse_min_excluding(const Entry& en, const std::vector<Color>& forbidden_sorted) const;

  std::span<const std::uint64_t> slice(const Entry& en) const {
    return {words_.data() + en.offset, static_cast<std::size_t>(en.size)};
  }

  std::vector<Entry> entries_;
  std::vector<std::uint64_t> words_;
};

}  // namespace qplec
