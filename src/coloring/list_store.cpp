#include "src/coloring/list_store.hpp"

#include <limits>

namespace qplec {

namespace {

// Bits [a, b) of a word (0 <= a <= b <= 64).
std::uint64_t bits_between(std::uint32_t a, std::uint32_t b) {
  const std::uint64_t upto_b = b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
  const std::uint64_t upto_a = a >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << a) - 1;
  return upto_b & ~upto_a;
}

}  // namespace

ListStore::ListStore(const std::vector<ColorList>& lists) {
  std::vector<int> all(lists.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  *this = ListStore(lists, all);
}

ListStore::ListStore(const std::vector<ColorList>& lists, std::span<const int> items)
    : ListStore(from_spans(static_cast<int>(lists.size()), items, [&](int i) {
        return std::span<const Color>(lists[static_cast<std::size_t>(i)].colors());
      })) {}

ListStore ListStore::ranges(int num_items, std::span<const int> items, Color lo, Color hi) {
  const ColorList range = ColorList::range(lo, hi);
  return from_spans(num_items, items, [&](int) { return std::span<const Color>(range.colors()); });
}

void ListStore::shape(int i, std::span<const Color> colors) {
  Entry& en = entry(i);
  en.size = static_cast<std::int32_t>(colors.size());
  if (colors.empty()) return;
  QPLEC_REQUIRE(colors.front() >= 0);
  // Dense when the window takes at most one word per color (the rule of the
  // list sampler in problem.cpp).
  const std::int64_t span = std::int64_t{colors.back()} - colors.front() + 1;
  if (span <= 64 * std::int64_t{en.size}) {
    en.base = colors.front();
    en.words = static_cast<std::uint32_t>((span + 63) / 64);
  } else {
    en.base = kSparse;
    en.words = static_cast<std::uint32_t>(en.size);
  }
}

void ListStore::layout(std::span<const int> items) {
  std::uint64_t total = 0;
  for (const int i : items) {
    Entry& en = entries_[static_cast<std::size_t>(i)];
    en.offset = static_cast<std::uint32_t>(total);
    total += en.words;
    QPLEC_REQUIRE_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                      "list store exceeds 2^32 words");
  }
  words_.resize(static_cast<std::size_t>(total));
}

void ListStore::fill(int i, std::span<const Color> colors) {
  const Entry& en = entries_[static_cast<std::size_t>(i)];
  std::uint64_t* w = words_.data() + en.offset;
  if (en.base == kSparse) {
    for (std::size_t t = 0; t < colors.size(); ++t) w[t] = static_cast<std::uint64_t>(colors[t]);
    return;
  }
  if (en.words == 0) return;
  const auto span = static_cast<std::uint32_t>(colors.back() - en.base + 1);
  if (span == static_cast<std::uint32_t>(en.size)) {
    // A contiguous range: whole words of ones, then the tail.
    std::fill(w, w + en.words - 1, ~std::uint64_t{0});
    w[en.words - 1] = bits_between(0, (span - 1) % 64 + 1);
    return;
  }
  for (const Color c : colors) {
    const auto k = static_cast<std::uint32_t>(c - en.base);
    w[k >> 6] |= std::uint64_t{1} << (k & 63);
  }
}

bool ListStore::contains(int i, Color c) const {
  const Entry& en = entry(i);
  if (en.base == kSparse) {
    const auto s = slice(en);
    return c >= 0 && std::binary_search(s.begin(), s.end(), static_cast<std::uint64_t>(c));
  }
  const std::uint32_t k = static_cast<std::uint32_t>(c) - static_cast<std::uint32_t>(en.base);
  return k < 64 * en.words && ((words_[en.offset + (k >> 6)] >> (k & 63)) & 1) != 0;
}

bool ListStore::remove_sparse(int i, Color c) {
  if (c < 0) return false;
  Entry& en = entry(i);
  std::uint64_t* b = words_.data() + en.offset;
  std::uint64_t* e = b + en.size;
  std::uint64_t* it = std::lower_bound(b, e, static_cast<std::uint64_t>(c));
  if (it == e || *it != static_cast<std::uint64_t>(c)) return false;
  std::copy(it + 1, e, it);
  --en.size;
  return true;
}

Color ListStore::min(int i) const {
  const Entry& en = entry(i);
  QPLEC_REQUIRE(en.size > 0);
  if (en.base == kSparse) return static_cast<Color>(words_[en.offset]);
  const std::uint64_t* w = words_.data() + en.offset;
  std::uint32_t k = 0;
  while (w[k] == 0) ++k;
  return en.base + static_cast<Color>(64 * k) + std::countr_zero(w[k]);
}

Color ListStore::max(int i) const {
  const Entry& en = entry(i);
  QPLEC_REQUIRE(en.size > 0);
  if (en.base == kSparse) return static_cast<Color>(words_[en.offset + en.size - 1]);
  const std::uint64_t* w = words_.data() + en.offset;
  std::uint32_t k = en.words - 1;
  while (w[k] == 0) --k;
  return en.base + static_cast<Color>(64 * k) + 63 - std::countl_zero(w[k]);
}

int ListStore::count_in_range(int i, Color lo, Color hi) const {
  const Entry& en = entry(i);
  if (hi <= lo || en.size == 0) return 0;
  if (en.base == kSparse) {
    const auto s = slice(en);
    const auto bound = [&](Color c) {
      return std::lower_bound(s.begin(), s.end(),
                              static_cast<std::uint64_t>(std::max<Color>(c, 0)));
    };
    return static_cast<int>(bound(hi) - bound(lo));
  }
  // Clamp [lo, hi) to the window's bits [a, b).
  const std::int64_t nbits = std::int64_t{64} * en.words;
  const std::int64_t a = std::clamp<std::int64_t>(std::int64_t{lo} - en.base, 0, nbits);
  const std::int64_t b = std::clamp<std::int64_t>(std::int64_t{hi} - en.base, 0, nbits);
  if (a >= b) return 0;
  const std::uint64_t* w = words_.data() + en.offset;
  const std::size_t ka = static_cast<std::size_t>(a >> 6);
  const std::size_t kb = static_cast<std::size_t>((b - 1) >> 6);
  const auto lo_bit = static_cast<std::uint32_t>(a & 63);
  const auto hi_bit = static_cast<std::uint32_t>(((b - 1) & 63) + 1);
  if (ka == kb) return std::popcount(w[ka] & bits_between(lo_bit, hi_bit));
  int count = std::popcount(w[ka] & bits_between(lo_bit, 64));
  for (std::size_t k = ka + 1; k < kb; ++k) count += std::popcount(w[k]);
  return count + std::popcount(w[kb] & bits_between(0, hi_bit));
}

void ListStore::restrict_to_range(int i, Color lo, Color hi) {
  Entry& en = entry(i);
  if (en.size == 0) return;
  if (en.base == kSparse) {
    const auto s = slice(en);
    const auto bound = [&](Color c) {
      return std::lower_bound(s.begin(), s.end(),
                              static_cast<std::uint64_t>(std::max<Color>(c, 0)));
    };
    const auto b = hi <= lo ? s.begin() : bound(lo);
    const auto e = hi <= lo ? s.begin() : bound(hi);
    en.offset += static_cast<std::uint32_t>(b - s.begin());
    en.size = static_cast<std::int32_t>(e - b);
    return;
  }
  const std::int64_t nbits = std::int64_t{64} * en.words;
  const std::int64_t a = std::clamp<std::int64_t>(std::int64_t{lo} - en.base, 0, nbits);
  const std::int64_t b = std::clamp<std::int64_t>(std::int64_t{hi} - en.base, 0, nbits);
  if (a >= b) {
    en.words = 0;
    en.size = 0;
    return;
  }
  // Drop the whole words outside [a, b), then mask the two edge words.
  const auto ka = static_cast<std::uint32_t>(a >> 6);
  const auto kb = static_cast<std::uint32_t>((b - 1) >> 6);
  en.offset += ka;
  en.base += static_cast<Color>(64 * ka);
  en.words = kb - ka + 1;
  std::uint64_t* w = words_.data() + en.offset;
  w[0] &= bits_between(static_cast<std::uint32_t>(a & 63), 64);
  w[en.words - 1] &= bits_between(0, static_cast<std::uint32_t>(((b - 1) & 63) + 1));
  int size = 0;
  for (std::uint32_t k = 0; k < en.words; ++k) size += std::popcount(w[k]);
  en.size = size;
}

Color ListStore::sparse_min_excluding(const Entry& en,
                                      const std::vector<Color>& forbidden_sorted) const {
  std::size_t j = 0;
  for (const std::uint64_t word : slice(en)) {
    const Color c = static_cast<Color>(word);
    while (j < forbidden_sorted.size() && forbidden_sorted[j] < c) ++j;
    if (j == forbidden_sorted.size() || forbidden_sorted[j] != c) return c;
  }
  return kUncolored;
}

ColorList ListStore::to_list(int i) const {
  const Entry& en = entry(i);
  std::vector<Color> colors;
  colors.reserve(static_cast<std::size_t>(en.size));
  if (en.base == kSparse) {
    for (const std::uint64_t word : slice(en)) colors.push_back(static_cast<Color>(word));
    return ColorList(std::move(colors));
  }
  const std::uint64_t* w = words_.data() + en.offset;
  for (std::uint32_t k = 0; k < en.words; ++k) {
    for (std::uint64_t bits = w[k]; bits != 0; bits &= bits - 1) {
      colors.push_back(en.base + static_cast<Color>(64 * k) + std::countr_zero(bits));
    }
  }
  return ColorList(std::move(colors));
}

}  // namespace qplec
