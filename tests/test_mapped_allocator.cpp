#include "src/common/mapped_allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace qplec {
namespace {

constexpr std::size_t kPage = 4096;

bool page_aligned(const void* p) { return reinterpret_cast<std::uintptr_t>(p) % kPage == 0; }

TEST(MappedAllocator, VectorsKeepTheirValuesAcrossTheThreshold) {
  constexpr std::size_t kIntsAtThreshold = MappedAllocator<int>::kMappedBytes / sizeof(int);
  MappedVector<int> v;
  for (int i = 0; i < static_cast<int>(3 * kIntsAtThreshold); ++i) v.push_back(i * 7 + 1);
  // A mapping starts on a page; malloc puts its chunk header there.
  EXPECT_TRUE(page_aligned(v.data()));
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(v[i], static_cast<int>(i) * 7 + 1);

  MappedVector<int> copy = v;
  EXPECT_TRUE(page_aligned(copy.data()));
  EXPECT_EQ(copy, v);
  const int* data = v.data();
  MappedVector<int> moved = std::move(v);
  EXPECT_EQ(moved.data(), data);

  // Shrinking below the threshold moves the values back to the heap.
  moved.resize(100);
  moved.shrink_to_fit();
  ASSERT_EQ(moved.size(), 100u);
  for (std::size_t i = 0; i < moved.size(); ++i) EXPECT_EQ(moved[i], static_cast<int>(i) * 7 + 1);
  moved.assign(kIntsAtThreshold, 5);
  EXPECT_TRUE(page_aligned(moved.data()));
  EXPECT_EQ(moved.back(), 5);
}

TEST(MappedAllocator, ArraysFromTheThresholdOnAreMapped) {
  MappedAllocator<std::uint64_t> alloc;
  constexpr std::size_t kJustBelow = MappedAllocator<std::uint64_t>::kMappedBytes / 8 - 1;
  std::uint64_t* small = alloc.allocate(kJustBelow);
  small[0] = 1;
  small[kJustBelow - 1] = 2;
  EXPECT_EQ(small[0] + small[kJustBelow - 1], 3u);
  alloc.deallocate(small, kJustBelow);
  std::uint64_t* large = alloc.allocate(kJustBelow + 1);
  EXPECT_TRUE(page_aligned(large));
  EXPECT_EQ(large[kJustBelow], 0u);  // fresh anonymous pages read as zero
  large[kJustBelow] = 3;
  alloc.deallocate(large, kJustBelow + 1);
}

}  // namespace
}  // namespace qplec
