// MappedAllocator — a solve's large arrays straight from the kernel.
//
// The largest array of a solve is the line graph's neighbor rows (the sum of
// the edge degrees: 21 MB on a 107k-edge graph with degree-128 hubs); the
// engine's NeighborColorCache adopts it and it dies with the solve.  Left to
// malloc, such a block comes from a thread arena once glibc's adaptive mmap
// threshold has grown past its size (it grows to the largest block freed so
// far), and whether it then fits in the arena's free space depends on the
// exact sizes of unrelated allocations made before it.  In a service solving
// the same 107k-edge request over and over, a work-directory path a few bytes
// longer moved the rows into a fresh arena heap and raised the process's
// peak RSS from 150 MB to 170 MB.
//
// Arrays of at least kMappedBytes are therefore mapped here and unmapped when
// freed: they never sit in (or fragment) an arena, and the memory they take
// is their own size in every run.  Smaller arrays use operator new.  Mapping
// costs a page fault per touched page, so only per-solve arrays use this.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <vector>

namespace qplec {

template <typename T>
class MappedAllocator {
 public:
  using value_type = T;

  /// Arrays of at least this many bytes are mapped.
  static constexpr std::size_t kMappedBytes = std::size_t{1} << 20;

  MappedAllocator() noexcept = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}  // NOLINT: rebinding

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    if (n * sizeof(T) < kMappedBytes) return std::allocator<T>().allocate(n);
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) < kMappedBytes) {
      std::allocator<T>().deallocate(p, n);
    } else {
      ::munmap(p, n * sizeof(T));
    }
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose storage is mapped once it reaches kMappedBytes.
template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace qplec
