// Arena allocator with stable addresses.
//
// The buffer pool and all engine data structures that workloads touch are
// allocated from one Arena per Database instance, so that (a) addresses are
// stable for the lifetime of a run, (b) logically-shared structures produce
// physically-shared cache lines in the trace, and (c) the address space is
// compact, which keeps simulated cache indexing realistic.
//
// Ownership. The arena maps every block itself (anonymous mmap) and
// unmaps them all when it dies, so a dead world's image goes back to the
// kernel at once instead of staying on some thread's malloc heap under
// whatever was allocated after it. A block of 2 MB or more starts on a
// 2 MB boundary and is advised MADV_HUGEPAGE, so a 16-warehouse TPC-C
// load faults in huge pages (about 90 minor faults instead of 30k).
// With transparent huge pages set to `never` the advice is ignored: the
// same blocks fault in 4 KB pages and every result is the same. Smaller
// blocks (the 1 MB scratch arenas) are page-rounded mappings
// (common/pages.h). A failed mapping throws std::bad_alloc, as `new` does.
//
// Blocks promise no zeroing. Fresh anonymous pages happen to read zero,
// but callers never read bytes they did not write (pages expose
// [0, n_tuples), B+-tree nodes expose [0, count)), and nothing may start
// relying on it.
#ifndef STAGEDCMP_COMMON_ARENA_H_
#define STAGEDCMP_COMMON_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/pages.h"

namespace stagedcmp {

/// Bump-pointer arena. Blocks are never freed until the arena dies, so
/// every pointer handed out stays valid and unique for the arena lifetime.
class Arena {
 public:
  /// Blocks at least this large are huge-page aligned and advised.
  static constexpr size_t kHugePage = size_t{2} << 20;

  explicit Arena(size_t block_size = 1 << 20) : block_size_(block_size) {}
  ~Arena() {
    for (const Block& b : blocks_) munmap(b.base, b.bytes);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `bytes` with the given alignment (power of two).
  void* Allocate(size_t bytes, size_t align = 8) {
    assert((align & (align - 1)) == 0);
    uintptr_t p = reinterpret_cast<uintptr_t>(ptr_);
    uintptr_t aligned = (p + align - 1) & ~(align - 1);
    size_t pad = aligned - p;
    if (pad + bytes > remaining_) {
      NewBlock(bytes, align);
      p = reinterpret_cast<uintptr_t>(ptr_);
      aligned = (p + align - 1) & ~(align - 1);
      pad = aligned - p;
    }
    ptr_ += pad + bytes;
    remaining_ -= pad + bytes;
    allocated_ += bytes;
    return reinterpret_cast<void*>(aligned);
  }

  /// Typed allocation of `n` default-constructible objects.
  template <typename T>
  T* AllocateArray(size_t n) {
    T* p = static_cast<T*>(Allocate(sizeof(T) * n, alignof(T)));
    for (size_t i = 0; i < n; ++i) new (p + i) T();
    return p;
  }

  /// Total bytes handed out (excludes padding and block slack).
  size_t allocated_bytes() const { return allocated_; }
  /// Total bytes mapped from the system (page-rounded blocks).
  size_t reserved_bytes() const { return reserved_; }

 private:
  struct Block {
    void* base;
    size_t bytes;
  };

  void NewBlock(size_t bytes, size_t align) {
    // Keeps the sums below from wrapping; mmap refuses anything near
    // this size anyway.
    if (bytes > SIZE_MAX / 2 || align > SIZE_MAX / 4) throw std::bad_alloc();
    const size_t sz =
        PageRound(bytes + align > block_size_ ? bytes + align : block_size_);
    blocks_.reserve(blocks_.size() + 1);  // a throw here maps nothing
    char* base = sz >= kHugePage ? MapHugeAligned(sz) : MapPages(sz);
    blocks_.push_back(Block{base, sz});
    ptr_ = base;
    remaining_ = sz;
    reserved_ += sz;
  }

  /// Over-maps by one huge page and trims both ends, so the block starts
  /// on a 2 MB boundary.
  static char* MapHugeAligned(size_t bytes) {
    char* raw = MapPages(bytes + kHugePage);
    const uintptr_t r = reinterpret_cast<uintptr_t>(raw);
    const size_t head = ((r + kHugePage - 1) & ~(kHugePage - 1)) - r;
    if (head > 0) munmap(raw, head);
    munmap(raw + head + bytes, kHugePage - head);
    char* base = raw + head;
#ifdef MADV_HUGEPAGE
    madvise(base, bytes, MADV_HUGEPAGE);  // advice only: ignored if refused
#endif
    return base;
  }

  size_t block_size_;
  std::vector<Block> blocks_;
  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  size_t allocated_ = 0;
  size_t reserved_ = 0;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_ARENA_H_
