// Arena allocator with stable addresses.
//
// The buffer pool and all engine data structures that workloads touch are
// allocated from one Arena per Database instance, so that (a) addresses are
// stable for the lifetime of a run, (b) logically-shared structures produce
// physically-shared cache lines in the trace, and (c) the address space is
// compact, which keeps simulated cache indexing realistic.
//
// Placement. An arena carves its blocks from an AddressSpace
// (common/pages.h), in allocation order: a workload world's arenas share
// the world's space, so every address they hand out is a fixed offset
// from its base, the same in every process. An arena built without a
// space (tests, micro benchmarks) reserves a private one. Blocks of 2 MB
// or more start on a 2 MB offset and are advised MADV_HUGEPAGE, so a
// 16-warehouse TPC-C load faults in huge pages (about 90 minor faults
// instead of 30k). The arena gives its blocks' pages back when it dies,
// and a dead world unmaps its whole space. A block the space cannot fit
// throws std::bad_alloc, as `new` does.
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
#include <memory>
#include <new>
#include <vector>

#include "common/pages.h"

namespace stagedcmp {

/// Bump-pointer arena. Blocks are never freed until the arena dies, so
/// every pointer handed out stays valid and unique for the arena lifetime.
class Arena {
 public:
  /// Blocks at least this large are huge-page aligned and advised.
  static constexpr size_t kHugePage = AddressSpace::kHugePage;

  /// Carves from `space`, which must outlive the arena, or from a
  /// private space of its own when `space` is null.
  Arena(AddressSpace* space, size_t block_size)
      : own_(space == nullptr ? std::make_unique<AddressSpace>() : nullptr),
        space_(space == nullptr ? own_.get() : space),
        block_size_(block_size) {}
  explicit Arena(size_t block_size = 1 << 20) : Arena(nullptr, block_size) {}
  ~Arena() {
    for (const Block& b : blocks_) space_->Release(b.base, b.bytes);
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

  /// The space this arena carves from (its private one, if it has one).
  AddressSpace* space() const { return space_; }

  /// Total bytes handed out (excludes padding and block slack).
  size_t allocated_bytes() const { return allocated_; }
  /// Total bytes mapped from the system (page-rounded blocks).
  size_t reserved_bytes() const { return reserved_; }

 private:
  struct Block {
    char* base;
    size_t bytes;
  };

  void NewBlock(size_t bytes, size_t align) {
    // Keeps the sums below from wrapping; no space is anywhere near
    // this size anyway.
    if (bytes > SIZE_MAX / 2 || align > SIZE_MAX / 4) throw std::bad_alloc();
    const size_t sz =
        PageRound(bytes + align > block_size_ ? bytes + align : block_size_);
    blocks_.reserve(blocks_.size() + 1);  // a throw here maps nothing
    char* base = space_->Carve(sz);
    blocks_.push_back(Block{base, sz});
    ptr_ = base;
    remaining_ = sz;
    reserved_ += sz;
  }

  std::unique_ptr<AddressSpace> own_;  ///< set only for a private space
  AddressSpace* space_;
  size_t block_size_;
  std::vector<Block> blocks_;
  char* ptr_ = nullptr;
  size_t remaining_ = 0;
  size_t allocated_ = 0;
  size_t reserved_ = 0;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_ARENA_H_
