// Anonymous page mappings, the memory Arena blocks and trace payloads
// take from the kernel instead of from malloc: unmapping gives the pages
// back at once, whichever thread mapped them. A failed call throws
// std::bad_alloc, as `new` does.
//
// AddressSpace is the one reservation a workload world's arenas carve
// their blocks from, so every traced data address is a fixed offset from
// its base (trace/tracer.h records the offset) and a build's trace is the
// same in every process, under any allocator, sanitizer or thread count.
#ifndef STAGEDCMP_COMMON_PAGES_H_
#define STAGEDCMP_COMMON_PAGES_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>

namespace stagedcmp {

/// `bytes` rounded up to a whole number of pages.
inline size_t PageRound(size_t bytes) {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) & ~(page - 1);
}

/// Maps `bytes` (a page multiple) of fresh read-write memory.
inline char* MapPages(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<char*>(p);
}

/// Gives back the resident pages of `bytes` (a page multiple) at `p` (page
/// aligned) inside a mapping, which stays mapped and reads as zeros.
inline void ReleasePages(void* p, size_t bytes) {
  madvise(p, bytes, MADV_DONTNEED);
}

/// A deleter that unmaps `bytes` at the pointer.
struct PageUnmapper {
  size_t bytes = 0;
  void operator()(void* p) const { munmap(p, bytes); }
};

/// One contiguous reservation of address space that arenas carve blocks
/// from, in allocation order. It is mapped PROT_NONE and MAP_NORESERVE,
/// so it costs no memory until carved, and its base is 2 MB aligned. A
/// block of 2 MB or more starts on a 2 MB offset and is advised
/// MADV_HUGEPAGE (with transparent huge pages off, the advice is ignored
/// and every result is the same); smaller blocks follow the previous one
/// at the next page. Released blocks are not handed out again, so a
/// block's offset depends only on the sizes carved before it. Not
/// synchronized: one world carves from one thread.
class AddressSpace {
 public:
  static constexpr size_t kHugePage = size_t{2} << 20;
  /// The reservation's size. It covers the largest world any builtin spec
  /// builds almost four times over: the shootout's 1024-node OLTP leader
  /// carves 1.08 GB (fig2's 128-client DSS leader 0.46 GB, the smoke grid
  /// 0.13 GB).
  static constexpr size_t kBytes = size_t{4} << 30;

  AddressSpace() {
    // Over-reserves by one huge page and trims both ends to align the base.
    void* p = mmap(nullptr, kBytes + kHugePage, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    char* raw = static_cast<char*>(p);
    const uintptr_t r = reinterpret_cast<uintptr_t>(raw);
    const size_t head = ((r + kHugePage - 1) & ~(kHugePage - 1)) - r;
    if (head > 0) munmap(raw, head);
    munmap(raw + head + kBytes, kHugePage - head);
    base_ = raw + head;
  }
  ~AddressSpace() { munmap(base_, kBytes); }

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Maps the next `bytes` (a page multiple) read-write. Throws
  /// std::bad_alloc, carving nothing, when the rest of the range is too
  /// small.
  char* Carve(size_t bytes) {
    const size_t align = bytes >= kHugePage ? kHugePage : 1;
    const size_t off = (used_ + align - 1) & ~(align - 1);
    if (bytes > kBytes - off) throw std::bad_alloc();
    char* p = base_ + off;
    if (mmap(p, bytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0) == MAP_FAILED) {
      throw std::bad_alloc();
    }
#ifdef MADV_HUGEPAGE
    if (align == kHugePage) madvise(p, bytes, MADV_HUGEPAGE);  // advice only
#endif
    used_ = off + bytes;
    return p;
  }

  /// Gives back the pages of a carved block; its range stays reserved.
  /// Should the remap fail, the pages stay until the space dies.
  void Release(char* p, size_t bytes) {
    mmap(p, bytes, PROT_NONE,
         MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED | MAP_NORESERVE, -1, 0);
  }

  uintptr_t base() const { return reinterpret_cast<uintptr_t>(base_); }
  /// Bytes from the base to the end of the last block carved.
  size_t used() const { return used_; }

 private:
  char* base_ = nullptr;
  size_t used_ = 0;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_PAGES_H_
