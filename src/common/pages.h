// Anonymous page mappings, the memory Arena blocks and trace payloads
// take from the kernel instead of from malloc: unmapping gives the pages
// back at once, whichever thread mapped them. A failed call throws
// std::bad_alloc, as `new` does.
#ifndef STAGEDCMP_COMMON_PAGES_H_
#define STAGEDCMP_COMMON_PAGES_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
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

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_PAGES_H_
