// Instruction stream buffers (Jouppi [15]).
//
// On an I-miss, a buffer begins prefetching successive lines. A subsequent
// I-miss that hits the head of a buffer is serviced at near-L1 latency.
// The paper notes both CMP camps employ them and that they make instruction
// stalls a secondary effect; sweep_main --spec sbuf quantifies that claim.
#ifndef STAGEDCMP_MEMSIM_STREAM_BUFFER_H_
#define STAGEDCMP_MEMSIM_STREAM_BUFFER_H_

#include <cstdint>
#include <vector>

namespace stagedcmp::memsim {

/// A small file of FIFO stream buffers, allocated round-robin on misses.
class StreamBufferFile {
 public:
  /// `num_buffers` buffers of `depth` line slots each.
  StreamBufferFile(uint32_t num_buffers, uint32_t depth)
      : depth_(depth), buffers_(num_buffers) {}

  /// Called on an L1I miss *before* going to L2. If the line is the head of
  /// some buffer, consumes it, advances the buffer, and returns true.
  bool Probe(uint64_t line_addr) {
    for (Buffer& b : buffers_) {
      if (b.active && b.next_line == line_addr) {
        ++hits_;
        b.next_line = line_addr + 1;
        // Keep prefetching until depth lines ahead of the consumed one.
        if (b.remaining > 0) --b.remaining;
        if (b.remaining == 0) b.active = false;
        return true;
      }
    }
    ++misses_;
    return false;
  }

  /// Called after an I-miss went to L2/memory: allocate a buffer that will
  /// stream lines sequentially after the missing one.
  void Allocate(uint64_t line_addr) {
    Buffer& b = buffers_[alloc_rr_ % buffers_.size()];
    ++alloc_rr_;
    b.active = true;
    b.next_line = line_addr + 1;
    b.remaining = depth_;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const uint64_t t = hits_ + misses_;
    return t ? static_cast<double>(hits_) / static_cast<double>(t) : 0.0;
  }

 private:
  struct Buffer {
    bool active = false;
    uint64_t next_line = 0;
    uint32_t remaining = 0;
  };

  uint32_t depth_;
  std::vector<Buffer> buffers_;
  size_t alloc_rr_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace stagedcmp::memsim

#endif  // STAGEDCMP_MEMSIM_STREAM_BUFFER_H_
