// Compact trace event encoding shared by the tracer (producer) and the
// core timing models (consumer).
//
// Each event is one 64-bit word:
//   bits [63:16]  addr   — byte address (data) or PC (compute block)
//   bits [15:14]  kind   — read / write / compute / marker
//   bits [13:0]   count  — instructions carried by this event
//
// A read/write event's `count` is the number of instructions issued along
// with (and including) the memory operation — the tracer folds short
// computation runs into the adjacent access, which keeps traces small
// without losing instruction counts. A compute event is a straight-line run
// of `count` instructions beginning at PC `addr` (the core model derives
// I-cache line fetches from it). A marker delimits one completed request
// (query or transaction) for response-time accounting.
//
// Storage. A ClientTrace never holds the words themselves: consecutive
// events mostly differ by a small line or PC step, so each event is
// stored as variable-length bytes (LEB128 varints; 2.9-3.1 bytes per
// event on recorded database traces, offset tables included, instead
// of 8):
//   header   varint of (count << 2 | kind), with a read or write's
//            dependent bit moved below its count (count << 3 | dep << 2 |
//            kind) — one byte for an access with count < 16 and for a
//            compute block of fewer than 32 instructions;
//   read /   varint of (zigzag(line - previous data line) << 1 | u),
//   write    lines being addr >> 6 modulo 2^42; u = 1 marks an
//            unaligned address, whose low 6 bits follow as one byte;
//   compute  varint of zigzag(addr - previous compute PC), modulo 2^48;
//   marker   varint of addr (0 for every recorded marker).
// Every 64-bit word round-trips. Deltas restart (both previous values
// become 0) every kBlockEvents events, and the trace keeps the byte
// offset of each block's first event, so a replay can start at event k
// by decoding at most kBlockEvents - 1 events (EventCursor::Seek).
//
// One trace's storage — its payload — is a run of 64-bit words: the
// encoded bytes, zero-padded to a whole word, then the block offset
// table (one word per block). The table goes last so the tracer can
// encode in place and keep what it wrote as the trace's payload: no
// copy. An encoder packs its traces end to end into mapped chunks
// (common/pages.h) that the traces share; the last of them to die unmaps
// the chunk. Once every trace finished in the chunk has died — a trace
// handed to a sink and dropped (harness::TraceSink) — the next trace
// reuses the chunk from its front, so a stream of traces that are copied
// out as they finish keeps one trace's pages resident. A trace either
// owns such a share or views a payload it does not own (a mapped
// bundle's bytes, a prefix slice's leader); bundles store exactly these
// payload words, so mapped traces replay in place. Traces are move-only.
#ifndef STAGEDCMP_TRACE_EVENTS_H_
#define STAGEDCMP_TRACE_EVENTS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/pages.h"

namespace stagedcmp::trace {

enum class EventKind : uint8_t {
  kRead = 0,
  kWrite = 1,
  kCompute = 2,
  kMarker = 3,
};

constexpr uint32_t kMaxEventCount = (1u << 14) - 1;
/// Memory events reserve count bit 13 as the *dependent* flag (the access
/// is serially dependent on the previous one — pointer chasing — so an
/// out-of-order core cannot overlap it with the preceding miss).
constexpr uint32_t kMaxMemCount = (1u << 13) - 1;
constexpr uint32_t kDependentBit = 1u << 13;
constexpr uint64_t kAddrMask = (1ULL << 48) - 1;

inline uint64_t PackEvent(EventKind kind, uint64_t addr, uint32_t count) {
  assert(count <= kMaxEventCount);
  return ((addr & kAddrMask) << 16) |
         (static_cast<uint64_t>(kind) << 14) | count;
}

/// Packs a read/write with the dependent flag.
inline uint64_t PackMemEvent(EventKind kind, uint64_t addr, uint32_t count,
                             bool dependent) {
  assert(kind == EventKind::kRead || kind == EventKind::kWrite);
  assert(count <= kMaxMemCount);
  return PackEvent(kind, addr, count | (dependent ? kDependentBit : 0));
}

inline EventKind UnpackKind(uint64_t e) {
  return static_cast<EventKind>((e >> 14) & 0x3);
}
inline uint64_t UnpackAddr(uint64_t e) { return e >> 16; }
inline uint32_t UnpackCount(uint64_t e) {
  const EventKind k = UnpackKind(e);
  if (k == EventKind::kRead || k == EventKind::kWrite) {
    return static_cast<uint32_t>(e & (kDependentBit - 1));
  }
  return static_cast<uint32_t>(e & 0x3FFF);
}
inline bool UnpackDependent(uint64_t e) {
  const EventKind k = UnpackKind(e);
  return (k == EventKind::kRead || k == EventKind::kWrite) &&
         (e & kDependentBit) != 0;
}

/// Events per restart block (see the storage notes above).
constexpr uint64_t kBlockEvents = 1024;

/// Restart blocks of an `n_events` trace: its offset table's length.
constexpr uint64_t BlockCount(uint64_t n_events) {
  return (n_events + kBlockEvents - 1) / kBlockEvents;
}

/// Words of a trace's word-padded encoded bytes.
constexpr uint64_t ByteWords(uint64_t n_bytes) { return (n_bytes + 7) / 8; }

/// Payload words of a trace: word-padded bytes plus offset table.
constexpr uint64_t PayloadWords(uint64_t n_events, uint64_t n_bytes) {
  return ByteWords(n_bytes) + BlockCount(n_events);
}

/// One client's recorded execution: a replayable stream of events, held
/// encoded (see the storage notes above). Read it through EventCursor.
struct ClientTrace {
  uint64_t total_instructions = 0;
  uint32_t requests = 0;  ///< number of kMarker events

  ClientTrace() = default;
  /// Move-only; a moved-from trace is empty, with zero totals.
  ClientTrace(ClientTrace&& o) noexcept { *this = std::move(o); }
  ClientTrace& operator=(ClientTrace&& o) noexcept {
    total_instructions = std::exchange(o.total_instructions, 0);
    requests = std::exchange(o.requests, 0);
    payload_ = std::move(o.payload_);
    n_events_ = std::exchange(o.n_events_, 0);
    n_bytes_ = std::exchange(o.n_bytes_, 0);
    return *this;
  }

  uint64_t events_size() const { return n_events_; }
  bool empty() const { return n_events_ == 0; }
  /// The payload: the encoded bytes (ByteWords(encoded_bytes()) words),
  /// then BlockCount(events_size()) offset words. Null when the trace
  /// has no events.
  const uint64_t* payload() const { return payload_.get(); }
  uint64_t payload_words() const { return PayloadWords(n_events_, n_bytes_); }
  uint64_t encoded_bytes() const { return n_bytes_; }
  const uint8_t* encoded_data() const {
    return reinterpret_cast<const uint8_t*>(payload());
  }
  const uint64_t* block_offsets() const {
    return payload() + ByteWords(n_bytes_);
  }

  /// Points the trace at an externally owned payload (a mapped bundle
  /// region, a leader's trace). The caller guarantees the storage
  /// outlives the trace.
  void SetView(const uint64_t* payload, uint64_t n_events, uint64_t n_bytes) {
    // Aliasing an empty owner: the pointer without a share of anything.
    SetPayload(std::shared_ptr<const uint64_t>(std::shared_ptr<void>(),
                                               payload),
               n_events, n_bytes);
  }
  /// Views `src`'s payload and copies its totals.
  void ViewOf(const ClientTrace& src) {
    SetView(src.payload(), src.n_events_, src.n_bytes_);
    total_instructions = src.total_instructions;
    requests = src.requests;
  }
  /// Sets the payload of PayloadWords(n_events, n_bytes) words and a
  /// share of the pages that hold it (EventEncoder::Finish).
  void SetPayload(std::shared_ptr<const uint64_t> payload, uint64_t n_events,
                uint64_t n_bytes) {
    payload_ = std::move(payload);
    n_events_ = n_events;
    n_bytes_ = n_bytes;
  }

 private:
  std::shared_ptr<const uint64_t> payload_;
  uint64_t n_events_ = 0;
  uint64_t n_bytes_ = 0;
};

namespace codec {

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}
/// The low `bits` bits of `v` as a two's-complement signed value.
inline int64_t SignExtend(uint64_t v, int bits) {
  const int shift = 64 - bits;
  return static_cast<int64_t>(v << shift) >> shift;
}
constexpr int kLineBits = 42;  ///< 48-bit addresses, 64-byte lines
constexpr uint64_t kLineMask = (1ULL << kLineBits) - 1;

/// Appends `v` as an LEB128 varint at `p`; returns the byte past it.
inline uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}
/// Reads one varint at `*p` and advances it. Reads at most 10 bytes,
/// whatever the input.
inline uint64_t GetVarint(const uint8_t** p) {
  const uint8_t* q = *p;
  uint64_t v = *q++;
  if (v >= 0x80) {
    v &= 0x7F;
    for (int shift = 7; shift < 70; shift += 7) {
      const uint64_t b = *q++;
      v |= (b & 0x7F) << shift;
      if (b < 0x80) break;
    }
  }
  *p = q;
  return v;
}
/// Most bytes one event can take: a 3-byte header, a 7-byte delta and
/// an offset byte.
constexpr size_t kMaxEventBytes = 11;

}  // namespace codec

/// Encodes event streams as they are produced (the Tracer's sink), one
/// trace after another into the same mapped chunks (see the storage
/// notes above). Finish hands the trace being encoded over as a payload
/// and starts the next one right after it, or at the chunk's front when
/// no finished trace still shares the chunk.
class EventEncoder {
 public:
  /// Bytes of a fresh chunk, unless one trace needs more. Pages are
  /// mapped untouched; only the ones written become resident.
  static constexpr size_t kChunkBytes = size_t{16} << 20;

  EventEncoder() = default;
  /// A copy would write into the same chunk.
  EventEncoder(const EventEncoder&) = delete;
  EventEncoder& operator=(const EventEncoder&) = delete;

  void Append(uint64_t ev) {
    using namespace codec;
    if (n_events_ % kBlockEvents == 0) {
      if (n_events_ == 0) Rewind();
      blocks_.push_back(size_);
      prev_line_ = 0;
      prev_pc_ = 0;
    }
    ++n_events_;
    if (room() < kMaxEventBytes) Move(kMaxEventBytes);
    uint8_t* p = bytes() + size_;
    const uint64_t kind = (ev >> 14) & 3;
    const uint64_t addr = ev >> 16;
    p = PutVarint(p, kind < 2 ? ((ev & 0x1FFF) << 3) | ((ev >> 11) & 4) | kind
                              : ((ev & 0x3FFF) << 2) | kind);
    switch (static_cast<EventKind>(kind)) {
      case EventKind::kRead:
      case EventKind::kWrite: {
        const uint64_t line = addr >> 6;
        const uint64_t offset = addr & 63;
        const int64_t d = SignExtend(line - prev_line_, kLineBits);
        p = PutVarint(p, (ZigZag(d) << 1) | (offset != 0 ? 1 : 0));
        if (offset != 0) *p++ = static_cast<uint8_t>(offset);
        prev_line_ = line;
        break;
      }
      case EventKind::kCompute:
        p = PutVarint(p, ZigZag(SignExtend(addr - prev_pc_, 48)));
        prev_pc_ = addr;
        break;
      case EventKind::kMarker:
        p = PutVarint(p, addr);
        break;
    }
    size_ = static_cast<size_t>(p - bytes());
  }

  uint64_t events_size() const { return n_events_; }
  uint64_t encoded_bytes() const { return size_; }

  /// Hands the trace being encoded over as `t`'s payload, with a share of
  /// its chunk, and starts an empty one. `t`'s totals are untouched.
  void Finish(ClientTrace* t) {
    if (n_events_ == 0) {
      t->SetPayload(nullptr, 0, 0);
      return;
    }
    const size_t payload_bytes = PayloadWords(n_events_, size_) * 8;
    if (room() < payload_bytes - size_) Move(payload_bytes - size_);
    std::memset(bytes() + size_, 0, ByteWords(size_) * 8 - size_);
    std::memcpy(bytes() + ByteWords(size_) * 8, blocks_.data(),
                blocks_.size() * 8);
    t->SetPayload(std::shared_ptr<const uint64_t>(
                      chunk_, reinterpret_cast<const uint64_t*>(bytes())),
                  n_events_, size_);
    used_ += payload_bytes;
    Discard();
  }

  /// Drops the trace being encoded; the chunk stays for the next one.
  void Discard() {
    size_ = 0;
    blocks_.clear();
    n_events_ = 0;
    prev_line_ = 0;
    prev_pc_ = 0;
  }

 private:
  /// The trace being encoded: it starts after the finished payloads.
  uint8_t* bytes() { return base_ + used_; }
  size_t room() const { return cap_ - used_ - size_; }

  /// Before a trace's first event: reuses the chunk from its front when
  /// every payload finished in it has died, so its resident pages hold
  /// the new trace instead of fresh ones faulting in after them.
  void Rewind() {
    if (used_ > 0 && chunk_.use_count() == 1) used_ = 0;
  }

  /// Moves the trace being encoded to a fresh chunk with room for
  /// `extra` more bytes. The old chunk lives on in the traces finished
  /// in it, if any; the pages past them are given back.
  void Move(size_t extra) {
    const size_t cap = PageRound(std::max(kChunkBytes, 2 * (size_ + extra)));
    uint8_t* base = reinterpret_cast<uint8_t*>(MapPages(cap));
    std::shared_ptr<void> chunk(base, PageUnmapper{cap});
    if (size_ > 0) std::memcpy(base, bytes(), size_);
    const size_t kept = PageRound(used_);
    if (used_ > 0 && kept < cap_) ReleasePages(base_ + kept, cap_ - kept);
    chunk_ = std::move(chunk);
    base_ = base;
    cap_ = cap;
    used_ = 0;
  }

  std::shared_ptr<void> chunk_;  ///< unmaps the chunk with its last trace
  uint8_t* base_ = nullptr;
  size_t cap_ = 0;
  size_t used_ = 0;  ///< bytes of finished payloads at the chunk's front
  size_t size_ = 0;  ///< the trace being encoded: its bytes so far
  std::vector<uint64_t> blocks_;
  uint64_t n_events_ = 0;
  uint64_t prev_line_ = 0;
  uint64_t prev_pc_ = 0;
};

/// Sequential reader of one trace's events: Next() yields the packed
/// words in order. A default-constructed cursor is at the end of an
/// empty trace. The trace's storage must outlive the cursor.
class EventCursor {
 public:
  EventCursor() = default;
  explicit EventCursor(const ClientTrace& t)
      : trace_(&t), n_events_(t.events_size()) {
    Seek(0);
  }

  /// Positions the cursor before event `k` (k <= events_size()): jumps
  /// to k's restart block and decodes the events before k within it.
  void Seek(uint64_t k) {
    assert(k <= n_events_);
    pos_ = k - k % kBlockEvents;
    p_ = pos_ < n_events_
             ? trace_->encoded_data() + trace_->block_offsets()[pos_ /
                                                                kBlockEvents]
             : nullptr;
    while (pos_ < k) Next();
  }

  bool done() const { return pos_ >= n_events_; }
  uint64_t pos() const { return pos_; }

  /// The next event's packed word. Requires !done().
  uint64_t Next() {
    using namespace codec;
    if (pos_ % kBlockEvents == 0) {
      prev_line_ = 0;
      prev_pc_ = 0;
    }
    ++pos_;
    const uint64_t h = GetVarint(&p_);
    const uint64_t kind = h & 3;
    uint64_t addr;
    uint64_t count;
    switch (static_cast<EventKind>(kind)) {
      case EventKind::kRead:
      case EventKind::kWrite: {
        const uint64_t v = GetVarint(&p_);
        prev_line_ = (prev_line_ + static_cast<uint64_t>(UnZigZag(v >> 1))) &
                     kLineMask;
        addr = prev_line_ << 6;
        if (v & 1) addr |= *p_++ & 63;
        count = ((h >> 3) & 0x1FFF) | ((h & 4) << 11);
        break;
      }
      case EventKind::kCompute:
        prev_pc_ =
            (prev_pc_ + static_cast<uint64_t>(UnZigZag(GetVarint(&p_)))) &
            kAddrMask;
        addr = prev_pc_;
        count = (h >> 2) & 0x3FFF;
        break;
      default:
        addr = GetVarint(&p_) & kAddrMask;
        count = (h >> 2) & 0x3FFF;
        break;
    }
    return (addr << 16) | (kind << 14) | count;
  }

 private:
  const ClientTrace* trace_ = nullptr;
  const uint8_t* p_ = nullptr;
  uint64_t n_events_ = 0;
  uint64_t pos_ = 0;
  uint64_t prev_line_ = 0;
  uint64_t prev_pc_ = 0;
};

/// Encodes `events` into `t`'s storage; `t`'s totals are untouched.
inline void EncodeEvents(const std::vector<uint64_t>& events,
                         ClientTrace* t) {
  EventEncoder enc;
  for (uint64_t e : events) enc.Append(e);
  enc.Finish(t);
}

/// Every event of `t`, decoded in order.
inline std::vector<uint64_t> DecodeEvents(const ClientTrace& t) {
  std::vector<uint64_t> out;
  out.reserve(t.events_size());
  for (EventCursor c(t); !c.done();) out.push_back(c.Next());
  return out;
}

}  // namespace stagedcmp::trace

#endif  // STAGEDCMP_TRACE_EVENTS_H_
