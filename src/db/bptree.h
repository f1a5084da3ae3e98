// B+-tree over 64-bit keys and values with page-sized (4KB) nodes, as in
// the disk-heritage commercial engines the paper characterizes.
//
// A root-to-leaf descent binary-searches each 4KB node, touching a chain
// of *dependent* cache lines — the pointer-chase pattern that dominates
// OLTP data stalls and that an out-of-order core cannot overlap. Upper
// levels are hot and shared by every client; the multi-MB leaf levels fit
// only in the largest L2s — they are precisely the band that turns into
// L2 *hits* as caches grow, shifting stalls from off-chip to L2-hit
// (the paper's central observation). Cache-conscious small-node trees
// ([22], Section 6.2) are the proposed remedy, not the 2007 baseline.
#ifndef STAGEDCMP_DB_BPTREE_H_
#define STAGEDCMP_DB_BPTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "trace/cost_model.h"
#include "trace/tracer.h"

namespace stagedcmp::db {

class BPlusTree {
 public:
  static constexpr int kNodeBytes = 4096;
  // Leaf: header + cap*(key8+val8); Inner: header + cap*key8 + (cap+1)*ptr8.
  static constexpr int kLeafCap = 252;
  static constexpr int kInnerCap = 251;

  explicit BPlusTree(Arena* arena);

  /// Inserts (duplicates allowed; kept in key order, FIFO among equals).
  void Insert(uint64_t key, uint64_t value, trace::Tracer* t);

  /// Point lookup: first value with exactly `key`. Returns false if absent.
  bool Lookup(uint64_t key, uint64_t* value, trace::Tracer* t) const;

  /// Range scan over [lo, hi]; invokes `fn` per entry until it returns
  /// false. Returns number of entries visited.
  uint64_t Scan(uint64_t lo, uint64_t hi,
                const std::function<bool(uint64_t key, uint64_t value)>& fn,
                trace::Tracer* t) const;

  /// Last (greatest-key) entry within [lo, hi]; false if range empty.
  bool FindLast(uint64_t lo, uint64_t hi, uint64_t* key, uint64_t* value,
                trace::Tracer* t) const;

  uint64_t size() const { return size_; }
  uint32_t height() const { return height_; }

  /// Validates tree invariants (ordering, fill, child links); tests only.
  Status CheckInvariants() const;

 private:
  struct alignas(64) Node {
    bool is_leaf = true;
    uint16_t count = 0;
    Node* next = nullptr;  // leaf chain
    uint64_t keys[kLeafCap];
    union {
      uint64_t values[kLeafCap];
      Node* children[kInnerCap + 1];
    };
  };
  static_assert(sizeof(Node) <= kNodeBytes, "node exceeds budget");

  Node* NewNode(bool leaf);
  /// Descends to a leaf. For inserts the descent takes the rightmost
  /// candidate (FIFO duplicates); for reads it takes the leftmost leaf
  /// that can contain `key` (duplicates may straddle a split separator).
  Node* FindLeaf(uint64_t key, bool for_insert, trace::Tracer* t,
                 std::vector<Node*>* path) const;
  void TraceNode(const Node* n, trace::Tracer* t) const;
  void InsertInner(std::vector<Node*>& path, Node* left, uint64_t key,
                   Node* right, trace::Tracer* t);
  Status CheckNode(const Node* n, uint64_t lo, uint64_t hi, uint32_t depth,
                   uint32_t leaf_depth) const;

  Arena* arena_;
  Node* root_;
  // Rightmost leaf, maintained across splits. Untraced inserts of a key
  // >= the current maximum append here directly, skipping the descent —
  // the bulk loaders insert composite keys in ascending order, so this
  // covers nearly every load-time insert. Traced inserts always take the
  // full descent (the descent itself is what gets traced).
  Node* rightmost_leaf_;
  // Root-to-leaf descent scratch, reused across Insert calls: a fresh
  // vector per insert cost ~2 heap reallocs per call on bulk loads.
  std::vector<Node*> insert_path_;
  uint64_t size_ = 0;
  uint32_t height_ = 1;
  trace::RegionId region_;
};

}  // namespace stagedcmp::db

#endif  // STAGEDCMP_DB_BPTREE_H_
