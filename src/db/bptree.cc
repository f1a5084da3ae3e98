#include "db/bptree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace stagedcmp::db {

using trace::CostModel;

BPlusTree::BPlusTree(Arena* arena) : arena_(arena) {
  region_ = trace::RegionId::kBtree;
  root_ = NewNode(true);
  rightmost_leaf_ = root_;
  insert_path_.reserve(16);
}

BPlusTree::Node* BPlusTree::NewNode(bool leaf) {
  Node* n = static_cast<Node*>(arena_->Allocate(sizeof(Node), 64));
  n->is_leaf = leaf;
  n->count = 0;
  n->next = nullptr;
  return n;
}

void BPlusTree::TraceNode(const Node* n, trace::Tracer* t) const {
  if (t == nullptr) return;
  // Header line, then the binary-search probe chain: log2(node lines)
  // dependent touches at halving offsets — the access pattern of searching
  // a page-sized node.
  const char* base = reinterpret_cast<const char*>(n);
  t->Read(base, 64, CostModel::kBtreeNodeSearch / 3, /*dependent=*/true);
  for (size_t off = sizeof(Node) / 2; off >= 128; off /= 2) {
    t->Read(base + off, 8, 8, /*dependent=*/true);
  }
  t->Read(base + 64, 8, 8, /*dependent=*/true);
}

BPlusTree::Node* BPlusTree::FindLeaf(uint64_t key, bool for_insert,
                                     trace::Tracer* t,
                                     std::vector<Node*>* path) const {
  if (t != nullptr) t->EnterRegion(region_);
  Node* n = root_;
  while (!n->is_leaf) {
    TraceNode(n, t);
    if (path != nullptr) path->push_back(n);
    // Inserts descend right of equal separators (FIFO duplicates); reads
    // descend left, because duplicates of a separator key may live in the
    // left sibling after a split.
    int i = for_insert
                ? static_cast<int>(std::upper_bound(n->keys,
                                                    n->keys + n->count, key) -
                                   n->keys)
                : static_cast<int>(std::lower_bound(n->keys,
                                                    n->keys + n->count, key) -
                                   n->keys);
    n = n->children[i];
  }
  TraceNode(n, t);
  return n;
}

void BPlusTree::Insert(uint64_t key, uint64_t value, trace::Tracer* t) {
  // Untraced ascending append: the insert descent would end at the
  // rightmost leaf (key >= every separator), so go there directly when
  // no split is needed. Produces a tree bit-identical to the slow path.
  if (t == nullptr && rightmost_leaf_->count > 0 &&
      rightmost_leaf_->count < kLeafCap &&
      key >= rightmost_leaf_->keys[rightmost_leaf_->count - 1]) {
    Node* leaf = rightmost_leaf_;
    leaf->keys[leaf->count] = key;
    leaf->values[leaf->count] = value;
    ++leaf->count;
    ++size_;
    return;
  }

  std::vector<Node*>& path = insert_path_;
  path.clear();
  Node* leaf = FindLeaf(key, /*for_insert=*/true, t, &path);

  // Position: after existing equal keys (FIFO duplicates).
  int pos = static_cast<int>(
      std::upper_bound(leaf->keys, leaf->keys + leaf->count, key) -
      leaf->keys);
  if (leaf->count < kLeafCap) {
    std::memmove(leaf->keys + pos + 1, leaf->keys + pos,
                 sizeof(uint64_t) * (leaf->count - pos));
    std::memmove(leaf->values + pos + 1, leaf->values + pos,
                 sizeof(uint64_t) * (leaf->count - pos));
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    ++leaf->count;
    ++size_;
    if (t != nullptr) {
      t->Write(leaf, 64, CostModel::kBtreeLeafInsert);
    }
    return;
  }

  // Split the leaf.
  Node* right = NewNode(true);
  const int mid = kLeafCap / 2;
  right->count = static_cast<uint16_t>(kLeafCap - mid);
  std::memcpy(right->keys, leaf->keys + mid, sizeof(uint64_t) * right->count);
  std::memcpy(right->values, leaf->values + mid,
              sizeof(uint64_t) * right->count);
  leaf->count = static_cast<uint16_t>(mid);
  right->next = leaf->next;
  leaf->next = right;
  if (right->next == nullptr) rightmost_leaf_ = right;

  Node* target = key < right->keys[0] ? leaf : right;
  pos = static_cast<int>(
      std::upper_bound(target->keys, target->keys + target->count, key) -
      target->keys);
  std::memmove(target->keys + pos + 1, target->keys + pos,
               sizeof(uint64_t) * (target->count - pos));
  std::memmove(target->values + pos + 1, target->values + pos,
               sizeof(uint64_t) * (target->count - pos));
  target->keys[pos] = key;
  target->values[pos] = value;
  ++target->count;
  ++size_;
  if (t != nullptr) {
    t->Write(leaf, 64, CostModel::kBtreeLeafInsert);
    t->Write(right, sizeof(Node) / 2, CostModel::kBtreeLeafInsert);
  }
  InsertInner(path, leaf, right->keys[0], right, t);
}

void BPlusTree::InsertInner(std::vector<Node*>& path, Node* left,
                            uint64_t key, Node* right, trace::Tracer* t) {
  while (true) {
    if (path.empty()) {
      Node* new_root = NewNode(false);
      new_root->count = 1;
      new_root->keys[0] = key;
      new_root->children[0] = left;
      new_root->children[1] = right;
      root_ = new_root;
      ++height_;
      if (t != nullptr) t->Write(new_root, 64, 8);
      return;
    }
    Node* parent = path.back();
    path.pop_back();
    int pos = static_cast<int>(
        std::upper_bound(parent->keys, parent->keys + parent->count, key) -
        parent->keys);
    if (parent->count < kInnerCap) {
      std::memmove(parent->keys + pos + 1, parent->keys + pos,
                   sizeof(uint64_t) * (parent->count - pos));
      std::memmove(parent->children + pos + 2, parent->children + pos + 1,
                   sizeof(Node*) * (parent->count - pos));
      parent->keys[pos] = key;
      parent->children[pos + 1] = right;
      ++parent->count;
      if (t != nullptr) t->Write(parent, 64, 12);
      return;
    }
    // Split inner node.
    uint64_t tmp_keys[kInnerCap + 1];
    Node* tmp_children[kInnerCap + 2];
    std::memcpy(tmp_keys, parent->keys, sizeof(uint64_t) * parent->count);
    std::memcpy(tmp_children, parent->children,
                sizeof(Node*) * (parent->count + 1));
    std::memmove(tmp_keys + pos + 1, tmp_keys + pos,
                 sizeof(uint64_t) * (parent->count - pos));
    std::memmove(tmp_children + pos + 2, tmp_children + pos + 1,
                 sizeof(Node*) * (parent->count - pos));
    tmp_keys[pos] = key;
    tmp_children[pos + 1] = right;
    const int total = parent->count + 1;
    const int mid = total / 2;
    const uint64_t up_key = tmp_keys[mid];

    Node* new_right = NewNode(false);
    parent->count = static_cast<uint16_t>(mid);
    std::memcpy(parent->keys, tmp_keys, sizeof(uint64_t) * parent->count);
    std::memcpy(parent->children, tmp_children,
                sizeof(Node*) * (parent->count + 1));
    new_right->count = static_cast<uint16_t>(total - mid - 1);
    std::memcpy(new_right->keys, tmp_keys + mid + 1,
                sizeof(uint64_t) * new_right->count);
    std::memcpy(new_right->children, tmp_children + mid + 1,
                sizeof(Node*) * (new_right->count + 1));
    if (t != nullptr) {
      t->Write(parent, sizeof(Node) / 2, 20);
      t->Write(new_right, sizeof(Node) / 2, 20);
    }
    left = parent;
    key = up_key;
    right = new_right;
  }
}

bool BPlusTree::Lookup(uint64_t key, uint64_t* value,
                       trace::Tracer* t) const {
  const Node* leaf = FindLeaf(key, /*for_insert=*/false, t, nullptr);
  int pos = static_cast<int>(
      std::lower_bound(leaf->keys, leaf->keys + leaf->count, key) -
      leaf->keys);
  if (pos == leaf->count && leaf->next != nullptr) {
    // The leftmost candidate leaf ended just before `key`: the run of
    // equal keys starts at the next leaf.
    leaf = leaf->next;
    pos = 0;
    if (t != nullptr) TraceNode(leaf, t);
  }
  if (pos < leaf->count && leaf->keys[pos] == key) {
    if (value != nullptr) *value = leaf->values[pos];
    return true;
  }
  return false;
}

uint64_t BPlusTree::Scan(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, uint64_t)>& fn,
    trace::Tracer* t) const {
  const Node* leaf = FindLeaf(lo, /*for_insert=*/false, t, nullptr);
  uint64_t visited = 0;
  while (leaf != nullptr) {
    int pos = static_cast<int>(
        std::lower_bound(leaf->keys, leaf->keys + leaf->count, lo) -
        leaf->keys);
    for (; pos < leaf->count; ++pos) {
      if (leaf->keys[pos] > hi) return visited;
      ++visited;
      if (t != nullptr) t->Compute(CostModel::kBtreeNodeSearch / 2);
      if (!fn(leaf->keys[pos], leaf->values[pos])) return visited;
    }
    leaf = leaf->next;
    if (leaf != nullptr && t != nullptr) TraceNode(leaf, t);
    lo = 0;  // subsequent leaves start from their first key
  }
  return visited;
}

bool BPlusTree::FindLast(uint64_t lo, uint64_t hi, uint64_t* key,
                         uint64_t* value, trace::Tracer* t) const {
  bool found = false;
  uint64_t k = 0, v = 0;
  Scan(lo, hi,
       [&](uint64_t kk, uint64_t vv) {
         k = kk;
         v = vv;
         found = true;
         return true;
       },
       t);
  if (found) {
    if (key != nullptr) *key = k;
    if (value != nullptr) *value = v;
  }
  return found;
}

Status BPlusTree::CheckNode(const Node* n, uint64_t lo, uint64_t hi,
                            uint32_t depth, uint32_t leaf_depth) const {
  for (int i = 1; i < n->count; ++i) {
    if (n->keys[i - 1] > n->keys[i]) {
      return Status::Internal("keys out of order");
    }
  }
  if (n->count > 0 && (n->keys[0] < lo || n->keys[n->count - 1] > hi)) {
    return Status::Internal("key outside subtree range");
  }
  if (n->is_leaf) {
    if (depth != leaf_depth) return Status::Internal("uneven leaf depth");
    return Status::Ok();
  }
  if (n->count == 0) return Status::Internal("empty inner node");
  for (int i = 0; i <= n->count; ++i) {
    const uint64_t child_lo = i == 0 ? lo : n->keys[i - 1];
    const uint64_t child_hi = i == n->count ? hi : n->keys[i];
    Status s = CheckNode(n->children[i], child_lo, child_hi, depth + 1,
                         leaf_depth);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status BPlusTree::CheckInvariants() const {
  // Leaf depth = height - 1.
  return CheckNode(root_, 0, UINT64_MAX, 0, height_ - 1);
}

}  // namespace stagedcmp::db
