#include "db/storage.h"

namespace stagedcmp::db {

using trace::CostModel;

Page* BufferPool::NewPage(uint32_t file_id, uint32_t tuple_size) {
  if (num_pages_ % kTableChunk == 0) {
    chunks_.push_back(static_cast<Page**>(
        arena_->Allocate(kTableChunk * sizeof(Page*), 64)));
  }
  Page* p = static_cast<Page*>(arena_->Allocate(sizeof(Page), 64));
  p->page_id = num_pages_;
  p->file_id = file_id;
  p->tuple_size = tuple_size;
  p->capacity = tuple_size ? kPageSize / tuple_size : 0;
  p->n_tuples = 0;
  p->pin_count = 0;
  *Entry(num_pages_++) = p;
  return p;
}

Page* BufferPool::Fetch(uint32_t page_id, trace::Tracer* t) {
  Page** entry = Entry(page_id);
  Page* p = *entry;
  if (t != nullptr) {
    t->EnterRegion(region_);
    t->Compute(CostModel::kBufferPoolLookup);
    // Page-table probe: shared metadata word for this page id.
    t->Read(entry, sizeof(Page*), CostModel::kPagePin,
            /*dependent=*/true);
    // Header touch on the frame itself.
    t->Read(p, 32, CostModel::kSlotDecode, /*dependent=*/true);
  }
  return p;
}

Rid HeapFile::Insert(const uint8_t* tuple, trace::Tracer* t) {
  Page* page = nullptr;
  if (!page_ids_.empty()) {
    page = pool_->Fetch(page_ids_.back(), t);
    if (page->Full()) page = nullptr;
  }
  if (page == nullptr) {
    page = pool_->NewPage(file_id_, schema_->tuple_size());
    page_ids_.push_back(page->page_id);
  }
  const uint32_t slot = page->n_tuples++;
  uint8_t* dst = page->TupleAt(slot);
  std::memcpy(dst, tuple, schema_->tuple_size());
  ++num_tuples_;
  if (t != nullptr) {
    t->Write(dst, schema_->tuple_size(), CostModel::kTupleCopyPerLine);
    t->Write(page, 16, 2);  // header bump
  }
  return Rid{page->page_id, slot};
}

uint8_t* HeapFile::Get(Rid rid, trace::Tracer* t) {
  Page* page = pool_->Fetch(rid.page, t);
  uint8_t* tup = page->TupleAt(rid.slot);
  if (t != nullptr) {
    // RID-based access is a pointer chase (page table -> frame -> slot).
    t->Read(tup, schema_->tuple_size(), CostModel::kTupleMaterializePerLine,
            /*dependent=*/true);
  }
  return tup;
}

}  // namespace stagedcmp::db
