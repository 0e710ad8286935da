#include "storage/table.h"

#include "util/string_util.h"

namespace smadb::storage {

using util::Result;
using util::Status;

namespace {

// Slots per page given the tombstone bitmap: solve
//   header + ceil(n/8) + n * tuple_size <= kPageSize.
uint32_t ComputeCapacity(size_t tuple_size) {
  const size_t budget_bits = (kPageSize - kPageHeaderSize) * 8;
  uint32_t n = static_cast<uint32_t>(budget_bits / (tuple_size * 8 + 1));
  while (kPageHeaderSize + (n + 7) / 8 + n * tuple_size > kPageSize) --n;
  return n;
}

}  // namespace

Table::Table(BufferPool* pool, FileId file, std::string name, Schema schema,
             TableOptions options)
    : pool_(pool),
      file_(file),
      name_(std::move(name)),
      schema_(std::move(schema)),
      options_(options),
      tuples_per_page_(ComputeCapacity(schema_.tuple_size())),
      tuple_area_offset_(kPageHeaderSize + (tuples_per_page_ + 7) / 8),
      latches_(BucketsPerRun(options.bucket_pages)) {}

Result<std::unique_ptr<Table>> Table::Create(BufferPool* pool,
                                             std::string name, Schema schema,
                                             TableOptions options) {
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("table '" + name + "' needs columns");
  }
  if (schema.tuple_size() > kPageSize - kPageHeaderSize) {
    return Status::InvalidArgument(
        util::Format("tuple of %zu bytes exceeds page capacity",
                     schema.tuple_size()));
  }
  if (options.bucket_pages == 0) {
    return Status::InvalidArgument("bucket_pages must be >= 1");
  }
  SMADB_ASSIGN_OR_RETURN(FileId file,
                         pool->disk()->CreateFile("tbl." + name));
  return std::unique_ptr<Table>(new Table(pool, file, std::move(name),
                                          std::move(schema), options));
}

Result<std::unique_ptr<Table>> Table::Restore(BufferPool* pool,
                                              std::string name, Schema schema,
                                              TableOptions options,
                                              uint64_t num_tuples,
                                              uint64_t num_deleted,
                                              uint32_t num_pages,
                                              uint64_t epoch) {
  SMADB_ASSIGN_OR_RETURN(FileId file, pool->disk()->FindFile("tbl." + name));
  auto table = std::unique_ptr<Table>(new Table(pool, file, std::move(name),
                                                std::move(schema), options));
  SMADB_ASSIGN_OR_RETURN(uint32_t disk_pages, pool->disk()->NumPages(file));
  if (disk_pages < num_pages) {
    return Status::Corruption(util::Format(
        "table '%s': manifest says %u pages but file holds %u",
        table->name_.c_str(), num_pages, disk_pages));
  }
  table->num_tuples_ = num_tuples;
  table->num_deleted_ = num_deleted;
  table->num_pages_ = num_pages;
  table->epoch_ = epoch;
  SMADB_RETURN_NOT_OK(table->RefreshAppendState());
  // The tail-page peek above must not leave the pool warm: a fresh open
  // promises cold data reads (scrubbing and checksum verification rely on
  // the next access faulting to disk, not hitting a cached frame).
  SMADB_RETURN_NOT_OK(pool->DropFile(file));
  return table;
}

Status Table::RefreshAppendState() {
  const uint32_t pages = num_pages_.load(std::memory_order_relaxed);
  if (pages == 0) {
    append_state_.store(0, std::memory_order_release);
    return Status::OK();
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(pages - 1));
  const uint16_t tail = PageTupleCount(*guard.page());
  append_state_.store((static_cast<uint64_t>(pages) << 16) | tail,
                      std::memory_order_release);
  return Status::OK();
}

TableSnapshot Table::CaptureSnapshot() const {
  TableSnapshot snap;
  const uint64_t word = append_state_.load(std::memory_order_acquire);
  snap.pages = static_cast<uint32_t>(word >> 16);
  snap.tail_count = static_cast<uint16_t>(word & 0xffff);
  if (snap.pages == 0) return snap;
  snap.buckets =
      (snap.pages + options_.bucket_pages - 1) / options_.bucket_pages;
  snap.boundary_bucket = (snap.pages - 1) / options_.bucket_pages;
  // The tail bucket's SMA entries keep absorbing post-snapshot appends
  // unless the snapshot ends exactly on a bucket boundary with a full tail
  // page — only then is the last snapshot bucket closed for good.
  snap.demote_boundary = !(snap.tail_count == tuples_per_page_ &&
                           snap.pages % options_.bucket_pages == 0);
  return snap;
}

Status Table::Append(const TupleBuffer& tuple, Rid* rid) {
  if (!tuple.schema().Equals(schema_)) {
    return Status::InvalidArgument("tuple schema mismatch for table '" +
                                   name_ + "'");
  }
  uint32_t pages = num_pages_.load(std::memory_order_relaxed);
  PageGuard guard;
  uint32_t page_no;
  uint16_t slot;
  if (pages > 0) {
    page_no = pages - 1;
    SMADB_ASSIGN_OR_RETURN(guard, FetchPage(page_no));
    slot = PageTupleCount(*guard.page());
    if (slot >= tuples_per_page_) {
      guard.Release();
      SMADB_ASSIGN_OR_RETURN(guard, pool_->NewPage(file_, &page_no));
      ++pages;
      slot = 0;
    }
  } else {
    SMADB_ASSIGN_OR_RETURN(guard, pool_->NewPage(file_, &page_no));
    ++pages;
    slot = 0;
  }
  Page* page = guard.MutablePage();
  std::memcpy(page->data + tuple_area_offset_ + slot * schema_.tuple_size(),
              tuple.data(), schema_.tuple_size());
  page->WriteAt<uint16_t>(0, static_cast<uint16_t>(slot + 1));
  num_pages_.store(pages, std::memory_order_release);
  num_tuples_.fetch_add(1, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  // Publish the new prefix AFTER the tuple bytes and header: a snapshot that
  // sees this word sees the fully-written tuple it covers.
  append_state_.store(
      (static_cast<uint64_t>(pages) << 16) | static_cast<uint16_t>(slot + 1),
      std::memory_order_release);
  if (rid != nullptr) *rid = Rid{page_no, slot};
  return Status::OK();
}

Result<Rid> Table::NextRid() const {
  const uint32_t pages = num_pages();
  if (pages == 0) return Rid{0, 0};
  const uint32_t tail = pages - 1;
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(tail));
  const uint16_t slot = PageTupleCount(*guard.page());
  if (slot >= tuples_per_page_) return Rid{pages, 0};
  return Rid{tail, slot};
}

Status Table::ApplyInsert(Rid rid, std::string_view tuple_bytes,
                          uint64_t epoch_after) {
  if (tuple_bytes.size() != schema_.tuple_size()) {
    return Status::Corruption(util::Format(
        "replayed tuple of %zu bytes, table '%s' expects %zu",
        tuple_bytes.size(), name_.c_str(), schema_.tuple_size()));
  }
  if (rid.slot >= tuples_per_page_) {
    return Status::Corruption(
        util::Format("replayed slot %u beyond page capacity %u", rid.slot,
                     tuples_per_page_));
  }
  // Materialize any pages between the flushed prefix and the logged
  // position. Pages the crash already flushed are reused as-is.
  SMADB_ASSIGN_OR_RETURN(uint32_t disk_pages, pool_->disk()->NumPages(file_));
  while (disk_pages <= rid.page_no) {
    uint32_t page_no;
    SMADB_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage(file_, &page_no));
    ++disk_pages;
  }
  num_pages_.store(std::max(num_pages_.load(std::memory_order_relaxed),
                            rid.page_no + 1),
                   std::memory_order_release);
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(rid.page_no));
  Page* page = guard.MutablePage();
  std::memcpy(page->data + tuple_area_offset_ + rid.slot * schema_.tuple_size(),
              tuple_bytes.data(), schema_.tuple_size());
  if (PageTupleCount(*page) < rid.slot + 1) {
    page->WriteAt<uint16_t>(0, static_cast<uint16_t>(rid.slot + 1));
  }
  // Canonical insert state: live. A later delete record re-tombstones it.
  page->data[kPageHeaderSize + rid.slot / 8] &=
      static_cast<uint8_t>(~(1u << (rid.slot % 8)));
  num_tuples_.fetch_add(1, std::memory_order_release);
  epoch_.store(epoch_after, std::memory_order_release);
  return RefreshAppendState();
}

Status Table::ApplyUpdate(Rid rid, size_t col, const util::Value& v,
                          uint64_t epoch_after) {
  if (rid.page_no >= num_pages() || col >= schema_.num_fields()) {
    return Status::Corruption(
        util::Format("replayed update outside table '%s' (page %u, col %zu)",
                     name_.c_str(), rid.page_no, col));
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(rid.page_no));
  TupleBuffer scratch(&schema_);
  scratch.SetValue(col, v);
  Page* page = guard.MutablePage();
  uint8_t* tuple =
      page->data + tuple_area_offset_ + rid.slot * schema_.tuple_size();
  std::memcpy(tuple + schema_.offset(col),
              scratch.data() + schema_.offset(col), schema_.field(col).width());
  epoch_.store(epoch_after, std::memory_order_release);
  return Status::OK();
}

Status Table::ApplyDelete(Rid rid, uint64_t epoch_after) {
  if (rid.page_no >= num_pages()) {
    return Status::Corruption(util::Format(
        "replayed delete outside table '%s' (page %u)", name_.c_str(),
        rid.page_no));
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(rid.page_no));
  Page* page = guard.MutablePage();
  page->data[kPageHeaderSize + rid.slot / 8] |=
      static_cast<uint8_t>(1u << (rid.slot % 8));
  num_deleted_.fetch_add(1, std::memory_order_release);
  epoch_.store(epoch_after, std::memory_order_release);
  return Status::OK();
}

Result<TupleBuffer> Table::ReadTuple(Rid rid) {
  if (rid.page_no >= num_pages()) {
    return Status::OutOfRange(util::Format("page %u >= %u", rid.page_no,
                                           num_pages()));
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(rid.page_no));
  if (rid.slot >= PageTupleCount(*guard.page())) {
    return Status::OutOfRange(util::Format("slot %u beyond page tuple count",
                                           rid.slot));
  }
  if (PageSlotDeleted(*guard.page(), rid.slot)) {
    return Status::NotFound("tuple is deleted");
  }
  TupleBuffer out(&schema_);
  TupleRef ref = PageTuple(*guard.page(), rid.slot);
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    out.SetValue(c, ref.GetValue(c));
  }
  return out;
}

Status Table::UpdateColumn(Rid rid, size_t col, const util::Value& v) {
  if (rid.page_no >= num_pages()) {
    return Status::OutOfRange(util::Format("page %u >= %u", rid.page_no,
                                           num_pages()));
  }
  if (col >= schema_.num_fields()) {
    return Status::OutOfRange(util::Format("column %zu out of range", col));
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(rid.page_no));
  if (rid.slot >= PageTupleCount(*guard.page())) {
    return Status::OutOfRange(util::Format("slot %u beyond page tuple count",
                                           rid.slot));
  }
  if (PageSlotDeleted(*guard.page(), rid.slot)) {
    return Status::NotFound("tuple is deleted");
  }
  // Assemble the new column bytes via a scratch buffer, then splice in place.
  TupleBuffer scratch(&schema_);
  scratch.SetValue(col, v);
  Page* page = guard.MutablePage();
  uint8_t* tuple =
      page->data + tuple_area_offset_ + rid.slot * schema_.tuple_size();
  std::memcpy(tuple + schema_.offset(col), scratch.data() + schema_.offset(col),
              schema_.field(col).width());
  epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status Table::Vacuum() {
  const uint64_t deleted = num_deleted_.load(std::memory_order_relaxed);
  if (deleted == 0) return Status::OK();
  const size_t bitmap_bytes = (tuples_per_page_ + 7) / 8;
  const uint32_t pages = num_pages();
  for (uint32_t p = 0; p < pages; ++p) {
    SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(p));
    const uint16_t n = PageTupleCount(*guard.page());
    bool any_deleted = false;
    for (uint16_t s = 0; s < n && !any_deleted; ++s) {
      any_deleted = PageSlotDeleted(*guard.page(), s);
    }
    if (!any_deleted) continue;
    Page* page = guard.MutablePage();
    uint16_t write = 0;
    for (uint16_t s = 0; s < n; ++s) {
      if (PageSlotDeleted(*page, s)) continue;
      if (write != s) {
        std::memmove(
            page->data + tuple_area_offset_ + write * schema_.tuple_size(),
            page->data + tuple_area_offset_ + s * schema_.tuple_size(),
            schema_.tuple_size());
      }
      ++write;
    }
    std::memset(page->data + kPageHeaderSize, 0, bitmap_bytes);
    page->WriteAt<uint16_t>(0, write);
  }
  num_tuples_.fetch_sub(deleted, std::memory_order_release);
  num_deleted_.store(0, std::memory_order_release);
  // The tail page's slot count may have shrunk; re-derive the append word.
  return RefreshAppendState();
}

Status Table::DeleteTuple(Rid rid) {
  if (rid.page_no >= num_pages()) {
    return Status::OutOfRange(util::Format("page %u >= %u", rid.page_no,
                                           num_pages()));
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, FetchPage(rid.page_no));
  if (rid.slot >= PageTupleCount(*guard.page())) {
    return Status::OutOfRange(util::Format("slot %u beyond page tuple count",
                                           rid.slot));
  }
  if (PageSlotDeleted(*guard.page(), rid.slot)) {
    return Status::NotFound("tuple already deleted");
  }
  Page* page = guard.MutablePage();
  page->data[kPageHeaderSize + rid.slot / 8] |=
      static_cast<uint8_t>(1u << (rid.slot % 8));
  num_deleted_.fetch_add(1, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

}  // namespace smadb::storage
