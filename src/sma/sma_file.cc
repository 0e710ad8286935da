#include "sma/sma_file.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/string_util.h"

namespace smadb::sma {

using storage::Page;
using storage::PageGuard;
using util::Result;
using util::Status;

Result<std::unique_ptr<SmaFile>> SmaFile::Create(storage::BufferPool* pool,
                                                 const std::string& file_name,
                                                 uint32_t entry_width) {
  if (entry_width != 4 && entry_width != 8) {
    return Status::InvalidArgument(
        util::Format("SMA entry width must be 4 or 8, got %u", entry_width));
  }
  SMADB_ASSIGN_OR_RETURN(storage::FileId file, pool->disk()->CreateFile(file_name));
  return std::unique_ptr<SmaFile>(new SmaFile(pool, file, entry_width));
}

Result<std::unique_ptr<SmaFile>> SmaFile::Open(storage::BufferPool* pool,
                                               const std::string& file_name,
                                               uint32_t entry_width,
                                               uint64_t num_entries) {
  if (entry_width != 4 && entry_width != 8) {
    return Status::InvalidArgument(
        util::Format("SMA entry width must be 4 or 8, got %u", entry_width));
  }
  SMADB_ASSIGN_OR_RETURN(storage::FileId file, pool->disk()->FindFile(file_name));
  auto sma = std::unique_ptr<SmaFile>(new SmaFile(pool, file, entry_width));
  const uint32_t pages = static_cast<uint32_t>(
      (num_entries + sma->entries_per_page_ - 1) / sma->entries_per_page_);
  sma->num_entries_.store(num_entries, std::memory_order_relaxed);
  sma->num_pages_.store(pages, std::memory_order_relaxed);
  SMADB_ASSIGN_OR_RETURN(uint32_t disk_pages, pool->disk()->NumPages(file));
  if (disk_pages < pages) {
    return Status::Corruption(util::Format(
        "SMA-file '%s': manifest says %u pages but file holds %u",
        file_name.c_str(), pages, disk_pages));
  }
  return sma;
}

int64_t SmaFile::DecodeAt(const Page& page, uint64_t idx) const {
  const size_t off = (idx % entries_per_page_) * entry_width_;
  if (entry_width_ == 4) {
    return page.ReadAt<int32_t>(off);
  }
  return page.ReadAt<int64_t>(off);
}

void SmaFile::EncodeAt(Page* page, uint64_t idx, int64_t value) const {
  const size_t off = (idx % entries_per_page_) * entry_width_;
  if (entry_width_ == 4) {
    assert(value >= INT32_MIN && value <= INT32_MAX);
    page->WriteAt<int32_t>(off, static_cast<int32_t>(value));
  } else {
    page->WriteAt<int64_t>(off, value);
  }
}

Status SmaFile::Append(int64_t value) {
  const uint64_t idx = num_entries_.load(std::memory_order_relaxed);
  const uint32_t pages = num_pages_.load(std::memory_order_relaxed);
  PageGuard guard;
  if (idx % entries_per_page_ == 0) {
    SMADB_ASSIGN_OR_RETURN(guard, pool_->NewPage(file_, nullptr));
    num_pages_.store(pages + 1, std::memory_order_release);
  } else {
    SMADB_ASSIGN_OR_RETURN(guard, pool_->Fetch(file_, pages - 1));
  }
  EncodeAt(guard.MutablePage(), idx, value);
  // Publish AFTER the entry bytes: a concurrent cursor that acquire-loads
  // the new count is guaranteed to see the encoded value.
  num_entries_.store(idx + 1, std::memory_order_release);
  return Status::OK();
}

Status SmaFile::Clear() {
  SMADB_RETURN_NOT_OK(pool_->DiscardFile(file_));
  SMADB_RETURN_NOT_OK(pool_->disk()->TruncateFile(file_));
  num_entries_.store(0, std::memory_order_relaxed);
  num_pages_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

Result<int64_t> SmaFile::Get(uint64_t idx) const {
  const uint64_t n = num_entries_.load(std::memory_order_acquire);
  if (idx >= n) {
    return Status::OutOfRange(util::Format(
        "SMA entry %llu out of range (%llu entries)",
        static_cast<unsigned long long>(idx),
        static_cast<unsigned long long>(n)));
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(file_, PageOfEntry(idx)));
  return DecodeAt(*guard.page(), idx);
}

Status SmaFile::Set(uint64_t idx, int64_t value) {
  const uint64_t n = num_entries_.load(std::memory_order_acquire);
  if (idx >= n) {
    return Status::OutOfRange(util::Format(
        "SMA entry %llu out of range (%llu entries)",
        static_cast<unsigned long long>(idx),
        static_cast<unsigned long long>(n)));
  }
  SMADB_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(file_, PageOfEntry(idx)));
  EncodeAt(guard.MutablePage(), idx, value);
  return Status::OK();
}

Status SmaFile::Cursor::Read(uint64_t first, uint64_t end, int64_t* out) {
  const uint64_t n = file_->num_entries_.load(std::memory_order_acquire);
  if (end > n) {
    return Status::OutOfRange(util::Format(
        "SMA entries up to %llu out of range (%llu entries)",
        static_cast<unsigned long long>(end),
        static_cast<unsigned long long>(n)));
  }
  const uint32_t per = file_->entries_per_page_;
  for (uint64_t i = first; i < end;) {
    const int64_t page = file_->PageOfEntry(i);
    if (page != cached_page_) {
      SMADB_ASSIGN_OR_RETURN(guard_, file_->pool_->Fetch(
                                         file_->file_,
                                         static_cast<uint32_t>(page)));
      cached_page_ = page;
    }
    const uint64_t stop =
        std::min<uint64_t>(end, static_cast<uint64_t>(page + 1) * per);
    const uint8_t* src = guard_.page()->data + (i % per) * file_->entry_width_;
    int64_t* dst = out + (i - first);
    const size_t count = static_cast<size_t>(stop - i);
    if (file_->entry_width_ == 4) {
      for (size_t k = 0; k < count; ++k) {
        int32_t v;
        std::memcpy(&v, src + k * sizeof(int32_t), sizeof(v));
        dst[k] = v;
      }
    } else {
      std::memcpy(dst, src, count * sizeof(int64_t));
    }
    i = stop;
  }
  return Status::OK();
}

Result<int64_t> SmaFile::Cursor::Get(uint64_t idx) {
  const uint64_t n = file_->num_entries_.load(std::memory_order_acquire);
  if (idx >= n) {
    return Status::OutOfRange(util::Format(
        "SMA entry %llu out of range (%llu entries)",
        static_cast<unsigned long long>(idx),
        static_cast<unsigned long long>(n)));
  }
  const int64_t page = file_->PageOfEntry(idx);
  if (page != cached_page_) {
    SMADB_ASSIGN_OR_RETURN(
        guard_, file_->pool_->Fetch(file_->file_, static_cast<uint32_t>(page)));
    cached_page_ = page;
  }
  return file_->DecodeAt(*guard_.page(), idx);
}

}  // namespace smadb::sma
