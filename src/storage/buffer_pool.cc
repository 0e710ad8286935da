#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <thread>

#include "util/crc32c.h"
#include "util/string_util.h"

namespace smadb::storage {

using util::Result;
using util::Status;
using util::StatusCode;

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this == &o) return *this;  // self-move keeps the pin
  Release();                     // drop the old pin before adopting
  pool_ = o.pool_;
  frame_ = o.frame_;
  page_ = o.page_;
  o.pool_ = nullptr;
  o.page_ = nullptr;
  return *this;
}

PageGuard::~PageGuard() { Release(); }

Page* PageGuard::MutablePage() {
  assert(valid());
  pool_->MarkDirty(frame_);
  return page_;
}

void PageGuard::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->Unpin(frame_);
  }
  pool_ = nullptr;
  page_ = nullptr;
}

BufferPool::PageTable::PageTable(size_t capacity) {
  // At most half full: every probe chain ends at an empty slot soon.
  const size_t slots = std::bit_ceil(std::max<size_t>(2 * capacity, 2));
  slots_.resize(slots);
  mask_ = slots - 1;
  shift_ = 64 - std::countr_zero(slots);
}

uint32_t BufferPool::PageTable::Find(uint64_t key) const {
  for (size_t i = Home(key);; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.frame == kNoFrame) return kNoFrame;
    if (slot.key == key) return slot.frame;
  }
}

void BufferPool::PageTable::Insert(uint64_t key, uint32_t frame) {
  size_t i = Home(key);
  while (slots_[i].frame != kNoFrame) i = (i + 1) & mask_;
  slots_[i] = {key, frame};
  ++size_;
}

void BufferPool::PageTable::Erase(uint64_t key) {
  size_t hole = Home(key);
  while (slots_[hole].key != key || slots_[hole].frame == kNoFrame) {
    assert(slots_[hole].frame != kNoFrame);
    hole = (hole + 1) & mask_;
  }
  // Shift later entries of the chain back into the hole, unless their home
  // lies cyclically after the hole (moving them would hide them).
  for (size_t j = (hole + 1) & mask_; slots_[j].frame != kNoFrame;
       j = (j + 1) & mask_) {
    const size_t home = Home(slots_[j].key);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].frame = kNoFrame;
  --size_;
}

BufferPool::BufferPool(DiskBackend* disk, BufferPoolOptions options)
    : disk_(disk),
      options_(options),
      frames_(options.capacity_pages),
      table_(options.capacity_pages) {
  assert(options.capacity_pages > 0 && options.capacity_pages < kNoFrame);
  free_list_.reserve(options.capacity_pages);
  // Hand out low indices first.
  for (size_t i = options.capacity_pages; i > 0; --i) {
    free_list_.push_back(static_cast<uint32_t>(i - 1));
  }
}

PageRun& PageRun::operator=(PageRun&& o) noexcept {
  if (this == &o) return *this;  // self-move keeps the pins
  Release();                     // drop the old pins before adopting
  pool_ = o.pool_;
  first_ = o.first_;
  size_ = o.size_;
  std::copy_n(o.frames_.begin(), size_, frames_.begin());
  o.pool_ = nullptr;
  o.size_ = 0;
  return *this;
}

const Page* PageRun::page(uint32_t page_no) const {
  assert(Contains(page_no));
  return &pool_->frames_[frames_[page_no - first_]].page;
}

void PageRun::Release() {
  if (pool_ != nullptr && size_ > 0) pool_->UnpinRun(*this);
  pool_ = nullptr;
  size_ = 0;
}

Status BufferPool::LoadFrames(FileId file, const PageRun& run,
                              uint32_t loads) {
  // The loader owns its loading frames' bytes until it publishes them, so
  // filling them here without the mutex is race-free; which frames those
  // are comes from `loads`, not from the shared frame metadata.
  Page* pages[kRunPages];
  uint32_t crcs[kRunPages];
  for (uint32_t i = 0; i < run.size_;) {
    uint32_t n = 0;  // the stretch of loading frames from page first_ + i
    while (i + n < run.size_ && (loads & (1u << (i + n)))) {
      pages[n] = &frames_[run.frames_[i + n]].page;
      ++n;
    }
    if (n == 0) {
      ++i;
      continue;
    }
    const uint32_t start = run.first_ + i;
    i += n;
    Status read;
    uint32_t done = 0;  // pages delivered; a retry resumes at the failed one
    auto backoff = options_.retry_backoff;
    for (int attempt = 0;; ++attempt) {
      uint32_t delivered = 0;
      read = disk_->ReadPages(file, start + done, n - done, pages + done,
                              crcs + done, &delivered);
      done += delivered;
      if (read.ok() || read.code() != StatusCode::kIOError ||
          attempt >= options_.max_read_retries) {
        break;
      }
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    SMADB_RETURN_NOT_OK(read);
    if (!options_.verify_checksums) continue;
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t computed = util::Crc32c(pages[k]->data, kPageSize);
      if (computed != crcs[k]) {
        checksum_failures_.fetch_add(1, std::memory_order_relaxed);
        return Status::Corruption(util::Format(
            "checksum mismatch on file '%s' page %u (stored %08x, read %08x)",
            disk_->FileName(file).c_str(), start + k, crcs[k], computed));
      }
    }
  }
  return Status::OK();
}

Status BufferPool::ChargePinLocked() {
  if (options_.pin_tracker != nullptr) {
    SMADB_RETURN_NOT_OK(
        options_.pin_tracker->TryCharge(kPageSize, "BufferPool.pins"));
  }
  ++pinned_frames_;
  return Status::OK();
}

void BufferPool::ReleasePinLocked() {
  --pinned_frames_;
  if (options_.pin_tracker != nullptr) {
    options_.pin_tracker->Release(kPageSize, "BufferPool.pins");
  }
}

Result<bool> BufferPool::PinLocked(std::unique_lock<std::mutex>* lock,
                                   FileId file, PageRun* run,
                                   uint32_t* loads) {
  const bool first = run->size_ == 0;
  const uint32_t page_no = run->end();
  const uint64_t key = Key(file, page_no);
  // A later page may not take the pool past three quarters pinned.
  const auto budget_left = [&] {
    return first || (pinned_frames_ + 1) * 4 <= frames_.size() * 3;
  };
  int wait_rounds = 0;
  while (true) {
    // Re-checked after every wait: another thread may have loaded the page
    // (or freed a frame) while we slept.
    if (const uint32_t idx = table_.Find(key); idx != kNoFrame) {
      Frame& fr = frames_[idx];
      if (fr.loading) {
        // Its loader holds no latch and finishes in bounded time, so the
        // first page may wait; a later page ends the run, which holds pins.
        if (!first) return false;
        load_done_.wait(*lock);
        continue;
      }
      if (fr.pin_count == 0) {
        if (!budget_left()) return false;
        // The 0 -> 1 transition charges the governor's tracker; rejection
        // leaves the frame cached and unpinned.
        if (Status charge = ChargePinLocked(); !charge.ok()) {
          if (first) return charge;
          return false;
        }
        if (fr.in_lru) LruUnlinkLocked(idx);
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      ++fr.pin_count;
      run->frames_[run->size_++] = idx;
      return true;
    }
    if (!budget_left()) return false;
    Result<uint32_t> idx_r = GetFreeFrameLocked();
    if (!idx_r.ok()) {
      if (idx_r.status().code() != StatusCode::kResourceExhausted) {
        return idx_r.status();
      }
      if (!first) return false;
      // All frames pinned: wait (bounded) for a pin release, then retry.
      if (wait_rounds >= options_.pinned_wait_rounds) {
        return Status::ResourceExhausted(util::Format(
            "all %zu buffer frames pinned while fetching file '%s' page %u "
            "(waited %d x %lld ms)",
            frames_.size(), disk_->FileName(file).c_str(), page_no,
            options_.pinned_wait_rounds,
            static_cast<long long>(options_.pinned_wait_quantum.count())));
      }
      ++wait_rounds;
      frame_available_.wait_for(*lock, options_.pinned_wait_quantum);
      continue;
    }
    const uint32_t idx = *idx_r;
    if (Status charge = ChargePinLocked(); !charge.ok()) {
      free_list_.push_back(idx);
      if (first) return charge;
      return false;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    Frame& fr = frames_[idx];
    fr.file = file;
    fr.page_no = page_no;
    fr.pin_count = 1;
    fr.dirty = false;
    fr.used = true;
    fr.loading = true;
    table_.Insert(key, idx);
    *loads |= 1u << run->size_;
    run->frames_[run->size_++] = idx;
    return true;
  }
}

void BufferPool::AbandonLocked(PageRun* run) {
  for (uint32_t i = 0; i < run->size_; ++i) {
    const uint32_t idx = run->frames_[i];
    Frame& fr = frames_[idx];
    if (!fr.loading) {
      UnpinLocked(idx);
      continue;
    }
    // Only this run pins its loading frames: drop them uncached.
    table_.Erase(Key(fr.file, fr.page_no));
    fr.loading = false;
    fr.used = false;
    fr.pin_count = 0;
    ReleasePinLocked();
    free_list_.push_back(idx);
    frame_available_.notify_one();
  }
  run->size_ = 0;
  load_done_.notify_all();
}

Result<PageRun> BufferPool::PinRun(FileId file, uint32_t first, uint32_t n) {
  assert(n > 0);
  n = std::min(n, kRunPages);
  PageRun run;
  run.pool_ = this;
  run.first_ = first;
  uint32_t loads = 0;
  {
    auto lock = Lock();
    while (run.size_ < n) {
      Result<bool> pinned = PinLocked(&lock, file, &run, &loads);
      if (!pinned.ok()) {
        AbandonLocked(&run);
        return pinned.status();
      }
      if (!*pinned) break;
    }
  }
  if (loads == 0) return run;
  const Status loaded = LoadFrames(file, run, loads);
  const auto lock = Lock();
  if (!loaded.ok()) {
    AbandonLocked(&run);
    return loaded;
  }
  for (uint32_t i = 0; i < run.size_; ++i) {
    if (loads & (1u << i)) frames_[run.frames_[i]].loading = false;
  }
  load_done_.notify_all();
  return run;
}

Result<PageGuard> BufferPool::Fetch(FileId file, uint32_t page_no) {
  SMADB_ASSIGN_OR_RETURN(PageRun run, PinRun(file, page_no, 1));
  // Hand the run's one pin to a guard.
  const uint32_t frame = run.frames_[0];
  run.size_ = 0;
  return PageGuard(this, frame, &frames_[frame].page);
}

Result<PageGuard> BufferPool::NewPage(FileId file, uint32_t* page_no_out) {
  auto lock = Lock();
  Result<uint32_t> idx_r = GetFreeFrameLocked();
  int wait_rounds = 0;
  while (!idx_r.ok() &&
         idx_r.status().code() == StatusCode::kResourceExhausted &&
         wait_rounds < options_.pinned_wait_rounds) {
    ++wait_rounds;
    frame_available_.wait_for(lock, options_.pinned_wait_quantum);
    idx_r = GetFreeFrameLocked();
  }
  if (!idx_r.ok()) {
    if (idx_r.status().code() == StatusCode::kResourceExhausted) {
      return Status::ResourceExhausted(util::Format(
          "all %zu buffer frames pinned while allocating a page of file '%s'",
          frames_.size(), disk_->FileName(file).c_str()));
    }
    return idx_r.status();
  }
  if (Status charge = ChargePinLocked(); !charge.ok()) {
    free_list_.push_back(*idx_r);
    return charge;
  }
  Result<uint32_t> page_no_r = disk_->AllocatePage(file);
  if (!page_no_r.ok()) {
    ReleasePinLocked();
    free_list_.push_back(*idx_r);
    return page_no_r.status();
  }
  const uint32_t page_no = *page_no_r;
  if (page_no_out != nullptr) *page_no_out = page_no;
  Frame& fr = frames_[*idx_r];
  frames_[*idx_r].page.Zero();
  fr.file = file;
  fr.page_no = page_no;
  fr.pin_count = 1;
  fr.dirty = true;  // must reach disk eventually
  fr.used = true;
  table_.Insert(Key(file, page_no), *idx_r);
  return PageGuard(this, *idx_r, &frames_[*idx_r].page);
}

void BufferPool::Unpin(uint32_t frame) {
  const auto lock = Lock();
  UnpinLocked(frame);
}

void BufferPool::UnpinRun(const PageRun& run) {
  const auto lock = Lock();
  for (uint32_t i = 0; i < run.size_; ++i) UnpinLocked(run.frames_[i]);
}

void BufferPool::UnpinLocked(uint32_t frame) {
  Frame& fr = frames_[frame];
  assert(fr.pin_count > 0);
  if (--fr.pin_count == 0) {
    ReleasePinLocked();
    LruPushFrontLocked(frame);
    frame_available_.notify_one();
  }
}

void BufferPool::LruPushFrontLocked(uint32_t frame) {
  Frame& fr = frames_[frame];
  assert(!fr.in_lru);
  fr.lru_prev = kNoFrame;
  fr.lru_next = lru_head_;
  if (lru_head_ != kNoFrame) {
    frames_[lru_head_].lru_prev = frame;
  } else {
    lru_tail_ = frame;
  }
  lru_head_ = frame;
  fr.in_lru = true;
}

void BufferPool::LruUnlinkLocked(uint32_t frame) {
  Frame& fr = frames_[frame];
  assert(fr.in_lru);
  if (fr.lru_prev != kNoFrame) {
    frames_[fr.lru_prev].lru_next = fr.lru_next;
  } else {
    lru_head_ = fr.lru_next;
  }
  if (fr.lru_next != kNoFrame) {
    frames_[fr.lru_next].lru_prev = fr.lru_prev;
  } else {
    lru_tail_ = fr.lru_prev;
  }
  fr.lru_prev = kNoFrame;
  fr.lru_next = kNoFrame;
  fr.in_lru = false;
}

void BufferPool::MarkDirty(uint32_t frame) {
  const auto lock = Lock();
  frames_[frame].dirty = true;
}

Result<uint32_t> BufferPool::GetFreeFrameLocked() {
  if (!free_list_.empty()) {
    const uint32_t idx = free_list_.back();
    free_list_.pop_back();
    return idx;
  }
  // Evict the least recently used unpinned frame.
  if (lru_tail_ == kNoFrame) {
    return Status::ResourceExhausted("buffer pool exhausted: all frames pinned");
  }
  const uint32_t victim = lru_tail_;
  LruUnlinkLocked(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  SMADB_RETURN_NOT_OK(EvictFrameLocked(victim));
  return victim;
}

Status BufferPool::BarrierLocked() {
  if (options_.pre_writeback) {
    SMADB_RETURN_NOT_OK(options_.pre_writeback());
  }
  return Status::OK();
}

Status BufferPool::EvictFrameLocked(uint32_t idx) {
  Frame& fr = frames_[idx];
  assert(fr.used && fr.pin_count == 0);
  if (fr.dirty) {
    // WAL-before-data: the log must be durable before the mutation it
    // describes can reach the backend.
    SMADB_RETURN_NOT_OK(BarrierLocked());
    SMADB_RETURN_NOT_OK(disk_->WritePage(fr.file, fr.page_no, frames_[idx].page));
    dirty_writebacks_.fetch_add(1, std::memory_order_relaxed);
    fr.dirty = false;
  }
  table_.Erase(Key(fr.file, fr.page_no));
  fr.used = false;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  const auto lock = Lock();
  bool barriered = false;
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& fr = frames_[i];
    if (fr.used && fr.dirty) {
      if (!barriered) {
        // One WAL barrier covers the whole flush: nothing can dirty a frame
        // while we hold the pool mutex.
        SMADB_RETURN_NOT_OK(BarrierLocked());
        barriered = true;
      }
      SMADB_RETURN_NOT_OK(disk_->WritePage(fr.file, fr.page_no, frames_[i].page));
      dirty_writebacks_.fetch_add(1, std::memory_order_relaxed);
      fr.dirty = false;
    }
  }
  return Status::OK();
}

template <typename Drop>
Status BufferPool::DropFramesLocked(Drop drop, bool writeback,
                                    const char* what) {
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& fr = frames_[i];
    if (!fr.used || !drop(fr)) continue;
    if (fr.pin_count > 0) {
      return Status::Internal(util::Format("%s with pinned page (file %u page %u)",
                                           what, fr.file, fr.page_no));
    }
    if (fr.in_lru) LruUnlinkLocked(i);
    // Without write-back the mutation is dropped, as a crash would.
    if (!writeback) fr.dirty = false;
    SMADB_RETURN_NOT_OK(EvictFrameLocked(i));
    free_list_.push_back(i);
  }
  frame_available_.notify_all();
  return Status::OK();
}

Status BufferPool::DropAll() {
  const auto lock = Lock();
  return DropFramesLocked([](const Frame&) { return true; },
                          /*writeback=*/true, "DropAll");
}

Status BufferPool::DropFile(FileId file) {
  const auto lock = Lock();
  return DropFramesLocked([file](const Frame& fr) { return fr.file == file; },
                          /*writeback=*/true, "DropFile");
}

Status BufferPool::DiscardFile(FileId file) {
  const auto lock = Lock();
  return DropFramesLocked([file](const Frame& fr) { return fr.file == file; },
                          /*writeback=*/false, "DropFile");
}

Status BufferPool::DiscardAll() {
  const auto lock = Lock();
  return DropFramesLocked([](const Frame&) { return true; },
                          /*writeback=*/false, "DiscardAll");
}

}  // namespace smadb::storage
