#include "storage/disk.h"

#include <algorithm>

#include "util/crc32c.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace smadb::storage {

using util::FaultKind;
using util::Result;
using util::Status;

namespace {

// Checksum of an all-zero page (what AllocatePage hands out), computed once.
uint32_t ZeroPageCrc() {
  static const uint32_t crc = [] {
    Page p;
    p.Zero();
    return util::Crc32c(p.data, kPageSize);
  }();
  return crc;
}

}  // namespace

std::string_view BackendKindToString(BackendKind k) {
  switch (k) {
    case BackendKind::kSimulated:
      return "sim";
    case BackendKind::kFile:
      return "file";
  }
  return "unknown";
}

uint64_t FaultFlipBitOf(FileId file, uint32_t page_no) {
  uint64_t h = (static_cast<uint64_t>(file) << 32) | page_no;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h % (kPageSize * 8);
}

void FaultFlipBit(Page* page, uint64_t bit) {
  bit %= kPageSize * 8;
  page->data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

// ---------------------------------------------------------------------------
// Shared failpoint routing and access accounting (every backend).

Status DiskBackend::ConsultReadFaults(const std::string& file_name,
                                      uint32_t first, uint32_t n,
                                      uint32_t* clean,
                                      std::vector<uint32_t>* flips) {
  flips->clear();
  for (uint32_t i = 0; i < n; ++i) {
    *clean = i;
    auto fk = util::fault::Hit("disk.read", file_name);
    if (fk && *fk != FaultKind::kBitFlip) {
      return util::InjectedFaultStatus(
          *fk, util::Format("disk.read '%s' page %u", file_name.c_str(),
                            first + i));
    }
    if (fk == FaultKind::kBitFlip ||
        util::fault::Hit("disk.page_bitflip", file_name).has_value()) {
      flips->push_back(i);
    }
  }
  *clean = n;
  return Status::OK();
}

Status DiskBackend::ConsultWriteFaults(const std::string& file_name,
                                       uint32_t page_no, bool* flip_stored) {
  *flip_stored = false;
  auto fk = util::fault::Hit("disk.write", file_name);
  if (fk && *fk != FaultKind::kBitFlip) {
    return util::InjectedFaultStatus(
        *fk, util::Format("disk.write '%s' page %u", file_name.c_str(),
                          page_no));
  }
  if (fk == FaultKind::kBitFlip) *flip_stored = true;
  return Status::OK();
}

Status DiskBackend::ConsultSyncFaults() {
  if (auto fk = util::fault::Hit("disk.sync")) {
    return util::InjectedFaultStatus(*fk, "disk.sync");
  }
  return Status::OK();
}

void DiskBackend::AccountRead(int64_t* last, uint32_t page_no) {
  ++stats_.page_reads;
  const int64_t gap = static_cast<int64_t>(page_no) - *last;
  if (gap == 1) {
    ++stats_.sequential_reads;
  } else if (gap > 1 && gap <= kNearSeekWindowPages) {
    ++stats_.near_reads;
  } else {
    ++stats_.random_reads;
  }
  *last = page_no;
}

void DiskBackend::AccountWrite(int64_t* last, uint32_t page_no) {
  ++stats_.page_writes;
  const int64_t gap = static_cast<int64_t>(page_no) - *last;
  if (gap == 1) {
    ++stats_.sequential_writes;
  } else if (gap > 1 && gap <= kNearSeekWindowPages) {
    ++stats_.near_writes;
  } else {
    ++stats_.random_writes;
  }
  *last = page_no;
}

// ---------------------------------------------------------------------------
// SimulatedDisk.

Result<FileId> SimulatedDisk::CreateFile(std::string name) {
  const auto lock = LockForMutation();
  if (name.empty()) {
    return Status::InvalidArgument(
        "file name must be non-empty (empty marks a removed file)");
  }
  FileId reuse = kInvalidFile;
  for (size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) {
      return Status::AlreadyExists("file '" + name + "' already exists");
    }
    if (files_[i].name.empty() && reuse == kInvalidFile) {
      reuse = static_cast<FileId>(i);
    }
  }
  File file;
  file.name = std::move(name);
  if (reuse != kInvalidFile) {
    files_[reuse] = std::move(file);
    return reuse;
  }
  files_.push_back(std::move(file));
  return static_cast<FileId>(files_.size() - 1);
}

Result<FileId> SimulatedDisk::FindFile(std::string_view name) const {
  const auto lock = Lock();
  for (size_t i = 0; i < files_.size(); ++i) {
    if (!files_[i].name.empty() && files_[i].name == name) {
      return static_cast<FileId>(i);
    }
  }
  return Status::NotFound("no file named '" + std::string(name) + "'");
}

Status SimulatedDisk::RemoveFile(FileId file) {
  const auto lock = LockForMutation();
  if (file >= files_.size() || files_[file].name.empty()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  File& f = files_[file];
  f.name.clear();
  f.pages.clear();
  f.checksums.clear();
  f.free_pages.clear();
  f.last_read = -2;
  f.last_write = -2;
  return Status::OK();
}

Result<uint32_t> SimulatedDisk::AllocatePage(FileId file) {
  const auto lock = LockForMutation();
  if (file >= files_.size() || files_[file].name.empty()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  File& f = files_[file];
  if (!f.free_pages.empty()) {
    const uint32_t page_no = f.free_pages.back();
    f.free_pages.pop_back();
    f.pages[page_no]->Zero();
    f.checksums[page_no] = ZeroPageCrc();
    return page_no;
  }
  auto page = std::make_unique<Page>();
  page->Zero();
  f.pages.push_back(std::move(page));
  f.checksums.push_back(ZeroPageCrc());
  return static_cast<uint32_t>(f.pages.size() - 1);
}

Status SimulatedDisk::FreePage(FileId file, uint32_t page_no) {
  const auto lock = LockForMutation();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  File& f = files_[file];
  if (std::find(f.free_pages.begin(), f.free_pages.end(), page_no) !=
      f.free_pages.end()) {
    return Status::InvalidArgument(
        util::Format("page %u of file '%s' is already free", page_no,
                     f.name.c_str()));
  }
  f.pages[page_no]->Zero();
  f.checksums[page_no] = ZeroPageCrc();
  f.free_pages.push_back(page_no);
  return Status::OK();
}

Status SimulatedDisk::CheckBounds(FileId file, uint32_t page_no,
                                  uint32_t n) const {
  if (file >= files_.size()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  const size_t pages = files_[file].pages.size();
  if (static_cast<uint64_t>(page_no) + n > pages) {
    // Name the first missing page of the run.
    return Status::OutOfRange(util::Format(
        "page %zu out of range for file '%s' (%zu pages)",
        std::max<size_t>(page_no, pages), files_[file].name.c_str(), pages));
  }
  return Status::OK();
}

Status SimulatedDisk::ReadPages(FileId file, uint32_t first, uint32_t n,
                                Page* const* out, uint32_t* crcs,
                                uint32_t* delivered) {
  if (delivered != nullptr) *delivered = 0;
  const std::shared_lock<std::shared_mutex> transfer(transfer_mu_);
  const File* f = nullptr;
  uint32_t clean = 0;
  std::vector<uint32_t> flips;
  Status fault;
  {
    const auto lock = Lock();
    SMADB_RETURN_NOT_OK(CheckBounds(file, first, n));
    File& held = files_[file];
    // Failpoints: an error stops the read at its page, which is never
    // transferred or accounted; bit flips corrupt only the delivered copy
    // (the stored page — and its checksum — stay intact, so the flip is
    // silent until verified).
    fault = ConsultReadFaults(held.name, first, n, &clean, &flips);
    for (uint32_t i = 0; i < clean; ++i) {
      if (crcs != nullptr) crcs[i] = held.checksums[first + i];
      AccountRead(&held.last_read, first + i);
    }
    f = &held;
  }
  // The copy needs only the shared transfer lock: no mutation can touch
  // the file's pages until it is released.
  for (uint32_t i = 0; i < clean; ++i) *out[i] = *f->pages[first + i];
  for (const uint32_t i : flips) {
    FaultFlipBit(out[i], FaultFlipBitOf(file, first + i));
  }
  if (delivered != nullptr) *delivered = clean;
  return fault;
}

Status SimulatedDisk::WritePage(FileId file, uint32_t page_no,
                                const Page& page) {
  const auto lock = LockForMutation();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  File& f = files_[file];
  bool flip = false;
  SMADB_RETURN_NOT_OK(ConsultWriteFaults(f.name, page_no, &flip));
  *f.pages[page_no] = page;
  // Stamp the checksum of what the writer *meant* to store; a bit-flip
  // fault then corrupts the stored bytes underneath it, which the next
  // verified read detects.
  f.checksums[page_no] = util::Crc32c(page.data, kPageSize);
  if (flip) {
    FaultFlipBit(f.pages[page_no].get(), FaultFlipBitOf(file, page_no));
  }
  AccountWrite(&f.last_write, page_no);
  return Status::OK();
}

Status SimulatedDisk::Sync() {
  const auto lock = Lock();
  SMADB_RETURN_NOT_OK(ConsultSyncFaults());
  ++stats_.syncs;
  return Status::OK();
}

Result<uint32_t> SimulatedDisk::PageChecksum(FileId file,
                                             uint32_t page_no) const {
  const auto lock = Lock();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  return files_[file].checksums[page_no];
}

Status SimulatedDisk::CorruptPageForTesting(FileId file, uint32_t page_no,
                                            uint64_t bit) {
  const auto lock = LockForMutation();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  FaultFlipBit(files_[file].pages[page_no].get(), bit);
  return Status::OK();
}

Status SimulatedDisk::TruncateFile(FileId file) {
  const auto lock = LockForMutation();
  if (file >= files_.size()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  files_[file].pages.clear();
  files_[file].checksums.clear();
  files_[file].free_pages.clear();
  files_[file].last_read = -2;
  files_[file].last_write = -2;
  return Status::OK();
}

Result<uint32_t> SimulatedDisk::NumPages(FileId file) const {
  const auto lock = Lock();
  if (file >= files_.size()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  return static_cast<uint32_t>(files_[file].pages.size());
}

}  // namespace smadb::storage
