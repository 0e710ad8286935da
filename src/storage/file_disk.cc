#include "storage/file_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/crc32c.h"
#include "util/string_util.h"

namespace smadb::storage {

using util::Result;
using util::Status;

namespace {

constexpr const char kSuperblockName[] = "superblock.smadb";
constexpr const char kSuperblockMagic[] = "smadb-superblock v1";

Status ErrnoError(const std::string& op, const std::string& path) {
  const std::string msg = op + " '" + path + "': " + std::strerror(errno);
  if (errno == ENOSPC || errno == EDQUOT) return Status::DiskFull(msg);
  return Status::IOError(msg);
}

uint32_t ZeroPageCrc() {
  static const uint32_t crc = [] {
    Page p;
    p.Zero();
    return util::Crc32c(p.data, kPageSize);
  }();
  return crc;
}

Status PReadFull(int fd, void* buf, size_t n, uint64_t off,
                 const std::string& path) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, p + done, n - done,
                              static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pread", path);
    }
    if (r == 0) {
      return Status::IOError(util::Format(
          "short read from '%s': wanted %zu bytes at offset %llu, file ended",
          path.c_str(), n, static_cast<unsigned long long>(off)));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

// Reads `n` whole pages starting at byte `off` into `pages[0..n)`: one
// preadv per kRunPages pages, more only after a short read or EINTR.
Status PReadPages(int fd, Page* const* pages, uint32_t n, uint64_t off,
                  const std::string& path) {
  for (uint32_t base = 0; base < n; base += kRunPages) {
    const uint32_t count = std::min(kRunPages, n - base);
    iovec iov[kRunPages];
    for (uint32_t i = 0; i < count; ++i) {
      iov[i] = {pages[base + i]->data, kPageSize};
    }
    uint64_t pos = off + static_cast<uint64_t>(base) * kPageSize;
    for (uint32_t next = 0; next < count;) {  // first iovec not yet filled
      const ssize_t r = ::preadv(fd, &iov[next], static_cast<int>(count - next),
                                 static_cast<off_t>(pos));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoError("preadv", path);
      }
      if (r == 0) {
        return Status::IOError(util::Format(
            "short read from '%s': wanted %u pages at offset %llu, file "
            "ended",
            path.c_str(), n, static_cast<unsigned long long>(off)));
      }
      pos += static_cast<uint64_t>(r);
      for (size_t left = static_cast<size_t>(r); left > 0;) {
        const size_t take = std::min(left, iov[next].iov_len);
        iov[next].iov_base = static_cast<uint8_t*>(iov[next].iov_base) + take;
        iov[next].iov_len -= take;
        left -= take;
        if (iov[next].iov_len == 0) ++next;
      }
    }
  }
  return Status::OK();
}

Status PWriteFull(int fd, const void* buf, size_t n, uint64_t off,
                  const std::string& path) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pwrite(fd, p + done, n - done,
                               static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pwrite", path);
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Result<uint64_t> FdSize(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return ErrnoError("fstat", path);
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

FileDiskManager::FileDiskManager(std::string directory)
    : directory_(std::move(directory)) {}

FileDiskManager::~FileDiskManager() {
  for (File& f : files_) {
    if (f.pages_fd >= 0) ::close(f.pages_fd);
    if (f.crc_fd >= 0) ::close(f.crc_fd);
  }
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

Result<std::unique_ptr<FileDiskManager>> FileDiskManager::Open(
    std::string directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create storage directory '" + directory +
                           "': " + ec.message());
  }
  auto mgr =
      std::unique_ptr<FileDiskManager>(new FileDiskManager(std::move(directory)));
  mgr->dir_fd_ = ::open(mgr->directory_.c_str(), O_RDONLY | O_DIRECTORY);
  if (mgr->dir_fd_ < 0) return ErrnoError("open", mgr->directory_);
  SMADB_RETURN_NOT_OK(mgr->Load());
  return mgr;
}

Status FileDiskManager::OpenSegment(FileId id, File* f, bool truncate) {
  const std::string base = directory_ + "/seg" + std::to_string(id);
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  f->pages_fd = ::open((base + ".pages").c_str(), flags, 0644);
  if (f->pages_fd < 0) return ErrnoError("open", base + ".pages");
  f->crc_fd = ::open((base + ".crc").c_str(), flags, 0644);
  if (f->crc_fd < 0) return ErrnoError("open", base + ".crc");
  return Status::OK();
}

Status FileDiskManager::Load() {
  const std::string sb_path = directory_ + "/" + kSuperblockName;
  std::ifstream in(sb_path);
  if (!in.is_open()) return Status::OK();  // fresh directory
  std::string line;
  if (!std::getline(in, line) || line != kSuperblockMagic) {
    return Status::Corruption("bad superblock magic in '" + sb_path + "'");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> tok = util::Split(line, ' ');
    if (tok.size() == 2 && tok[0] == "free") {
      // A removed file's id, kept so ids stay contiguous; the slot is a
      // tombstone until CreateFile reuses it.
      SMADB_ASSIGN_OR_RETURN(uint64_t free_id,
                             util::ParseU64(tok[1], "superblock"));
      if (free_id != files_.size()) {
        return Status::Corruption(util::Format(
            "superblock file ids not contiguous: got %s, expected %zu",
            tok[1].c_str(), files_.size()));
      }
      files_.emplace_back();
      continue;
    }
    if (tok.size() < 3 || tok[0] != "file") {
      return Status::Corruption("bad superblock line '" + line + "'");
    }
    SMADB_ASSIGN_OR_RETURN(uint64_t id, util::ParseU64(tok[1], "superblock"));
    if (id != files_.size()) {
      return Status::Corruption(util::Format(
          "superblock file ids not contiguous: got %llu, expected %zu",
          static_cast<unsigned long long>(id), files_.size()));
    }
    SMADB_ASSIGN_OR_RETURN(std::string name, util::UnescapeToken(tok[2]));
    File f;
    f.name = std::move(name);
    SMADB_RETURN_NOT_OK(OpenSegment(static_cast<FileId>(id), &f,
                                    /*truncate=*/false));
    const std::string base = directory_ + "/seg" + std::to_string(id);

    // Page count is derived from the segment size; a torn tail page (crash
    // mid-extension) is truncated away — WAL replay re-extends the file.
    SMADB_ASSIGN_OR_RETURN(uint64_t bytes, FdSize(f.pages_fd, base + ".pages"));
    f.num_pages = static_cast<uint32_t>(bytes / kPageSize);
    if (bytes % kPageSize != 0 &&
        ::ftruncate(f.pages_fd,
                    static_cast<off_t>(f.num_pages) * kPageSize) != 0) {
      return ErrnoError("ftruncate", base + ".pages");
    }

    // CRC sidecar: read what is covered; entries the crash lost are
    // recomputed from the stored bytes (the page itself is then the only
    // witness — acceptable, since WAL replay rewrites everything after the
    // last checkpoint).
    f.checksums.assign(f.num_pages, 0);
    SMADB_ASSIGN_OR_RETURN(uint64_t crc_bytes, FdSize(f.crc_fd, base + ".crc"));
    const uint32_t covered = std::min<uint32_t>(
        f.num_pages, static_cast<uint32_t>(crc_bytes / sizeof(uint32_t)));
    if (covered > 0) {
      SMADB_RETURN_NOT_OK(PReadFull(f.crc_fd, f.checksums.data(),
                                    covered * sizeof(uint32_t), 0,
                                    base + ".crc"));
    }
    for (uint32_t p = covered; p < f.num_pages; ++p) {
      Page page;
      SMADB_RETURN_NOT_OK(PReadFull(f.pages_fd, page.data, kPageSize,
                                    static_cast<uint64_t>(p) * kPageSize,
                                    base + ".pages"));
      f.checksums[p] = util::Crc32c(page.data, kPageSize);
    }
    if (crc_bytes > static_cast<uint64_t>(f.num_pages) * sizeof(uint32_t) &&
        ::ftruncate(f.crc_fd, static_cast<off_t>(f.num_pages) *
                                  sizeof(uint32_t)) != 0) {
      return ErrnoError("ftruncate", base + ".crc");
    }

    // Free-list entries past the derived page count are stale; drop them.
    for (size_t i = 3; i < tok.size(); ++i) {
      SMADB_ASSIGN_OR_RETURN(uint64_t page_no,
                             util::ParseU64(tok[i], "superblock"));
      if (page_no < f.num_pages) {
        f.free_pages.push_back(static_cast<uint32_t>(page_no));
      }
    }
    files_.push_back(std::move(f));
  }
  return Status::OK();
}

Status FileDiskManager::WriteSuperblock() {
  std::ostringstream out;
  out << kSuperblockMagic << "\n";
  for (size_t id = 0; id < files_.size(); ++id) {
    const File& f = files_[id];
    if (f.name.empty()) {
      out << "free " << id << "\n";
      continue;
    }
    out << "file " << id << " " << util::EscapeToken(f.name);
    for (uint32_t p : f.free_pages) out << " " << p;
    out << "\n";
  }
  const std::string text = out.str();

  const std::string tmp_path = directory_ + "/" + kSuperblockName + ".tmp";
  const std::string final_path = directory_ + "/" + kSuperblockName;
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("open", tmp_path);
  Status st = PWriteFull(fd, text.data(), text.size(), 0, tmp_path);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("fsync", tmp_path);
  ::close(fd);
  SMADB_RETURN_NOT_OK(st);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoError("rename", tmp_path);
  }
  if (::fsync(dir_fd_) != 0) return ErrnoError("fsync", directory_);
  return Status::OK();
}

Status FileDiskManager::CheckBounds(FileId file, uint32_t page_no,
                                    uint32_t n) const {
  if (file >= files_.size()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  const uint32_t pages = files_[file].num_pages;
  if (static_cast<uint64_t>(page_no) + n > pages) {
    // Name the first missing page of the run.
    return Status::OutOfRange(
        util::Format("page %u out of range for file '%s' (%u pages)",
                     std::max(page_no, pages), files_[file].name.c_str(),
                     pages));
  }
  return Status::OK();
}

Result<FileId> FileDiskManager::CreateFile(std::string name) {
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
  const FileId id =
      reuse != kInvalidFile ? reuse : static_cast<FileId>(files_.size());
  File f;
  f.name = std::move(name);
  // O_TRUNC clobbers any orphan segment a crash left behind under this id.
  Status st = OpenSegment(id, &f, /*truncate=*/true);
  if (st.ok()) {
    if (reuse != kInvalidFile) {
      files_[id] = std::move(f);
    } else {
      files_.push_back(std::move(f));
    }
    st = WriteSuperblock();
    if (!st.ok()) {
      File& slot = files_[id];
      if (slot.pages_fd >= 0) ::close(slot.pages_fd);
      if (slot.crc_fd >= 0) ::close(slot.crc_fd);
      if (reuse != kInvalidFile) {
        slot = File();  // back to a tombstone
      } else {
        files_.pop_back();
      }
    }
  } else {
    if (f.pages_fd >= 0) ::close(f.pages_fd);
    if (f.crc_fd >= 0) ::close(f.crc_fd);
  }
  SMADB_RETURN_NOT_OK(st);
  return id;
}

Result<FileId> FileDiskManager::FindFile(std::string_view name) const {
  const auto lock = Lock();
  for (size_t i = 0; i < files_.size(); ++i) {
    if (!files_[i].name.empty() && files_[i].name == name) {
      return static_cast<FileId>(i);
    }
  }
  return Status::NotFound("no file named '" + std::string(name) + "'");
}

Status FileDiskManager::RemoveFile(FileId file) {
  const auto lock = LockForMutation();
  if (file >= files_.size() || files_[file].name.empty()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  File& f = files_[file];
  const std::string base = directory_ + "/seg" + std::to_string(file);
  if (f.pages_fd >= 0) ::close(f.pages_fd);
  if (f.crc_fd >= 0) ::close(f.crc_fd);
  f = File();  // tombstone: empty name, fds closed, zero pages
  // A crash between the unlinks and the superblock write at worst leaves an
  // orphan segment under a tombstoned id; CreateFile's O_TRUNC clobbers it
  // when the id is reused.
  if (::unlink((base + ".pages").c_str()) != 0 && errno != ENOENT) {
    return ErrnoError("unlink", base + ".pages");
  }
  if (::unlink((base + ".crc").c_str()) != 0 && errno != ENOENT) {
    return ErrnoError("unlink", base + ".crc");
  }
  return WriteSuperblock();
}

Status FileDiskManager::RawWrite(FileId id, File& f, uint32_t page_no,
                                 const Page& page, uint32_t crc) {
  const std::string base = directory_ + "/seg" + std::to_string(id);
  SMADB_RETURN_NOT_OK(PWriteFull(f.pages_fd, page.data, kPageSize,
                                 static_cast<uint64_t>(page_no) * kPageSize,
                                 base + ".pages"));
  SMADB_RETURN_NOT_OK(PWriteFull(f.crc_fd, &crc, sizeof(crc),
                                 static_cast<uint64_t>(page_no) * sizeof(crc),
                                 base + ".crc"));
  if (page_no >= f.checksums.size()) f.checksums.resize(page_no + 1, 0);
  f.checksums[page_no] = crc;
  f.dirty = true;
  return Status::OK();
}

Result<uint32_t> FileDiskManager::AllocatePage(FileId file) {
  const auto lock = LockForMutation();
  if (file >= files_.size() || files_[file].name.empty()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  File& f = files_[file];
  Page zero;
  zero.Zero();
  if (!f.free_pages.empty()) {
    const uint32_t page_no = f.free_pages.back();
    f.free_pages.pop_back();
    SMADB_RETURN_NOT_OK(RawWrite(file, f, page_no, zero, ZeroPageCrc()));
    return page_no;
  }
  const uint32_t page_no = f.num_pages;
  SMADB_RETURN_NOT_OK(RawWrite(file, f, page_no, zero, ZeroPageCrc()));
  ++f.num_pages;
  return page_no;
}

Status FileDiskManager::FreePage(FileId file, uint32_t page_no) {
  const auto lock = LockForMutation();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  File& f = files_[file];
  if (std::find(f.free_pages.begin(), f.free_pages.end(), page_no) !=
      f.free_pages.end()) {
    return Status::InvalidArgument(
        util::Format("page %u of file '%s' is already free", page_no,
                     f.name.c_str()));
  }
  Page zero;
  zero.Zero();
  SMADB_RETURN_NOT_OK(RawWrite(file, f, page_no, zero, ZeroPageCrc()));
  f.free_pages.push_back(page_no);
  return Status::OK();
}

Status FileDiskManager::ReadPages(FileId file, uint32_t first, uint32_t n,
                                  Page* const* out, uint32_t* crcs,
                                  uint32_t* delivered) {
  if (delivered != nullptr) *delivered = 0;
  const std::shared_lock<std::shared_mutex> transfer(transfer_mu_);
  const File* f = nullptr;
  uint32_t clean = 0;
  std::vector<uint32_t> flips;
  Status fault;
  IoStats counted;  // this run's share of stats_
  {
    const auto lock = Lock();
    SMADB_RETURN_NOT_OK(CheckBounds(file, first, n));
    File& held = files_[file];
    fault = ConsultReadFaults(held.name, first, n, &clean, &flips);
    const IoStats before = stats_;
    for (uint32_t i = 0; i < clean; ++i) {
      if (crcs != nullptr) crcs[i] = held.checksums[first + i];
      AccountRead(&held.last_read, first + i);
    }
    counted = stats_ - before;
    f = &held;
  }
  // The pages before the first injected error go out in one preadv, under
  // the shared transfer lock only: no mutation can touch the segment (or
  // close its fd) until it is released.
  if (Status read = PReadPages(f->pages_fd, out, clean,
                               static_cast<uint64_t>(first) * kPageSize,
                               f->name);
      !read.ok()) {
    // Nothing was delivered: take the run back out of the counters.
    const auto lock = Lock();
    stats_ = stats_ - counted;
    return read;
  }
  for (const uint32_t i : flips) {
    FaultFlipBit(out[i], FaultFlipBitOf(file, first + i));
  }
  if (delivered != nullptr) *delivered = clean;
  return fault;
}

Status FileDiskManager::WritePage(FileId file, uint32_t page_no,
                                  const Page& page) {
  const auto lock = LockForMutation();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  File& f = files_[file];
  bool flip = false;
  SMADB_RETURN_NOT_OK(ConsultWriteFaults(f.name, page_no, &flip));
  const uint32_t crc = util::Crc32c(page.data, kPageSize);
  if (flip) {
    // Stamp the intended checksum but store corrupted bytes: the next
    // verified read detects the silent flip.
    Page corrupted = page;
    FaultFlipBit(&corrupted, FaultFlipBitOf(file, page_no));
    SMADB_RETURN_NOT_OK(RawWrite(file, f, page_no, corrupted, crc));
  } else {
    SMADB_RETURN_NOT_OK(RawWrite(file, f, page_no, page, crc));
  }
  AccountWrite(&f.last_write, page_no);
  return Status::OK();
}

Status FileDiskManager::TruncateFile(FileId file) {
  const auto lock = LockForMutation();
  if (file >= files_.size()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  File& f = files_[file];
  const std::string base = directory_ + "/seg" + std::to_string(file);
  if (::ftruncate(f.pages_fd, 0) != 0) {
    return ErrnoError("ftruncate", base + ".pages");
  }
  if (::ftruncate(f.crc_fd, 0) != 0) {
    return ErrnoError("ftruncate", base + ".crc");
  }
  f.num_pages = 0;
  f.checksums.clear();
  f.free_pages.clear();
  f.last_read = -2;
  f.last_write = -2;
  f.dirty = true;
  return WriteSuperblock();
}

Status FileDiskManager::Sync() {
  const auto lock = Lock();
  SMADB_RETURN_NOT_OK(ConsultSyncFaults());
  for (size_t id = 0; id < files_.size(); ++id) {
    File& f = files_[id];
    if (!f.dirty) continue;
    const std::string base = directory_ + "/seg" + std::to_string(id);
    if (::fsync(f.pages_fd) != 0) return ErrnoError("fsync", base + ".pages");
    if (::fsync(f.crc_fd) != 0) return ErrnoError("fsync", base + ".crc");
    f.dirty = false;
  }
  SMADB_RETURN_NOT_OK(WriteSuperblock());
  ++stats_.syncs;
  return Status::OK();
}

Result<uint32_t> FileDiskManager::NumPages(FileId file) const {
  const auto lock = Lock();
  if (file >= files_.size()) {
    return Status::InvalidArgument(util::Format("bad file id %u", file));
  }
  return files_[file].num_pages;
}

Result<uint32_t> FileDiskManager::PageChecksum(FileId file,
                                               uint32_t page_no) const {
  const auto lock = Lock();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  return files_[file].checksums[page_no];
}

Status FileDiskManager::CorruptPageForTesting(FileId file, uint32_t page_no,
                                              uint64_t bit) {
  const auto lock = LockForMutation();
  SMADB_RETURN_NOT_OK(CheckBounds(file, page_no));
  File& f = files_[file];
  const std::string base = directory_ + "/seg" + std::to_string(file);
  Page page;
  SMADB_RETURN_NOT_OK(PReadFull(f.pages_fd, page.data, kPageSize,
                                static_cast<uint64_t>(page_no) * kPageSize,
                                base + ".pages"));
  FaultFlipBit(&page, bit);
  // Deliberately leaves the CRC sidecar stamped with the pre-flip checksum:
  // at-rest media corruption the next verified read must catch.
  SMADB_RETURN_NOT_OK(PWriteFull(f.pages_fd, page.data, kPageSize,
                                 static_cast<uint64_t>(page_no) * kPageSize,
                                 base + ".pages"));
  f.dirty = true;
  return Status::OK();
}

void FileDiskManager::ResetAccessPositions() {
  const auto lock = Lock();
  for (File& f : files_) {
    f.last_read = -2;
    f.last_write = -2;
  }
}

}  // namespace smadb::storage
