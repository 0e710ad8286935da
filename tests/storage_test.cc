// Unit tests for smadb::storage — simulated disk, buffer pool, schema,
// tuples, bucketed table, catalog.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "exec/batch.h"
#include "exec/bucket_source.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/rng.h"

namespace smadb::storage {
namespace {

using util::TypeId;
using util::Value;

// ------------------------------------------------------------------ Disk --

TEST(DiskTest, CreateFindAllocate) {
  SimulatedDisk disk;
  auto f = disk.CreateFile("a");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(disk.CreateFile("a").status().code() ==
              util::StatusCode::kAlreadyExists);
  auto found = disk.FindFile("a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *f);
  EXPECT_FALSE(disk.FindFile("b").ok());
  auto p0 = disk.AllocatePage(*f);
  auto p1 = disk.AllocatePage(*f);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(*disk.NumPages(*f), 2u);
}

TEST(DiskTest, ReadWriteRoundTrip) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  ASSERT_TRUE(disk.AllocatePage(f).ok());
  Page w;
  w.Zero();
  w.WriteAt<uint64_t>(16, 0xDEADBEEFull);
  ASSERT_TRUE(disk.WritePage(f, 0, w).ok());
  Page r;
  ASSERT_TRUE(disk.ReadPage(f, 0, &r).ok());
  EXPECT_EQ(r.ReadAt<uint64_t>(16), 0xDEADBEEFull);
}

TEST(DiskTest, BoundsChecking) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  Page p;
  EXPECT_FALSE(disk.ReadPage(f, 0, &p).ok());
  EXPECT_FALSE(disk.ReadPage(f + 1, 0, &p).ok());
  EXPECT_FALSE(disk.WritePage(f, 5, p).ok());
}

TEST(DiskTest, SequentialVsRandomClassification) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  disk.ResetStats();
  Page p;
  // First read of a fresh file is a short forward skip ("near"), then
  // pages 1 and 2 stream sequentially.
  ASSERT_TRUE(disk.ReadPage(f, 0, &p).ok());
  ASSERT_TRUE(disk.ReadPage(f, 1, &p).ok());
  ASSERT_TRUE(disk.ReadPage(f, 2, &p).ok());
  // Jump backwards: random.
  ASSERT_TRUE(disk.ReadPage(f, 0, &p).ok());
  // Short forward skip within the near window: near.
  ASSERT_TRUE(disk.ReadPage(f, 5, &p).ok());
  EXPECT_EQ(disk.stats().page_reads, 5u);
  EXPECT_EQ(disk.stats().sequential_reads, 2u);
  EXPECT_EQ(disk.stats().near_reads, 2u);
  EXPECT_EQ(disk.stats().random_reads, 1u);
  // A run read is one request: back from page 5 to page 2 is random, the
  // other seven pages stream. It returns the stored checksums too.
  disk.ResetStats();
  Page run[8];
  Page* out[8];
  for (int i = 0; i < 8; ++i) out[i] = &run[i];
  uint32_t crcs[8];
  uint32_t delivered = 0;
  ASSERT_TRUE(disk.ReadPages(f, 2, 8, out, crcs, &delivered).ok());
  EXPECT_EQ(delivered, 8u);
  EXPECT_EQ(disk.stats().page_reads, 8u);
  EXPECT_EQ(disk.stats().sequential_reads, 7u);
  EXPECT_EQ(disk.stats().random_reads, 1u);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(crcs[i], *disk.PageChecksum(f, 2 + i)) << "page " << 2 + i;
  }
  // A run past the end is rejected whole, naming the first missing page.
  const util::Status past = disk.ReadPages(f, 6, 8, out, nullptr, nullptr);
  EXPECT_EQ(past.code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(past.message().find("page 10"), std::string::npos)
      << past.ToString();
}

TEST(DiskTest, NearWindowBoundary) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 3000; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  Page p;
  ASSERT_TRUE(disk.ReadPage(f, 0, &p).ok());
  disk.ResetStats();
  // Exactly at the window: near; beyond it: random (full seek).
  ASSERT_TRUE(disk.ReadPage(
                  f, static_cast<uint32_t>(kNearSeekWindowPages), &p)
                  .ok());
  EXPECT_EQ(disk.stats().near_reads, 1u);
  ASSERT_TRUE(disk.ReadPage(
                  f,
                  static_cast<uint32_t>(2 * kNearSeekWindowPages + 1), &p)
                  .ok());
  EXPECT_EQ(disk.stats().random_reads, 1u);
}

TEST(DiskTest, ModeledSecondsScalesWithAccessPattern) {
  DiskModel model;  // 8 ms full seek, 1.5 ms short seek, 9 MB/s
  IoStats seq;
  seq.sequential_reads = 1000;
  IoStats near;
  near.near_reads = 1000;
  IoStats rnd;
  rnd.random_reads = 1000;
  EXPECT_GT(near.ModeledSeconds(model), seq.ModeledSeconds(model) * 3);
  EXPECT_GT(rnd.ModeledSeconds(model), near.ModeledSeconds(model) * 3);
}

TEST(DiskTest, TruncateResets) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  ASSERT_TRUE(disk.AllocatePage(f).ok());
  ASSERT_TRUE(disk.TruncateFile(f).ok());
  EXPECT_EQ(*disk.NumPages(f), 0u);
}

TEST(DiskTest, RemoveFileTombstonesAndReusesId) {
  SimulatedDisk disk;
  FileId a = *disk.CreateFile("a");
  FileId b = *disk.CreateFile("b");
  ASSERT_TRUE(disk.AllocatePage(a).ok());
  ASSERT_TRUE(disk.RemoveFile(a).ok());
  // The name is free, the id is dead until reassigned.
  EXPECT_EQ(disk.FindFile("a").status().code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(disk.AllocatePage(a).ok());
  EXPECT_FALSE(disk.RemoveFile(a).ok());  // double remove
  EXPECT_EQ(*disk.FindFile("b"), b);
  // CreateFile reuses the lowest tombstoned id, and rejects empty names
  // (empty marks the tombstone).
  EXPECT_FALSE(disk.CreateFile("").ok());
  FileId c = *disk.CreateFile("c");
  EXPECT_EQ(c, a);
  EXPECT_EQ(*disk.NumPages(c), 0u);
  EXPECT_EQ(disk.NumFiles(), 2u);
}

// Fills `page` with bytes that only (file, page_no, version) produce.
void StampPage(Page* page, FileId file, uint32_t page_no, uint32_t version) {
  util::Rng rng((uint64_t{file} << 40) ^ (uint64_t{page_no} << 20) ^ version);
  for (size_t off = 0; off < kPageSize; off += sizeof(uint64_t)) {
    page->WriteAt<uint64_t>(off, rng.Next());
  }
}

// Both backends: readers' ReadPages transfer their bytes outside the backend
// mutex while another thread grows a second file, rewrites the odd pages of
// the file being read and creates files (every one a mutation, exclusive
// against transfers). Every delivered page matches the CRC delivered with
// it, and a page nobody rewrote matches its bytes exactly.
class DiskBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::unique_ptr<DiskBackend> MakeDisk() {
    return testing::TestDb::MakeBackend(GetParam(), dir_.path);
  }

 private:
  testing::ScopedTempDir dir_;
};

TEST_P(DiskBackendTest, ReadsOverlapMutations) {
  std::unique_ptr<DiskBackend> disk = MakeDisk();
  constexpr uint32_t kPages = 64;
  const FileId read = *disk->CreateFile("read");
  const FileId grown = *disk->CreateFile("grown");
  Page page;
  for (uint32_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(disk->AllocatePage(read).ok());
    StampPage(&page, read, p, 0);
    ASSERT_TRUE(disk->WritePage(read, p, page).ok());
  }
  disk->ResetStats();

  std::atomic<int> readers_left{3};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> pages_read{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      util::Rng rng(11 + static_cast<uint64_t>(r));
      std::vector<Page> buf(kRunPages);
      Page* out[kRunPages];
      for (uint32_t i = 0; i < kRunPages; ++i) out[i] = &buf[i];
      uint32_t crcs[kRunPages];
      Page want;
      for (int i = 0; i < 200; ++i) {
        const uint32_t first =
            static_cast<uint32_t>(rng.Uniform(0, kPages - 1));
        const uint32_t n = static_cast<uint32_t>(
            rng.Uniform(1, std::min<int64_t>(kRunPages, kPages - first)));
        uint32_t delivered = 0;
        const util::Status st =
            disk->ReadPages(read, first, n, out, crcs, &delivered);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ASSERT_EQ(delivered, n);
        pages_read.fetch_add(n);
        for (uint32_t k = 0; k < n; ++k) {
          const uint32_t p = first + k;
          if (crcs[k] != util::Crc32c(out[k]->data, kPageSize)) {
            bad.fetch_add(1);
          }
          if (p % 2 == 0) {
            StampPage(&want, read, p, 0);
            if (std::memcmp(out[k]->data, want.data, kPageSize) != 0) {
              bad.fetch_add(1);
            }
          }
        }
      }
      readers_left.fetch_sub(1);
    });
  }
  uint32_t grown_pages = 0;
  int created = 0;
  threads.emplace_back([&] {
    Page w;
    for (uint32_t version = 1; readers_left.load() > 0; ++version) {
      auto p = disk->AllocatePage(grown);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      StampPage(&w, grown, *p, 1);
      ASSERT_TRUE(disk->WritePage(grown, *p, w).ok());
      ++grown_pages;
      const uint32_t odd = 2 * (version % (kPages / 2)) + 1;
      StampPage(&w, read, odd, version);
      ASSERT_TRUE(disk->WritePage(read, odd, w).ok());
      if (grown_pages % 16 == 0) {
        ASSERT_TRUE(
            disk->CreateFile("extra" + std::to_string(created++)).ok());
      }
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(disk->stats().page_reads, pages_read.load());
  ASSERT_EQ(*disk->NumPages(grown), grown_pages);
  Page want;
  for (uint32_t p = 0; p < grown_pages; ++p) {
    StampPage(&want, grown, p, 1);
    ASSERT_TRUE(disk->ReadPage(grown, p, &page).ok());
    EXPECT_EQ(std::memcmp(page.data, want.data, kPageSize), 0) << "page " << p;
    EXPECT_EQ(*disk->PageChecksum(grown, p),
              util::Crc32c(want.data, kPageSize));
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DiskBackendTest,
                         ::testing::Values(BackendKind::kSimulated,
                                           BackendKind::kFile),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                           return std::string(BackendKindToString(info.param));
                         });

// ----------------------------------------------------------- BufferPool --

TEST(BufferPoolTest, FetchCachesPages) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 4);
  {
    auto g = pool.Fetch(f, 0);
    ASSERT_TRUE(g.ok());
  }
  {
    auto g = pool.Fetch(f, 0);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(disk.stats().page_reads, 1u);
}

// A cold run costs one positioning read plus sequential ones, also while
// another thread reads another run of the same file: each run is checked,
// checksummed and classified in one backend-mutex hold before its bytes
// are transferred outside it, so the two runs' accounting cannot
// interleave even when their transfers overlap.
TEST(BufferPoolTest, ColdRunIsOneSeekPlusSequentialReads) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 128);
  {
    auto run = pool.PinRun(f, 0, 32);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->first(), 0u);
    EXPECT_EQ(run->size(), 32u);
    EXPECT_EQ(disk.stats().page_reads, 32u);
    EXPECT_EQ(disk.stats().sequential_reads, 31u);
    EXPECT_EQ(pool.stats().misses, 32u);
  }
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(pool.DropAll().ok());
    disk.ResetStats();
    disk.ResetAccessPositions();
    std::atomic<int> ready{0};
    const auto reader = [&](uint32_t first) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      auto run = pool.PinRun(f, first, 32);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->size(), 32u);
    };
    std::thread a(reader, 0);
    std::thread b(reader, 32);
    a.join();
    b.join();
    // One positioning read per run (the second run's first page is
    // sequential too when it happens to follow the first run).
    const IoStats io = disk.stats();
    EXPECT_EQ(io.page_reads, 64u);
    EXPECT_LE(io.near_reads + io.random_reads, 2u) << "round " << round;
    EXPECT_GE(io.sequential_reads, 62u) << "round " << round;
  }
}

// A Fetch that meets a frame another thread is loading waits for that load
// and returns the loader's frame: the page is read once.
TEST(BufferPoolTest, FetchOfALoadingPageWaitsForTheLoader) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  ASSERT_TRUE(disk.AllocatePage(f).ok());
  Page w;
  w.Zero();
  w.WriteAt<uint64_t>(0, 0x10ad);
  ASSERT_TRUE(disk.WritePage(f, 0, w).ok());
  // One transient fault keeps the loader in its retry backoff, outside the
  // pool mutex, with the frame marked loading.
  BufferPool pool(&disk,
                  BufferPoolOptions{.capacity_pages = 4,
                                    .retry_backoff =
                                        std::chrono::milliseconds(200)});
  util::fault::Arm("disk.read",
                   {.count = 1, .kind = util::FaultKind::kTransient});
  const Page* loaded = nullptr;
  std::thread loader([&] {
    auto g = pool.Fetch(f, 0);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    loaded = g->page();
  });
  while (pool.num_cached() == 0) std::this_thread::yield();
  auto waiter = pool.Fetch(f, 0);
  loader.join();
  util::fault::DisarmAll();
  ASSERT_TRUE(waiter.ok()) << waiter.status().ToString();
  EXPECT_EQ(waiter->page(), loaded);
  EXPECT_EQ(waiter->page()->ReadAt<uint64_t>(0), 0x10adu);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().read_retries, 1u);
  EXPECT_EQ(disk.stats().page_reads, 1u);
}

TEST(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 2);
  {
    auto g = pool.Fetch(f, 0);
    ASSERT_TRUE(g.ok());
    g->MutablePage()->WriteAt<uint32_t>(0, 77);
  }
  // Evict page 0 by touching two others.
  { ASSERT_TRUE(pool.Fetch(f, 1).ok()); }
  { ASSERT_TRUE(pool.Fetch(f, 2).ok()); }
  Page p;
  ASSERT_TRUE(disk.ReadPage(f, 0, &p).ok());
  EXPECT_EQ(p.ReadAt<uint32_t>(0), 77u);
}

TEST(BufferPoolTest, LruEvictsOldest) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 2);
  { ASSERT_TRUE(pool.Fetch(f, 0).ok()); }
  { ASSERT_TRUE(pool.Fetch(f, 1).ok()); }
  { ASSERT_TRUE(pool.Fetch(f, 0).ok()); }  // 0 now MRU
  { ASSERT_TRUE(pool.Fetch(f, 2).ok()); }  // evicts 1
  pool.ResetStats();
  { ASSERT_TRUE(pool.Fetch(f, 0).ok()); }
  EXPECT_EQ(pool.stats().hits, 1u);  // 0 still cached
  { ASSERT_TRUE(pool.Fetch(f, 1).ok()); }
  EXPECT_EQ(pool.stats().misses, 1u);  // 1 was evicted
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 2);
  auto pinned = pool.Fetch(f, 0);
  ASSERT_TRUE(pinned.ok());
  pinned->MutablePage()->WriteAt<uint32_t>(8, 5);
  { ASSERT_TRUE(pool.Fetch(f, 1).ok()); }
  { ASSERT_TRUE(pool.Fetch(f, 2).ok()); }
  { ASSERT_TRUE(pool.Fetch(f, 3).ok()); }
  // The pinned frame was never evicted or corrupted.
  EXPECT_EQ(pinned->page()->ReadAt<uint32_t>(8), 5u);
}

TEST(BufferPoolTest, PoolExhaustionReported) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 2);
  auto g0 = pool.Fetch(f, 0);
  auto g1 = pool.Fetch(f, 1);
  ASSERT_TRUE(g0.ok());
  ASSERT_TRUE(g1.ok());
  auto g2 = pool.Fetch(f, 2);
  EXPECT_FALSE(g2.ok());  // everything pinned
}

TEST(BufferPoolTest, GuardMoveAssignReleasesTheOldPin) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 2);
  PageGuard g0 = std::move(pool.Fetch(f, 0)).value();
  PageGuard g1 = std::move(pool.Fetch(f, 1)).value();
  ASSERT_FALSE(pool.Fetch(f, 2).ok());  // both frames pinned

  // Adopting g1's pin must first drop g0's; page 0 becomes evictable.
  g0 = std::move(g1);
  ASSERT_TRUE(g0.valid());
  EXPECT_FALSE(g1.valid());
  EXPECT_TRUE(pool.Fetch(f, 2).ok());
}

TEST(BufferPoolTest, GuardSelfMoveAssignKeepsThePin) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 1);
  PageGuard g = std::move(pool.Fetch(f, 0)).value();
  const Page* before = g.page();

  PageGuard& self = g;  // via reference: the check must be dynamic
  g = std::move(self);
  ASSERT_TRUE(g.valid());
  EXPECT_EQ(g.page(), before);
  // Still pinned: the only frame cannot be reused...
  EXPECT_FALSE(pool.Fetch(f, 1).ok());
  // ...until the guard is released exactly once.
  g.Release();
  EXPECT_TRUE(pool.Fetch(f, 1).ok());
}

TEST(BufferPoolTest, DropAllSimulatesColdStart) {
  SimulatedDisk disk;
  FileId f = *disk.CreateFile("a");
  ASSERT_TRUE(disk.AllocatePage(f).ok());
  BufferPool pool(&disk, 4);
  { ASSERT_TRUE(pool.Fetch(f, 0).ok()); }
  ASSERT_TRUE(pool.DropAll().ok());
  EXPECT_EQ(pool.num_cached(), 0u);
  disk.ResetStats();
  { ASSERT_TRUE(pool.Fetch(f, 0).ok()); }
  EXPECT_EQ(disk.stats().page_reads, 1u);  // re-faulted from disk
}

TEST(BufferPoolTest, DropFileIsSelective) {
  SimulatedDisk disk;
  FileId a = *disk.CreateFile("a");
  FileId b = *disk.CreateFile("b");
  ASSERT_TRUE(disk.AllocatePage(a).ok());
  ASSERT_TRUE(disk.AllocatePage(b).ok());
  BufferPool pool(&disk, 4);
  { ASSERT_TRUE(pool.Fetch(a, 0).ok()); }
  { ASSERT_TRUE(pool.Fetch(b, 0).ok()); }
  ASSERT_TRUE(pool.DropFile(a).ok());
  pool.ResetStats();
  { ASSERT_TRUE(pool.Fetch(b, 0).ok()); }
  EXPECT_EQ(pool.stats().hits, 1u);
  { ASSERT_TRUE(pool.Fetch(a, 0).ok()); }
  EXPECT_EQ(pool.stats().misses, 1u);
}

// Randomized stress: the pool must behave exactly like the raw disk under
// an arbitrary mix of reads, writes, runs and cold drops over three files,
// so the page table's erases see probe chains that mix files.
TEST(BufferPoolTest, RandomizedOpsMatchShadowDisk) {
  SimulatedDisk disk;
  constexpr int kFiles = 3;
  constexpr int kPages = 64;
  std::vector<FileId> files;
  for (int f = 0; f < kFiles; ++f) {
    files.push_back(*disk.CreateFile("f" + std::to_string(f)));
    for (int i = 0; i < kPages; ++i) {
      ASSERT_TRUE(disk.AllocatePage(files.back()).ok());
    }
  }
  constexpr size_t kFrames = 40;  // far smaller than the files: churn
  BufferPool pool(&disk, kFrames);

  // Expected word at offset 8 of each page.
  std::vector<std::vector<uint32_t>> shadow(kFiles,
                                            std::vector<uint32_t>(kPages, 0));
  util::Rng rng(1234);
  for (int step = 0; step < 8000; ++step) {
    const int fi = static_cast<int>(rng.Uniform(0, kFiles - 1));
    const FileId f = files[static_cast<size_t>(fi)];
    const uint32_t page = static_cast<uint32_t>(rng.Uniform(0, kPages - 1));
    switch (rng.Uniform(0, 11)) {
      case 0: {  // cold drop
        ASSERT_TRUE(pool.DropAll().ok());
        ASSERT_EQ(pool.num_cached(), 0u);
        break;
      }
      case 1: {  // drop one file
        ASSERT_TRUE(pool.DropFile(f).ok());
        break;
      }
      case 2:
      case 3:
      case 4: {  // write
        auto g = pool.Fetch(f, page);
        ASSERT_TRUE(g.ok());
        const uint32_t v = static_cast<uint32_t>(rng.Next());
        g->MutablePage()->WriteAt<uint32_t>(8, v);
        shadow[static_cast<size_t>(fi)][page] = v;
        break;
      }
      case 5:
      case 6:
      case 7: {  // run of 1..32 pages
        const uint32_t n = static_cast<uint32_t>(
            rng.Uniform(1, std::min<int64_t>(kRunPages, kPages - page)));
        auto run = pool.PinRun(f, page, n);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ASSERT_EQ(run->first(), page);
        ASSERT_GE(run->size(), 1u);
        ASSERT_LE(run->size(), n);
        for (uint32_t p = run->first(); p < run->end(); ++p) {
          ASSERT_EQ(run->page(p)->ReadAt<uint32_t>(8),
                    shadow[static_cast<size_t>(fi)][p])
              << "file " << fi << " page " << p << " step " << step;
        }
        break;
      }
      default: {  // read
        auto g = pool.Fetch(f, page);
        ASSERT_TRUE(g.ok());
        ASSERT_EQ(g->page()->ReadAt<uint32_t>(8),
                  shadow[static_cast<size_t>(fi)][page])
            << "file " << fi << " page " << page << " step " << step;
        break;
      }
    }
    ASSERT_LE(pool.num_cached(), kFrames);
  }
  // After a final flush the raw disk agrees everywhere.
  ASSERT_TRUE(pool.FlushAll().ok());
  Page p;
  for (int fi = 0; fi < kFiles; ++fi) {
    for (int i = 0; i < kPages; ++i) {
      ASSERT_TRUE(
          disk.ReadPage(files[static_cast<size_t>(fi)],
                        static_cast<uint32_t>(i), &p)
              .ok());
      EXPECT_EQ(p.ReadAt<uint32_t>(8),
                shadow[static_cast<size_t>(fi)][static_cast<size_t>(i)]);
    }
  }
}

// Four readers pin random runs of two files through a pool a quarter of
// their size while a writer dirties pages of a third file, so evictions
// write back (taking the backend's transfer lock exclusively) while other
// readers' transfers run. Every delivered page matches its shadow bytes,
// and every miss is exactly one backend page read.
TEST(BufferPoolTest, ReadersAndWriteBacksOverlapTransfers) {
  SimulatedDisk disk;
  constexpr uint32_t kPages = 128;
  const FileId read_files[2] = {*disk.CreateFile("a"), *disk.CreateFile("b")};
  const FileId written = *disk.CreateFile("c");
  Page page;
  for (const FileId f : read_files) {
    for (uint32_t p = 0; p < kPages; ++p) {
      ASSERT_TRUE(disk.AllocatePage(f).ok());
      StampPage(&page, f, p, 0);
      ASSERT_TRUE(disk.WritePage(f, p, page).ok());
    }
  }
  constexpr uint32_t kWrittenPages = 32;
  for (uint32_t p = 0; p < kWrittenPages; ++p) {
    ASSERT_TRUE(disk.AllocatePage(written).ok());
  }
  BufferPool pool(&disk, 2 * kPages / 4);
  disk.ResetStats();

  std::atomic<int> readers_left{4};
  std::atomic<uint64_t> bad_pages{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      util::Rng rng(77 + static_cast<uint64_t>(r));
      Page want;
      for (int i = 0; i < 300; ++i) {
        const FileId f = read_files[rng.Uniform(0, 1)];
        const uint32_t first =
            static_cast<uint32_t>(rng.Uniform(0, kPages - 1));
        const uint32_t n = static_cast<uint32_t>(
            rng.Uniform(1, std::min<int64_t>(kRunPages, kPages - first)));
        auto run = pool.PinRun(f, first, n);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        for (uint32_t p = run->first(); p < run->end(); ++p) {
          StampPage(&want, f, p, 0);
          if (std::memcmp(run->page(p)->data, want.data, kPageSize) != 0) {
            bad_pages.fetch_add(1);
          }
        }
      }
      readers_left.fetch_sub(1);
    });
  }
  std::vector<uint32_t> versions(kWrittenPages, 0);
  threads.emplace_back([&] {
    util::Rng rng(5);
    while (readers_left.load() > 0) {
      const uint32_t p =
          static_cast<uint32_t>(rng.Uniform(0, kWrittenPages - 1));
      auto g = pool.Fetch(written, p);
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      StampPage(g->MutablePage(), written, p, ++versions[p]);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad_pages.load(), 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
  EXPECT_EQ(pool.stats().misses, disk.stats().page_reads);
  ASSERT_TRUE(pool.FlushAll().ok());
  for (uint32_t p = 0; p < kWrittenPages; ++p) {
    Page want;
    StampPage(&want, written, p, versions[p]);
    ASSERT_TRUE(disk.ReadPage(written, p, &page).ok());
    EXPECT_EQ(std::memcmp(page.data, want.data, kPageSize), 0) << "page " << p;
  }
}

// ---------------------------------------------------------------- Schema --

Schema TestSchema() {
  return Schema({Field::Int64("id"), Field::Date("d"),
                 Field::Decimal("amount"), Field::String("tag", 8)});
}

TEST(SchemaTest, OffsetsAndWidths) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_fields(), 4u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 12u);
  EXPECT_EQ(s.offset(3), 20u);
  EXPECT_EQ(s.tuple_size(), 28u);
}

TEST(SchemaTest, FieldIndexLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.FieldIndex("amount"), 2u);
  EXPECT_FALSE(s.FieldIndex("missing").ok());
}

TEST(SchemaTest, Equals) {
  EXPECT_TRUE(TestSchema().Equals(TestSchema()));
  Schema other({Field::Int64("id")});
  EXPECT_FALSE(TestSchema().Equals(other));
}

// ----------------------------------------------------------------- Tuple --

TEST(TupleTest, RoundTripAllTypes) {
  Schema s({Field::Int32("a"), Field::Int64("b"), Field::Double("c"),
            Field::Decimal("d"), Field::Date("e"), Field::String("f", 10)});
  TupleBuffer t(&s);
  t.SetInt32(0, -7);
  t.SetInt64(1, 1LL << 40);
  t.SetDouble(2, 3.25);
  t.SetDecimal(3, util::Decimal(1234));
  t.SetDate(4, util::Date::FromYmd(1997, 4, 30));
  t.SetString(5, "MAIL");
  TupleRef r = t.AsRef();
  EXPECT_EQ(r.GetInt32(0), -7);
  EXPECT_EQ(r.GetInt64(1), 1LL << 40);
  EXPECT_DOUBLE_EQ(r.GetDouble(2), 3.25);
  EXPECT_EQ(r.GetDecimal(3).cents(), 1234);
  EXPECT_EQ(r.GetDate(4).ToString(), "1997-04-30");
  EXPECT_EQ(r.GetString(5), "MAIL");
}

TEST(TupleTest, StringShorterThanCapacityAndOverwrite) {
  Schema s({Field::String("f", 10)});
  TupleBuffer t(&s);
  t.SetString(0, "LONGERTAG");
  t.SetString(0, "AB");  // overwrite must clear the old tail
  EXPECT_EQ(t.AsRef().GetString(0), "AB");
}

TEST(TupleTest, GetValueAndSetValueAgree) {
  Schema s = TestSchema();
  TupleBuffer a(&s);
  a.SetInt64(0, 9);
  a.SetDate(1, util::Date(42));
  a.SetDecimal(2, util::Decimal(7));
  a.SetString(3, "x");
  TupleBuffer b(&s);
  for (size_t c = 0; c < s.num_fields(); ++c) {
    b.SetValue(c, a.AsRef().GetValue(c));
  }
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), s.tuple_size()));
}

TEST(TupleTest, GetRawIntUniformRepresentation) {
  Schema s = TestSchema();
  TupleBuffer t(&s);
  t.SetInt64(0, -5);
  t.SetDate(1, util::Date(100));
  t.SetDecimal(2, util::Decimal(307));
  EXPECT_EQ(t.AsRef().GetRawInt(0), -5);
  EXPECT_EQ(t.AsRef().GetRawInt(1), 100);
  EXPECT_EQ(t.AsRef().GetRawInt(2), 307);
}

// ----------------------------------------------------------------- Table --

struct TableFixture : ::testing::Test {
  TableFixture() : pool(&disk, 512), catalog(&pool) {}

  Table* MakeTable(uint32_t bucket_pages = 1) {
    auto t = catalog.CreateTable("t" + std::to_string(++counter), TestSchema(),
                                 TableOptions{bucket_pages});
    EXPECT_TRUE(t.ok());
    return *t;
  }

  void Fill(Table* t, int64_t n) {
    TupleBuffer buf(&t->schema());
    for (int64_t i = 0; i < n; ++i) {
      buf.SetInt64(0, i);
      buf.SetDate(1, util::Date(static_cast<int32_t>(i / 10)));
      buf.SetDecimal(2, util::Decimal(i * 3));
      buf.SetString(3, i % 2 == 0 ? "even" : "odd");
      ASSERT_TRUE(t->Append(buf).ok());
    }
  }

  SimulatedDisk disk;
  BufferPool pool;
  Catalog catalog;
  int counter = 0;
};

TEST_F(TableFixture, AppendCountsTuplesAndPages) {
  Table* t = MakeTable();
  const uint32_t per_page = t->tuples_per_page();
  ASSERT_GT(per_page, 0u);
  Fill(t, per_page + 1);
  EXPECT_EQ(t->num_tuples(), per_page + 1);
  EXPECT_EQ(t->num_pages(), 2u);
  EXPECT_EQ(t->num_buckets(), 2u);
}

TEST_F(TableFixture, RidsAreDense) {
  Table* t = MakeTable();
  TupleBuffer buf(&t->schema());
  buf.SetInt64(0, 1);
  buf.SetString(3, "x");
  Rid r0, r1;
  ASSERT_TRUE(t->Append(buf, &r0).ok());
  ASSERT_TRUE(t->Append(buf, &r1).ok());
  EXPECT_EQ(r0, (Rid{0, 0}));
  EXPECT_EQ(r1, (Rid{0, 1}));
}

TEST_F(TableFixture, ForEachTupleInBucketSeesEverythingOnce) {
  Table* t = MakeTable(/*bucket_pages=*/2);
  Fill(t, 1000);
  int64_t seen = 0;
  int64_t sum = 0;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    ASSERT_TRUE(t->ForEachTupleInBucket(b, [&](const TupleRef& tup, Rid) {
                     ++seen;
                     sum += tup.GetInt64(0);
                   }).ok());
  }
  EXPECT_EQ(seen, 1000);
  EXPECT_EQ(sum, 999 * 1000 / 2);
}

TEST_F(TableFixture, BucketPageRangeRespectsPartialTail) {
  Table* t = MakeTable(/*bucket_pages=*/4);
  Fill(t, static_cast<int64_t>(t->tuples_per_page()) * 5);  // 5 pages
  EXPECT_EQ(t->num_buckets(), 2u);
  auto [f0, e0] = t->BucketPageRange(0);
  auto [f1, e1] = t->BucketPageRange(1);
  EXPECT_EQ(f0, 0u);
  EXPECT_EQ(e0, 4u);
  EXPECT_EQ(f1, 4u);
  EXPECT_EQ(e1, 5u);  // partial bucket
}

TEST_F(TableFixture, ReadAndUpdateTuple) {
  Table* t = MakeTable();
  Fill(t, 10);
  auto row = t->ReadTuple(Rid{0, 3});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->AsRef().GetInt64(0), 3);
  ASSERT_TRUE(t->UpdateColumn(Rid{0, 3}, 0, Value::Int64(99)).ok());
  EXPECT_EQ(t->ReadTuple(Rid{0, 3})->AsRef().GetInt64(0), 99);
  // Neighbouring columns untouched.
  EXPECT_EQ(t->ReadTuple(Rid{0, 3})->AsRef().GetString(3), "odd");
}

TEST_F(TableFixture, UpdateOutOfRangeFails) {
  Table* t = MakeTable();
  Fill(t, 5);
  EXPECT_FALSE(t->UpdateColumn(Rid{9, 0}, 0, Value::Int64(0)).ok());
  EXPECT_FALSE(t->UpdateColumn(Rid{0, 200}, 0, Value::Int64(0)).ok());
  EXPECT_FALSE(t->UpdateColumn(Rid{0, 0}, 99, Value::Int64(0)).ok());
}

TEST_F(TableFixture, DeleteTombstonesTuple) {
  Table* t = MakeTable();
  Fill(t, 20);
  EXPECT_EQ(t->num_live_tuples(), 20u);
  ASSERT_TRUE(t->DeleteTuple(Rid{0, 5}).ok());
  EXPECT_EQ(t->num_live_tuples(), 19u);
  EXPECT_EQ(t->num_deleted(), 1u);
  // Deleted tuples become invisible to point reads and updates.
  EXPECT_EQ(t->ReadTuple(Rid{0, 5}).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(t->UpdateColumn(Rid{0, 5}, 0, Value::Int64(1)).code(),
            util::StatusCode::kNotFound);
  // Double delete rejected; neighbours unaffected.
  EXPECT_EQ(t->DeleteTuple(Rid{0, 5}).code(), util::StatusCode::kNotFound);
  EXPECT_TRUE(t->ReadTuple(Rid{0, 4}).ok());
  EXPECT_TRUE(t->ReadTuple(Rid{0, 6}).ok());
}

TEST_F(TableFixture, IterationSkipsDeleted) {
  Table* t = MakeTable();
  Fill(t, 50);
  for (uint16_t s : {0, 7, 49}) {
    ASSERT_TRUE(t->DeleteTuple(Rid{0, s}).ok());
  }
  int64_t seen = 0;
  ASSERT_TRUE(t->ForEachTupleInBucket(0, [&](const TupleRef& tup, Rid rid) {
                   ++seen;
                   EXPECT_NE(rid.slot, 0);
                   EXPECT_NE(rid.slot, 7);
                   EXPECT_NE(rid.slot, 49);
                   EXPECT_NE(tup.GetInt64(0), 7);
                 }).ok());
  EXPECT_EQ(seen, 47);
}

TEST_F(TableFixture, AppendAfterDeleteKeepsSlotRetired) {
  // Tombstoned slots are never reused — Rids and SMA positional
  // correspondence stay stable.
  Table* t = MakeTable();
  Fill(t, 3);
  ASSERT_TRUE(t->DeleteTuple(Rid{0, 2}).ok());
  TupleBuffer buf(&t->schema());
  buf.SetInt64(0, 99);
  buf.SetString(3, "x");
  Rid rid;
  ASSERT_TRUE(t->Append(buf, &rid).ok());
  EXPECT_EQ(rid, (Rid{0, 3}));
  EXPECT_EQ(t->ReadTuple(Rid{0, 2}).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(TableFixture, VacuumSqueezesTombstones) {
  Table* t = MakeTable();
  Fill(t, 40);
  for (uint16_t s : {3, 4, 5, 39}) {
    ASSERT_TRUE(t->DeleteTuple(Rid{0, s}).ok());
  }
  ASSERT_TRUE(t->Vacuum().ok());
  EXPECT_EQ(t->num_tuples(), 36u);
  EXPECT_EQ(t->num_deleted(), 0u);
  // Survivors are dense, in order, with no tombstones left.
  std::vector<int64_t> keys;
  ASSERT_TRUE(t->ForEachTupleInBucket(0, [&](const TupleRef& tup, Rid rid) {
                   EXPECT_EQ(rid.slot, keys.size());
                   keys.push_back(tup.GetInt64(0));
                 }).ok());
  ASSERT_EQ(keys.size(), 36u);
  for (int64_t k : {3, 4, 5, 39}) {
    EXPECT_EQ(std::count(keys.begin(), keys.end(), k), 0);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // Idempotent.
  ASSERT_TRUE(t->Vacuum().ok());
  EXPECT_EQ(t->num_tuples(), 36u);
}

TEST_F(TableFixture, VacuumFreesTailSlotsForAppend) {
  Table* t = MakeTable();
  Fill(t, 5);
  ASSERT_TRUE(t->DeleteTuple(Rid{0, 4}).ok());
  ASSERT_TRUE(t->Vacuum().ok());
  TupleBuffer buf(&t->schema());
  buf.SetInt64(0, 777);
  buf.SetString(3, "x");
  Rid rid;
  ASSERT_TRUE(t->Append(buf, &rid).ok());
  EXPECT_EQ(rid, (Rid{0, 4}));  // the freed tail slot is reused
  EXPECT_EQ(t->num_pages(), 1u);
}

// A pool smaller than a run still serves a BucketReader range: a run's
// later pages never take the pool past three quarters pinned, so through
// two frames every run is one page.
TEST(BucketReaderTest, TwoFramePoolServesARunOnePageAtATime) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 2);
  Catalog catalog(&pool);
  Table* t = *catalog.CreateTable("t", TestSchema(), TableOptions{32});
  const int64_t rows = static_cast<int64_t>(t->tuples_per_page()) * 32;
  TupleBuffer buf(&t->schema());
  for (int64_t i = 0; i < rows; ++i) {
    buf.SetInt64(0, i);
    buf.SetDate(1, util::Date(static_cast<int32_t>(i / 10)));
    buf.SetDecimal(2, util::Decimal(i));
    buf.SetString(3, "x");
    ASSERT_TRUE(t->Append(buf).ok());
  }
  ASSERT_EQ(t->num_pages(), 32u);
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.DropAll().ok());
  {
    auto run = t->PinPages(0, 32);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->size(), 1u);
  }
  ASSERT_TRUE(pool.DropAll().ok());
  pool.ResetStats();

  exec::BucketReader reader(t);
  ASSERT_TRUE(reader.OpenBuckets(0, 1).ok());
  exec::Batch batch;
  batch.Configure(&t->schema(), 1000);
  int64_t seen = 0;
  int64_t key_sum = 0;
  while (true) {
    batch.cols.Clear();
    auto has = reader.NextBatch(&batch.cols);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    for (size_t r = 0; r < batch.cols.num_rows(); ++r) {
      key_sum += batch.cols.Ints(0)[r];
    }
    seen += static_cast<int64_t>(batch.cols.num_rows());
  }
  EXPECT_EQ(seen, rows);
  EXPECT_EQ(key_sum, rows * (rows - 1) / 2);
  EXPECT_EQ(reader.pages_opened(), 32u);
  EXPECT_EQ(pool.stats().misses, 32u);
}

TEST_F(TableFixture, CapacityAccountsForBitmap) {
  Table* t = MakeTable();
  // header + bitmap + slots must fit the page.
  EXPECT_LE(kPageHeaderSize + (t->tuples_per_page() + 7) / 8 +
                t->tuples_per_page() * t->schema().tuple_size(),
            kPageSize);
  // And the capacity is maximal: one more tuple would not fit.
  EXPECT_GT(kPageHeaderSize + (t->tuples_per_page() + 8) / 8 +
                (t->tuples_per_page() + 1) * t->schema().tuple_size(),
            kPageSize);
}

TEST_F(TableFixture, RejectsWrongSchemaAppend) {
  Table* t = MakeTable();
  Schema other({Field::Int64("z")});
  TupleBuffer buf(&other);
  EXPECT_FALSE(t->Append(buf).ok());
}

// --------------------------------------------------------------- Catalog --

TEST(CatalogTest, CreateGetDuplicate) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 64);
  Catalog catalog(&pool);
  auto t = catalog.CreateTable("orders", Schema({Field::Int64("k")}), {});
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.GetTable("orders").ok());
  EXPECT_FALSE(catalog.GetTable("nope").ok());
  EXPECT_EQ(catalog
                .CreateTable("orders", Schema({Field::Int64("k")}), {})
                .status()
                .code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Tables().size(), 1u);
}

}  // namespace
}  // namespace smadb::storage
