/// \file Unit tests of the durability subsystem below recovery: the
/// group-commit WAL (format, policies, rotation, concurrent committers),
/// checkpoint image round trips, and the cracked-state export/restore pair
/// on the cracking index. Crash/restart end-to-end coverage lives in
/// recovery_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cracking_index.h"
#include "core/updatable_index.h"
#include "durability/checkpoint.h"
#include "durability/durable_index.h"
#include "durability/wal.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/wire.h"

namespace adaptidx {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on teardown.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("adaptidx_dur_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

using OpType = CommitSink::OpType;

// ------------------------------------------------------------------ WAL core

TEST_F(DurabilityTest, WalAppendScanRoundTrip) {
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  for (int i = 0; i < 100; ++i) {
    const uint64_t lsn = wal->LogCommit(
        i % 3 == 2 ? OpType::kDelete : OpType::kInsert, 1000 + i,
        static_cast<RowId>(i));
    EXPECT_EQ(lsn, static_cast<uint64_t>(i + 1));
    ASSERT_TRUE(wal->WaitDurable(lsn).ok());
  }
  EXPECT_EQ(wal->last_lsn(), 100u);
  EXPECT_EQ(wal->durable_lsn(), 100u);
  const WalStats stats = wal->stats();
  EXPECT_EQ(stats.records_appended, 100u);
  EXPECT_GT(stats.bytes_written, 0u);
  wal.reset();

  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].first, 1u);
  WalSegmentScan scan;
  ASSERT_TRUE(ScanWalSegment(segments[0].second, &scan).ok());
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(scan.records[i].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(scan.records[i].value, 1000 + i);
    EXPECT_EQ(scan.records[i].row_id, static_cast<RowId>(i));
    EXPECT_EQ(scan.records[i].op,
              i % 3 == 2 ? OpType::kDelete : OpType::kInsert);
  }
}

TEST_F(DurabilityTest, WalAllPoliciesDurableAtAck) {
  for (FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kGroup, FsyncPolicy::kNone}) {
    const std::string sub = dir_ + "/p" +
                            std::to_string(static_cast<int>(policy));
    fs::create_directories(sub);
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(sub, policy, 1, &wal).ok());
    for (int i = 0; i < 20; ++i) {
      const uint64_t lsn = wal->LogCommit(OpType::kInsert, i, i);
      ASSERT_TRUE(wal->WaitDurable(lsn).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
    wal.reset();
    WalSegmentScan scan;
    auto segments = ListWalSegments(sub);
    ASSERT_EQ(segments.size(), 1u);
    ASSERT_TRUE(ScanWalSegment(segments[0].second, &scan).ok());
    EXPECT_EQ(scan.records.size(), 20u);
  }
}

TEST_F(DurabilityTest, WalAlwaysFsyncsPerRecordGroupAmortizes) {
  // Sequential committers: kAlways must fsync once per record; kGroup may
  // batch but never syncs more often than kAlways.
  for (FsyncPolicy policy : {FsyncPolicy::kAlways, FsyncPolicy::kGroup}) {
    const std::string sub = dir_ + "/f" +
                            std::to_string(static_cast<int>(policy));
    fs::create_directories(sub);
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(sub, policy, 1, &wal).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(wal->WaitDurable(wal->LogCommit(OpType::kInsert, i, i)).ok());
    }
    const WalStats stats = wal->stats();
    if (policy == FsyncPolicy::kAlways) {
      EXPECT_GE(stats.fsync_count, 50u);
    } else {
      EXPECT_LE(stats.fsync_count, 50u);
      EXPECT_GE(stats.flush_batches, 1u);
    }
  }
}

TEST_F(DurabilityTest, WalRotateSealsAndStartsFreshSegment) {
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  for (int i = 0; i < 10; ++i) wal->LogCommit(OpType::kInsert, i, i);
  ASSERT_TRUE(wal->Rotate().ok());
  for (int i = 10; i < 15; ++i) wal->LogCommit(OpType::kInsert, i, i);
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->stats().rotations, 1u);
  wal.reset();

  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].first, 1u);
  EXPECT_EQ(segments[1].first, 11u);
  WalSegmentScan first, second;
  ASSERT_TRUE(ScanWalSegment(segments[0].second, &first).ok());
  ASSERT_TRUE(ScanWalSegment(segments[1].second, &second).ok());
  EXPECT_EQ(first.records.size(), 10u);
  EXPECT_EQ(second.records.size(), 5u);
  EXPECT_EQ(second.records.front().lsn, 11u);
}

TEST_F(DurabilityTest, WalRemoveSegmentsBelowKeepsCoveringTail) {
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  for (int i = 0; i < 10; ++i) wal->LogCommit(OpType::kInsert, i, i);
  ASSERT_TRUE(wal->Rotate().ok());  // seals [1,10]
  for (int i = 10; i < 20; ++i) wal->LogCommit(OpType::kInsert, i, i);
  ASSERT_TRUE(wal->Rotate().ok());  // seals [11,20]
  ASSERT_TRUE(wal->Sync().ok());

  // A checkpoint at epoch 10 covers exactly the first sealed segment.
  ASSERT_TRUE(wal->RemoveSegmentsBelow(10).ok());
  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].first, 11u);

  // Epoch 5 covers nothing that remains: no segment may vanish.
  ASSERT_TRUE(wal->RemoveSegmentsBelow(5).ok());
  EXPECT_EQ(ListWalSegments(dir_).size(), 2u);
}

TEST_F(DurabilityTest, WalConcurrentCommittersContiguousAndDurable) {
  // The group-commit race suite: many committers interleaving LogCommit
  // (each under its own "commit point") with WaitDurable. The log must
  // come out gap-free and strictly LSN-ordered.
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> failures{0};
  std::mutex commit_mu;  // stands in for the index writer latch
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t lsn = 0;
        {
          std::lock_guard<std::mutex> lk(commit_mu);
          lsn = wal->LogCommit(OpType::kInsert, t * kPerThread + i,
                               static_cast<RowId>(i));
        }
        if (!wal->WaitDurable(lsn).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->last_lsn(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(wal->durable_lsn(), wal->last_lsn());
  const WalStats stats = wal->stats();
  EXPECT_EQ(stats.records_appended,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(stats.max_batch, 1u);
  wal.reset();

  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  WalSegmentScan scan;
  ASSERT_TRUE(ScanWalSegment(segments[0].second, &scan).ok());
  ASSERT_EQ(scan.records.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < scan.records.size(); ++i) {
    ASSERT_EQ(scan.records[i].lsn, i + 1);
  }
}

/// Runs `threads` committers of `per_thread` records each and joins them.
/// LogCommit calls are serialized, as the index writer latch does.
void RunCommitters(WriteAheadLog* wal, int threads, int per_thread) {
  std::mutex commit_mu;
  std::vector<std::thread> committers;
  for (int t = 0; t < threads; ++t) {
    committers.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        uint64_t lsn = 0;
        {
          std::lock_guard<std::mutex> lk(commit_mu);
          lsn = wal->LogCommit(OpType::kInsert, i, static_cast<RowId>(i));
        }
        ASSERT_TRUE(wal->WaitDurable(lsn).ok());
      }
    });
  }
  for (auto& th : committers) th.join();
}

/// The segments in `dir` hold exactly LSNs 1..`records`, in order, untorn.
void ExpectGapFreeLog(const std::string& dir, uint64_t records) {
  uint64_t expect = 1;
  for (const auto& [first_lsn, path] : ListWalSegments(dir)) {
    WalSegmentScan scan;
    ASSERT_TRUE(ScanWalSegment(path, &scan).ok());
    EXPECT_FALSE(scan.torn) << path;
    for (const WalRecord& rec : scan.records) {
      ASSERT_EQ(rec.lsn, expect) << path;
      ++expect;
    }
  }
  EXPECT_EQ(expect, records + 1);
}

TEST_F(DurabilityTest, WalConcurrentWithRotationStaysOrdered) {
  // Rotations racing the committers' drains must never reorder records
  // across the segment boundary (one drain token covers writes and seals).
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::atomic<bool> stop{false};
  std::thread rotator([&] {
    while (!stop.load()) {
      ASSERT_TRUE(wal->Rotate().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  RunCommitters(wal.get(), kThreads, kPerThread);
  stop.store(true);
  rotator.join();
  ASSERT_TRUE(wal->Sync().ok());
  wal.reset();
  ExpectGapFreeLog(dir_, kThreads * kPerThread);
}

TEST_F(DurabilityTest, WalConcurrentWithSyncStaysOrdered) {
  // A Sync racing the committers' own drains must never let a later batch
  // reach the segment before an earlier one.
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::atomic<bool> stop{false};
  std::thread syncer([&] {
    while (!stop.load()) ASSERT_TRUE(wal->Sync().ok());
  });
  RunCommitters(wal.get(), kThreads, kPerThread);
  stop.store(true);
  syncer.join();
  wal.reset();
  ExpectGapFreeLog(dir_, kThreads * kPerThread);
}

TEST_F(DurabilityTest, WalConcurrentRotatorsDoNotDeadlock) {
  // Two rotators racing each other beside committers: neither may
  // deadlock the other, and the log must stay gap-free and LSN-ordered
  // across every segment boundary either rotator cut.
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  constexpr int kCommitters = 2;
  constexpr int kPerThread = 150;
  constexpr int kRotationsPerRotator = 40;
  std::vector<std::thread> rotators;
  for (int r = 0; r < 2; ++r) {
    rotators.emplace_back([&] {
      for (int i = 0; i < kRotationsPerRotator; ++i) {
        ASSERT_TRUE(wal->Rotate().ok());
      }
    });
  }
  RunCommitters(wal.get(), kCommitters, kPerThread);
  for (auto& th : rotators) th.join();
  EXPECT_EQ(wal->stats().rotations, 2u * kRotationsPerRotator);
  ASSERT_TRUE(wal->Sync().ok());
  wal.reset();
  ExpectGapFreeLog(dir_, kCommitters * kPerThread);
}

// ------------------------------------------------------- WAL corruption edge

TEST_F(DurabilityTest, WalTornTailAcceptsLongestValidPrefix) {
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wal->WaitDurable(wal->LogCommit(OpType::kInsert, i, i)).ok());
  }
  wal.reset();
  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  const std::string path = segments[0].second;
  const auto full_size = fs::file_size(path);

  // Chop the file at every byte offset inside the last record: every cut
  // must yield exactly the first 9 records and a torn flag.
  WalSegmentScan base;
  ASSERT_TRUE(ScanWalSegment(path, &base).ok());
  ASSERT_EQ(base.records.size(), 10u);
  const auto record_bytes = (full_size - 16) / 10;  // header is 16 bytes
  for (uintmax_t cut = full_size - record_bytes + 1; cut < full_size; ++cut) {
    fs::resize_file(path, cut);
    WalSegmentScan scan;
    ASSERT_TRUE(ScanWalSegment(path, &scan).ok());
    EXPECT_TRUE(scan.torn) << "cut at " << cut;
    EXPECT_EQ(scan.records.size(), 9u) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, full_size - record_bytes);
    fs::resize_file(path, full_size);  // restore is a no-op data-wise
  }
}

TEST_F(DurabilityTest, WalBitFlipSweepNeverYieldsPhantomRecord) {
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(dir_, FsyncPolicy::kGroup, 1, &wal).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        wal->WaitDurable(wal->LogCommit(OpType::kInsert, 7000 + i, i)).ok());
  }
  wal.reset();
  const std::string path = ListWalSegments(dir_)[0].second;
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip one bit at a time across the last record's bytes: the scan must
  // either reject that record (CRC) or — for the header-of-record length
  // field — reject the framing; it must never decode different content.
  const size_t record_bytes = (pristine.size() - 16) / 4;
  const size_t last_begin = pristine.size() - record_bytes;
  for (size_t off = last_begin; off < pristine.size(); ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = pristine;
      mutated[off] = static_cast<char>(mutated[off] ^ (1 << bit));
      {
        std::ofstream outf(path, std::ios::binary | std::ios::trunc);
        outf.write(mutated.data(),
                   static_cast<std::streamsize>(mutated.size()));
      }
      WalSegmentScan scan;
      Status s = ScanWalSegment(path, &scan);
      if (!s.ok()) continue;  // rejected outright: fine
      ASSERT_LE(scan.records.size(), 4u);
      for (size_t i = 0; i < scan.records.size() && i < 3; ++i) {
        // The untouched prefix always survives intact.
        EXPECT_EQ(scan.records[i].value, 7000 + static_cast<Value>(i));
      }
      if (scan.records.size() == 4) {
        // A full parse despite the flip is only legitimate when the flip
        // landed outside what the codec reads (impossible here: every byte
        // of a record is covered by length, CRC, or payload).
        EXPECT_EQ(scan.records[3].value, 7003);
        EXPECT_TRUE(false) << "bit flip at offset " << off << " bit " << bit
                           << " went undetected";
      }
    }
  }
}

TEST_F(DurabilityTest, WalBadHeaderIsCorruption) {
  const std::string path = dir_ + "/wal-1.log";
  std::ofstream out(path, std::ios::binary);
  out << "NOTAWAL!";
  out.close();
  WalSegmentScan scan;
  EXPECT_TRUE(ScanWalSegment(path, &scan).IsCorruption());
}

// ------------------------------------------------------------- checkpoints

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The image format spelled out one field at a time with WireWriter: the
/// encoder WriteCheckpoint replaced, kept as the format's reference.
std::string ReferenceEncode(const CheckpointImage& image) {
  WireWriter w;
  w.PutU32(1);  // format version
  w.PutU64(image.epoch);
  w.PutU32(image.next_row_id);
  w.PutString(image.column_name);
  w.PutU32(static_cast<uint32_t>(image.base_values.size()));
  for (Value v : image.base_values) w.PutI64(v);
  for (const auto* pairs : {&image.inserts, &image.anti_matter}) {
    w.PutU32(static_cast<uint32_t>(pairs->size()));
    for (const auto& [v, id] : *pairs) {
      w.PutI64(v);
      w.PutU32(id);
    }
  }
  w.PutU8(image.has_adapted ? 1 : 0);
  if (image.has_adapted) {
    const auto& a = image.adapted;
    w.PutU32(static_cast<uint32_t>(a.values.size()));
    for (Value v : a.values) w.PutI64(v);
    for (RowId id : a.row_ids) w.PutU32(id);
    w.PutU32(static_cast<uint32_t>(a.pieces.size()));
    for (const auto& p : a.pieces) {
      w.PutU64(p.begin);
      w.PutU64(p.end);
      w.PutI64(p.lo_value);
      w.PutI64(p.hi_value);
      w.PutU8(p.sorted ? 1 : 0);
    }
  }
  const std::string payload = w.Take();
  WireWriter file;
  for (char c : std::string("ADIXCKP1")) file.PutU8(static_cast<uint8_t>(c));
  file.PutU64(payload.size());
  file.PutU32(Crc32(payload.data(), payload.size()));
  return file.Take() + payload;
}

void ExpectSameImage(const CheckpointImage& got, const CheckpointImage& want) {
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.next_row_id, want.next_row_id);
  EXPECT_EQ(got.column_name, want.column_name);
  EXPECT_EQ(got.base_values, want.base_values);
  EXPECT_EQ(got.inserts, want.inserts);
  EXPECT_EQ(got.anti_matter, want.anti_matter);
  ASSERT_EQ(got.has_adapted, want.has_adapted);
  EXPECT_EQ(got.adapted.values, want.adapted.values);
  EXPECT_EQ(got.adapted.row_ids, want.adapted.row_ids);
  ASSERT_EQ(got.adapted.pieces.size(), want.adapted.pieces.size());
  for (size_t i = 0; i < got.adapted.pieces.size(); ++i) {
    const auto& g = got.adapted.pieces[i];
    const auto& w = want.adapted.pieces[i];
    EXPECT_EQ(g.begin, w.begin) << "piece " << i;
    EXPECT_EQ(g.end, w.end) << "piece " << i;
    EXPECT_EQ(g.lo_value, w.lo_value) << "piece " << i;
    EXPECT_EQ(g.hi_value, w.hi_value) << "piece " << i;
    EXPECT_EQ(g.sorted, w.sorted) << "piece " << i;
  }
}

/// A valid image of `n` shuffled base rows with pending inserts and
/// anti-matter, whose adapted section cuts the rows into `num_pieces`
/// value ranges: odd pieces sorted, even pieces in descending order.
CheckpointImage AdaptedImage(uint64_t epoch, size_t n, size_t num_pieces) {
  CheckpointImage image;
  image.epoch = epoch;
  image.next_row_id = static_cast<RowId>(n + 2);
  image.column_name = "A";
  for (size_t i = 0; i < n; ++i) {
    image.base_values.push_back(static_cast<Value>(i) * 7 - 300);
  }
  Rng rng(epoch);
  rng.Shuffle(&image.base_values);
  image.inserts = {{7 * static_cast<Value>(n), static_cast<RowId>(n)},
                   {7 * static_cast<Value>(n) + 1, static_cast<RowId>(n + 1)}};
  image.anti_matter = {{image.base_values[1], 1}};

  std::vector<RowId> by_value(n);
  for (size_t i = 0; i < n; ++i) by_value[i] = static_cast<RowId>(i);
  std::sort(by_value.begin(), by_value.end(), [&](RowId x, RowId y) {
    return image.base_values[x] < image.base_values[y];
  });
  auto& a = image.adapted;
  image.has_adapted = true;
  for (size_t k = 0; k < num_pieces; ++k) {
    const size_t begin = n * k / num_pieces;
    const size_t end = n * (k + 1) / num_pieces;
    const bool sorted = k % 2 == 1;
    for (size_t i = begin; i < end; ++i) {
      const RowId id = by_value[sorted ? i : begin + end - 1 - i];
      a.values.push_back(image.base_values[id]);
      a.row_ids.push_back(id);
    }
    const Value lo = image.base_values[by_value[begin]];
    const Value hi = end < n ? image.base_values[by_value[end]]
                             : image.base_values[by_value[n - 1]] + 1;
    a.pieces.push_back({begin, end, lo, hi, sorted});
  }
  return image;
}

// The image format is pinned byte for byte: WriteCheckpoint, which writes
// the large arrays straight from memory, produces exactly the bytes of the
// one-field-at-a-time reference encoder, and reference bytes decode back
// to the image they encode.
TEST_F(DurabilityTest, CheckpointBytesMatchReferenceEncoder) {
  std::vector<CheckpointImage> images;
  {
    CheckpointImage plain;  // no adapted section
    plain.epoch = 3;
    plain.next_row_id = 9;
    plain.column_name = "A";
    plain.base_values = {5, -3, 9};
    plain.inserts = {{6, 7}, {8, 8}};
    plain.anti_matter = {{-3, 1}};
    images.push_back(plain);
  }
  images.push_back(AdaptedImage(4, 64, 3));  // empty side stores
  images.back().inserts.clear();
  images.back().anti_matter.clear();
  images.push_back(AdaptedImage(5, 13, 2));  // odd sizes everywhere
  images.back().column_name = "odd_name";
  images.back().anti_matter.push_back({images.back().base_values[4], 4});
  images.push_back(AdaptedImage(6, 1001, 17));  // several pieces
  for (const CheckpointImage& image : images) {
    SCOPED_TRACE("epoch " + std::to_string(image.epoch));
    ASSERT_TRUE(!image.has_adapted ||
                CrackingIndex::ValidateAdaptedState(image.adapted,
                                                    image.base_values.size())
                    .ok());
    ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());
    const std::string path =
        dir_ + "/checkpoint-" + std::to_string(image.epoch) + ".ckpt";
    const std::string reference = ReferenceEncode(image);
    EXPECT_EQ(ReadFileBytes(path), reference);

    WriteFileBytes(path, reference);
    CheckpointImage loaded;
    ASSERT_TRUE(LoadCheckpoint(path, &loaded).ok());
    ExpectSameImage(loaded, image);
  }
}

TEST_F(DurabilityTest, CheckpointImageRoundTrip) {
  CheckpointImage image;
  image.epoch = 42;
  image.next_row_id = 1234;
  image.column_name = "A";
  image.base_values = {5, 3, 9, 1, 7};
  image.inserts = {{6, 1000}, {8, 1001}};
  image.anti_matter = {{3, 1}};
  image.has_adapted = true;
  image.adapted.values = {1, 3, 5, 7, 9};
  image.adapted.row_ids = {3, 1, 0, 4, 2};
  image.adapted.pieces = {{0, 2, -100, 4, false}, {2, 5, 5, 100, true}};
  ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());

  auto list = ListCheckpoints(dir_);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].first, 42u);
  CheckpointImage loaded;
  ASSERT_TRUE(LoadCheckpoint(list[0].second, &loaded).ok());
  ExpectSameImage(loaded, image);
}

// The CRC proves only that the bytes are the ones written. An adapted image
// that does not fit the image's own base column is refused by the decoder
// as Corruption, so recovery falls back to an older image instead of
// trusting rowIDs as positions into the base columns.
TEST_F(DurabilityTest, CheckpointDecoderRejectsAdaptedImageNotFittingBase) {
  CheckpointImage good;
  good.epoch = 1;
  good.column_name = "A";
  good.base_values = {5, 3, 9, 1, 7};
  good.has_adapted = true;
  good.adapted.values = {1, 3, 5, 7, 9};
  good.adapted.row_ids = {3, 1, 0, 4, 2};
  good.adapted.pieces = {{0, 2, -100, 4, false}, {2, 5, 5, 100, true}};

  std::vector<CheckpointImage> bad(3, good);
  bad[0].adapted.row_ids[2] = 5;  // == base count
  bad[1].adapted.values.pop_back();  // adapted size != base count
  bad[1].adapted.row_ids.pop_back();
  bad[1].adapted.pieces.back().end = 4;
  bad[2].adapted.pieces[1].begin = 3;  // gap at position 2

  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    bad[i].epoch = 10 + i;
    ASSERT_TRUE(WriteCheckpoint(dir_, bad[i]).ok());
    CheckpointImage loaded;
    const Status s = LoadCheckpoint(
        dir_ + "/checkpoint-" + std::to_string(bad[i].epoch) + ".ckpt",
        &loaded);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, good).ok());
  CheckpointImage loaded;
  EXPECT_TRUE(LoadCheckpoint(dir_ + "/checkpoint-1.ckpt", &loaded).ok());
}

// Every flipped byte and every truncated prefix of an image is refused:
// the header by its magic and length, the payload by its CRC. The adapted
// image is large enough that the flips cover the CRC's 16-byte steps, all
// three bulk arrays and the piece tiling.
TEST_F(DurabilityTest, CheckpointCorruptionDetectedByteByByte) {
  CheckpointImage plain;
  plain.epoch = 7;
  plain.column_name = "A";
  plain.base_values = {1, 2, 3};
  for (const CheckpointImage& image : {plain, AdaptedImage(8, 67, 4)}) {
    SCOPED_TRACE("epoch " + std::to_string(image.epoch));
    ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());
    const std::string path =
        dir_ + "/checkpoint-" + std::to_string(image.epoch) + ".ckpt";
    const std::string pristine = ReadFileBytes(path);
    {
      CheckpointImage loaded;
      ASSERT_TRUE(LoadCheckpoint(path, &loaded).ok());
      ExpectSameImage(loaded, image);
    }
    for (size_t off = 0; off < pristine.size(); ++off) {
      std::string mutated = pristine;
      mutated[off] = static_cast<char>(mutated[off] ^ 0x40);
      WriteFileBytes(path, mutated);
      CheckpointImage loaded;
      EXPECT_FALSE(LoadCheckpoint(path, &loaded).ok())
          << "flip at offset " << off << " went undetected";
    }
    for (size_t len = 0; len < pristine.size(); ++len) {
      WriteFileBytes(path, pristine.substr(0, len));
      CheckpointImage loaded;
      EXPECT_FALSE(LoadCheckpoint(path, &loaded).ok())
          << "prefix of " << len << " bytes was accepted";
    }
  }
}

// Distinct row IDs are part of a valid adapted image: a repeated one keeps
// every size, bound and sorted flag intact, yet one base row would be
// answered twice and another never. Here SUM [0, 100) would read 27
// instead of 25.
TEST_F(DurabilityTest, CheckpointDecoderRejectsRepeatedAdaptedRowId) {
  CheckpointImage image;
  image.epoch = 42;
  image.column_name = "A";
  image.base_values = {5, 3, 9, 1, 7};
  image.has_adapted = true;
  image.adapted.values = {1, 3, 5, 9, 9};
  image.adapted.row_ids = {3, 1, 0, 2, 2};  // row 4 (value 7) is lost
  image.adapted.pieces = {{0, 2, -100, 4, false}, {2, 5, 5, 100, true}};
  ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());
  CheckpointImage loaded;
  const Status s = LoadCheckpoint(dir_ + "/checkpoint-42.ckpt", &loaded);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  EXPECT_TRUE(CrackingIndex::ValidateAdaptedState(image.adapted, 5)
                  .IsInvalidArgument());
  Column col("A", image.base_values);
  CrackingIndex target(&col);
  const Status r = target.RestoreAdaptedState(image.adapted);
  EXPECT_TRUE(r.IsInvalidArgument()) << r.ToString();
  EXPECT_FALSE(target.initialized());
  QueryContext ctx;
  int64_t sum = 0;
  ASSERT_TRUE(target.RangeSum(ValueRange{0, 100}, &ctx, &sum).ok());
  EXPECT_EQ(sum, 25);
}

TEST_F(DurabilityTest, PruneCheckpointsKeepsNewest) {
  for (uint64_t epoch : {5u, 10u, 15u, 20u}) {
    CheckpointImage image;
    image.epoch = epoch;
    image.column_name = "A";
    image.base_values = {1};
    ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());
  }
  ASSERT_TRUE(PruneCheckpoints(dir_, 2).ok());
  auto list = ListCheckpoints(dir_);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].first, 15u);
  EXPECT_EQ(list[1].first, 20u);
}

// ------------------------------------------- cracked-state export / restore

IndexConfig CrackConfig() {
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  return config;
}

TEST_F(DurabilityTest, ExportRestoreAdaptedStateRoundTrip) {
  Column col = Column::UniqueRandom("A", 4000, 77);
  RangeOracle oracle(col);
  CrackingIndex source(&col);
  QueryContext ctx;
  Rng rng(123);
  for (int i = 0; i < 60; ++i) {
    const Value lo = static_cast<Value>(rng.Next() % 3800);
    uint64_t count = 0;
    ASSERT_TRUE(source.RangeCount(ValueRange{lo, lo + 150}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, lo + 150));
  }
  ASSERT_GT(source.NumPieces(), 10u);

  CrackingIndex::AdaptedState state;
  ASSERT_TRUE(source.ExportAdaptedState(&state).ok());
  ASSERT_EQ(state.values.size(), col.size());
  ASSERT_EQ(state.pieces.size(), source.NumPieces());

  CrackingIndex restored(&col);
  ASSERT_TRUE(restored.RestoreAdaptedState(std::move(state)).ok());
  EXPECT_EQ(restored.NumPieces(), source.NumPieces());
  // The restored index answers correctly and from the inherited pieces: a
  // point probe cracks at most its two bounds, never re-partitions from
  // scratch.
  for (int i = 0; i < 40; ++i) {
    const Value lo = static_cast<Value>(rng.Next() % 3800);
    uint64_t count = 0;
    ASSERT_TRUE(
        restored.RangeCount(ValueRange{lo, lo + 99}, &ctx, &count).ok());
    EXPECT_EQ(count, oracle.Count(lo, lo + 99));
  }
  // Counts cannot see a value travelling with the wrong rowID; rowID
  // answers can. The restore moves the image's two vectors into the
  // array, so every qualifying rowID must match the source's.
  for (int i = 0; i < 40; ++i) {
    const Value lo = static_cast<Value>(rng.Next() % 3800);
    const ValueRange range{lo, lo + 150};
    std::vector<RowId> want;
    std::vector<RowId> got;
    ASSERT_TRUE(source.RangeRowIds(range, &ctx, &want).ok());
    ASSERT_TRUE(restored.RangeRowIds(range, &ctx, &got).ok());
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want);
    ASSERT_TRUE(oracle.CheckRowIds(range.lo, range.hi, got));
  }
  ASSERT_TRUE(restored.ValidateStructure());
}

TEST_F(DurabilityTest, RestoreAdaptedStateRejectsBadTiling) {
  // Large enough that the coarse-piece floor still permits real cracks.
  Column col = Column::UniqueRandom("A", 8000, 5);
  CrackingIndex source(&col);
  QueryContext ctx;
  for (Value lo : {1000, 3000, 5000, 7000}) {
    uint64_t count = 0;
    ASSERT_TRUE(source.RangeCount(ValueRange{lo, lo + 500}, &ctx, &count).ok());
  }
  CrackingIndex::AdaptedState state;
  ASSERT_TRUE(source.ExportAdaptedState(&state).ok());

  CrackingIndex target(&col);
  CrackingIndex::AdaptedState bad = state;
  bad.values.pop_back();
  bad.row_ids.pop_back();
  EXPECT_FALSE(target.RestoreAdaptedState(bad).ok());

  bad = state;
  ASSERT_GT(bad.pieces.size(), 1u);
  bad.pieces[0].end -= 1;  // gap between piece 0 and 1
  EXPECT_FALSE(target.RestoreAdaptedState(bad).ok());
}

TEST_F(DurabilityTest, RestoreAdaptedStateRejectsOutOfRangeRowId) {
  Column col = Column::UniqueRandom("A", 8000, 5);
  CrackingIndex source(&col);
  QueryContext ctx;
  for (Value lo : {1000, 3000, 5000, 7000}) {
    uint64_t count = 0;
    ASSERT_TRUE(source.RangeCount(ValueRange{lo, lo + 500}, &ctx, &count).ok());
  }
  CrackingIndex::AdaptedState state;
  ASSERT_TRUE(source.ExportAdaptedState(&state).ok());

  // A rowID equal to the base count would later index the base columns
  // one past their end.
  CrackingIndex::AdaptedState bad = state;
  bad.row_ids[bad.row_ids.size() / 2] = static_cast<RowId>(col.size());
  EXPECT_TRUE(
      CrackingIndex::ValidateAdaptedState(bad, col.size()).IsInvalidArgument());
  CrackingIndex target(&col);
  const Status s = target.RestoreAdaptedState(bad);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(target.initialized());

  // The refused image left the index pristine: the intact one restores.
  ASSERT_TRUE(target.RestoreAdaptedState(std::move(state)).ok());
  RangeOracle oracle(col);
  std::vector<RowId> ids;
  ASSERT_TRUE(target.RangeRowIds(ValueRange{2000, 2600}, &ctx, &ids).ok());
  EXPECT_TRUE(oracle.CheckRowIds(2000, 2600, ids));
}

// Restore answers bounds from the image's piece bounds alone, so an image
// whose values break them must be refused: a value/rowID pair swapped
// between the first and last piece would otherwise answer SUM [0, 300)
// with the swapped-in large value.
TEST_F(DurabilityTest, RestoreAdaptedStateRejectsValuesOutsideTheirBounds) {
  Column col = Column::UniqueRandom("A", 1000, 9);
  RangeOracle oracle(col);
  CrackingIndex source(&col);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(source.RangeCount(ValueRange{300, 600}, &ctx, &count).ok());
  CrackingIndex::AdaptedState state;
  ASSERT_TRUE(source.ExportAdaptedState(&state).ok());
  ASSERT_EQ(state.pieces.size(), 3u);
  ASSERT_FALSE(state.pieces[0].sorted);

  std::vector<CrackingIndex::AdaptedState> bad(4, state);
  const size_t last = col.size() - 1;
  std::swap(bad[0].values[0], bad[0].values[last]);  // both pieces broken
  std::swap(bad[0].row_ids[0], bad[0].row_ids[last]);
  bad[1].pieces[1].lo_value = bad[1].pieces[0].hi_value - 1;  // overlap
  bad[2].pieces[2].hi_value = bad[2].pieces[2].lo_value;      // empty range
  bad[3].pieces[0].sorted = true;  // a cracked, unsorted piece
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_TRUE(CrackingIndex::ValidateAdaptedState(bad[i], col.size())
                    .IsInvalidArgument());
    CrackingIndex target(&col);
    const Status s = target.RestoreAdaptedState(std::move(bad[i]));
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_FALSE(target.initialized());
  }

  CrackingIndex target(&col);
  ASSERT_TRUE(target.RestoreAdaptedState(std::move(state)).ok());
  int64_t sum = 0;
  ASSERT_TRUE(target.RangeSum(ValueRange{0, 300}, &ctx, &sum).ok());
  EXPECT_EQ(sum, oracle.Sum(0, 300));
  EXPECT_TRUE(target.ValidateStructure());
}

TEST_F(DurabilityTest, ExportUnderConcurrentQueriesStaysConsistent) {
  // Queries keep cracking while exports run; every export must be a valid
  // tiling whose values are a permutation of the column.
  Column col = Column::UniqueRandom("A", 20000, 31);
  CrackingIndex index(&col);
  {
    // Initialize the cracker before exports start (an untouched index
    // exports the legitimate empty state, which is not what this test is
    // probing).
    QueryContext ctx;
    uint64_t count = 0;
    ASSERT_TRUE(index.RangeCount(ValueRange{5000, 15000}, &ctx, &count).ok());
  }
  std::atomic<bool> stop{false};
  std::thread querier([&] {
    QueryContext ctx;
    Rng rng(7);
    while (!stop.load()) {
      const Value lo = static_cast<Value>(rng.Next() % 19000);
      uint64_t count = 0;
      ASSERT_TRUE(index.RangeCount(ValueRange{lo, lo + 500}, &ctx, &count).ok());
    }
  });
  for (int round = 0; round < 30; ++round) {
    CrackingIndex::AdaptedState state;
    ASSERT_TRUE(index.ExportAdaptedState(&state).ok());
    ASSERT_EQ(state.values.size(), col.size());
    // Contiguous tiling with in-bounds piece payloads.
    size_t pos = 0;
    for (const auto& piece : state.pieces) {
      ASSERT_EQ(piece.begin, pos);
      ASSERT_GT(piece.end, piece.begin);
      for (size_t i = piece.begin; i < piece.end; ++i) {
        ASSERT_GE(state.values[i], piece.lo_value);
        ASSERT_LE(state.values[i], piece.hi_value);
      }
      pos = piece.end;
    }
    ASSERT_EQ(pos, col.size());
    // Permutation check via row-id uniqueness.
    std::vector<bool> seen(col.size(), false);
    for (RowId r : state.row_ids) {
      ASSERT_LT(r, col.size());
      ASSERT_FALSE(seen[r]);
      seen[r] = true;
    }
  }
  stop.store(true);
  querier.join();
}

// -------------------------------------------------------------- DurableIndex

TEST_F(DurabilityTest, DurableIndexCommitsAreLoggedInCommitOrder) {
  Column seed = Column::UniqueRandom("A", 500, 9);
  LockManager lm;
  DurabilityOptions opts;
  opts.data_dir = dir_;
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(
      DurableIndex::Open(seed, CrackConfig(), opts, &lm, "t", &di).ok());
  QueryContext ctx;
  ctx.txn_id = 1;
  RowId first = 0;
  ASSERT_TRUE(di->index()->Insert(10000, &ctx, &first).ok());
  RowId second = 0;
  ASSERT_TRUE(di->index()->Insert(10001, &ctx, &second).ok());
  ASSERT_TRUE(di->index()->Delete(10000, first, &ctx).ok());
  EXPECT_EQ(di->last_lsn(), 3u);
  EXPECT_EQ(di->durable_lsn(), 3u);
  EXPECT_EQ(di->index()->commit_epoch(), 3u);
  di.reset();

  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  WalSegmentScan scan;
  ASSERT_TRUE(ScanWalSegment(segments[0].second, &scan).ok());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].op, OpType::kInsert);
  EXPECT_EQ(scan.records[0].value, 10000);
  EXPECT_EQ(scan.records[0].row_id, first);
  EXPECT_EQ(scan.records[2].op, OpType::kDelete);
}

TEST_F(DurabilityTest, DurableIndexCheckpointTruncatesWal) {
  Column seed = Column::UniqueRandom("A", 1000, 11);
  LockManager lm;
  DurabilityOptions opts;
  opts.data_dir = dir_;
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(
      DurableIndex::Open(seed, CrackConfig(), opts, &lm, "t", &di).ok());
  QueryContext ctx;
  ctx.txn_id = 1;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(di->index()->Insert(100000 + i, &ctx).ok());
  }
  uint64_t epoch = 0;
  ASSERT_TRUE(di->Checkpoint(&epoch).ok());
  EXPECT_EQ(epoch, 50u);
  EXPECT_EQ(di->last_checkpoint_epoch(), 50u);
  EXPECT_EQ(di->checkpoints_taken(), 1u);
  // The sealed pre-checkpoint segment is gone; only the live one remains.
  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].first, 51u);
  ASSERT_EQ(ListCheckpoints(dir_).size(), 1u);
}

TEST_F(DurabilityTest, DurableIndexCheckpointBesideConcurrentCommitters) {
  Column seed = Column::UniqueRandom("A", 2000, 13);
  LockManager lm;
  DurabilityOptions opts;
  opts.data_dir = dir_;
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(
      DurableIndex::Open(seed, CrackConfig(), opts, &lm, "t", &di).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryContext ctx;
      ctx.txn_id = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(
            di->index()->Insert(500000 + t * kPerThread + i, &ctx).ok());
      }
    });
  }
  std::thread checkpointer([&] {
    for (int i = 0; i < 5; ++i) {
      Status s = di->Checkpoint();
      ASSERT_TRUE(s.ok()) << s.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& th : threads) th.join();
  checkpointer.join();
  EXPECT_EQ(di->index()->commit_epoch(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(di->checkpoints_taken(), 5u);
  uint64_t count = 0;
  QueryContext ctx;
  ASSERT_TRUE(di->index()
                  ->RangeCount(ValueRange{500000, 500000 + 1000}, &ctx, &count)
                  .ok());
  EXPECT_EQ(count, static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(DurabilityTest, AutoCheckpointerTriggersOnLag) {
  Column seed = Column::UniqueRandom("A", 500, 17);
  LockManager lm;
  DurabilityOptions opts;
  opts.data_dir = dir_;
  opts.checkpoint_interval = 20;
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(
      DurableIndex::Open(seed, CrackConfig(), opts, &lm, "t", &di).ok());
  QueryContext ctx;
  ctx.txn_id = 1;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(di->index()->Insert(90000 + i, &ctx).ok());
  }
  // The 100ms poll fires well within this bound on any machine.
  for (int spin = 0; spin < 100 && di->checkpoints_taken() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(di->checkpoints_taken(), 1u);
  EXPECT_GE(di->last_checkpoint_epoch(), 20u);
}

}  // namespace
}  // namespace adaptidx
