/// \file End-to-end crash-recovery tests: restart inheritance of the
/// adapted (cracked) state, WAL replay without a checkpoint, torn-tail
/// handling on real recovery, checkpoint-corruption fallback, and the
/// kill-mid-stream suite — a child process is SIGKILLed at a random point
/// of its commit stream and every acknowledged commit must be recovered
/// with no lost and no phantom rows.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
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
#include "util/rng.h"

// The kill suite forks and runs full engine threads in the child;
// ThreadSanitizer's runtime does not support that shape, so those tests
// skip under TSAN (the concurrent-committer races are covered without
// fork in durability_test.cc, which TSAN does run).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ADAPTIDX_TSAN 1
#endif
#endif
#if !defined(ADAPTIDX_TSAN) && defined(__SANITIZE_THREAD__)
#define ADAPTIDX_TSAN 1
#endif

namespace adaptidx {
namespace {

namespace fs = std::filesystem;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("adaptidx_rec_" + std::to_string(::getpid()) + "_" +
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

IndexConfig CrackConfig() {
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  return config;
}

Status OpenDurable(const std::string& dir, const Column& seed,
                   LockManager* lm, std::unique_ptr<DurableIndex>* out,
                   uint64_t checkpoint_interval = 0) {
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.checkpoint_interval = checkpoint_interval;
  return DurableIndex::Open(seed, CrackConfig(), opts, lm, "t", out);
}

TEST_F(RecoveryTest, FreshDirectorySeedsAndServes) {
  Column seed = Column::UniqueRandom("A", 1000, 3);
  RangeOracle oracle(seed);
  LockManager lm;
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  EXPECT_FALSE(di->recovery_stats().checkpoint_loaded);
  EXPECT_EQ(di->recovery_stats().records_replayed, 0u);
  EXPECT_EQ(di->recovery_stats().next_lsn, 1u);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(di->index()->RangeCount(ValueRange{100, 600}, &ctx, &count).ok());
  EXPECT_EQ(count, oracle.Count(100, 600));
}

TEST_F(RecoveryTest, ReplayWithoutCheckpointRestoresEverything) {
  Column seed = Column::UniqueRandom("A", 1000, 5);
  LockManager lm;
  RowId deleted_row = 0;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    for (int i = 0; i < 30; ++i) {
      RowId id = 0;
      ASSERT_TRUE(di->index()->Insert(10000 + i, &ctx, &id).ok());
      if (i == 7) deleted_row = id;
    }
    ASSERT_TRUE(di->index()->Delete(10007, deleted_row, &ctx).ok());
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_FALSE(rs.checkpoint_loaded);
  EXPECT_EQ(rs.records_replayed, 31u);
  EXPECT_EQ(rs.next_lsn, 32u);
  EXPECT_EQ(di->index()->commit_epoch(), 31u);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{10000, 10030}, &ctx, &count).ok());
  EXPECT_EQ(count, 29u);  // 30 inserts, one deleted
  // Row-id sequence resumes exactly where the first run stopped.
  RowId next = 0;
  ctx.txn_id = 2;
  ASSERT_TRUE(di->index()->Insert(20000, &ctx, &next).ok());
  EXPECT_EQ(next, 1030u);
}

TEST_F(RecoveryTest, RestartInheritsAdaptedStateAndAnswers) {
  Column seed = Column::UniqueRandom("A", 8000, 7);
  RangeOracle oracle(seed);
  LockManager lm;
  size_t pieces_before = 0;
  uint64_t epoch_before = 0;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    Rng rng(42);
    for (int i = 0; i < 80; ++i) {
      const Value lo = static_cast<Value>(rng.Uniform(7500));
      uint64_t count = 0;
      ASSERT_TRUE(
          di->index()->RangeCount(ValueRange{lo, lo + 200}, &ctx, &count).ok());
      ASSERT_EQ(count, oracle.Count(lo, lo + 200));
    }
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(di->index()->Insert(100000 + i, &ctx).ok());
    }
    pieces_before = di->index()->NumPieces();
    ASSERT_GT(pieces_before, 10u);
    epoch_before = di->index()->commit_epoch();
    ASSERT_TRUE(di->Checkpoint().ok());
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_TRUE(rs.checkpoint_loaded);
  EXPECT_TRUE(rs.adapted_restored);
  EXPECT_EQ(rs.checkpoint_epoch, epoch_before);
  EXPECT_EQ(rs.records_replayed, 0u);
  // Inheritance, not re-adaptation: the piece map is back verbatim before
  // any post-restart query ran. A cold restart would sit at one piece.
  EXPECT_EQ(di->index()->NumPieces(), pieces_before);
  EXPECT_EQ(di->index()->commit_epoch(), epoch_before);
  QueryContext ctx;
  Rng rng(43);
  for (int i = 0; i < 40; ++i) {
    const Value lo = static_cast<Value>(rng.Uniform(7500));
    uint64_t count = 0;
    ASSERT_TRUE(
        di->index()->RangeCount(ValueRange{lo, lo + 333}, &ctx, &count).ok());
    ASSERT_EQ(count, oracle.Count(lo, lo + 333));
  }
  uint64_t count = 0;
  ASSERT_TRUE(di->index()
                  ->RangeCount(ValueRange{100000, 100010}, &ctx, &count)
                  .ok());
  EXPECT_EQ(count, 10u);
}

TEST_F(RecoveryTest, CheckpointPlusWalSuffixReplays) {
  Column seed = Column::UniqueRandom("A", 1000, 11);
  LockManager lm;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(di->index()->Insert(50000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());
    for (int i = 20; i < 35; ++i) {
      ASSERT_TRUE(di->index()->Insert(50000 + i, &ctx).ok());
    }
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_TRUE(rs.checkpoint_loaded);
  EXPECT_EQ(rs.checkpoint_epoch, 20u);
  EXPECT_EQ(rs.records_replayed, 15u);
  EXPECT_EQ(di->index()->commit_epoch(), 35u);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{50000, 50035}, &ctx, &count).ok());
  EXPECT_EQ(count, 35u);
}

TEST_F(RecoveryTest, FoldInLogReplaysDeterministically) {
  Column seed = Column::UniqueRandom("A", 500, 13);
  LockManager lm;
  size_t rows_before = 0;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(di->index()->Insert(70000 + i, &ctx).ok());
    }
    // The fold rebuilds the base and re-assigns row ids; its WAL marker
    // must replay to the identical state.
    ASSERT_TRUE(di->index()->Checkpoint().ok());
    for (int i = 10; i < 15; ++i) {
      ASSERT_TRUE(di->index()->Insert(70000 + i, &ctx).ok());
    }
    rows_before = di->index()->num_rows();
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  EXPECT_EQ(di->recovery_stats().records_replayed, 16u);  // 15 inserts + fold
  EXPECT_EQ(di->index()->num_rows(), rows_before);
  EXPECT_EQ(di->index()->pending_inserts(), 5u);  // post-fold suffix
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{70000, 70015}, &ctx, &count).ok());
  EXPECT_EQ(count, 15u);
}

TEST_F(RecoveryTest, TornTailIsTruncatedAndPrefixKept) {
  Column seed = Column::UniqueRandom("A", 500, 17);
  LockManager lm;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(di->index()->Insert(30000 + i, &ctx).ok());
    }
  }
  // Simulate a crash mid-append: chop the newest segment inside its last
  // record.
  auto segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  const auto size = fs::file_size(segments[0].second);
  fs::resize_file(segments[0].second, size - 5);

  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_GT(rs.truncated_bytes, 0u);
  EXPECT_EQ(rs.records_replayed, 9u);  // the torn 10th is gone
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{30000, 30010}, &ctx, &count).ok());
  EXPECT_EQ(count, 9u);
  // The truncation is persistent: a third open replays the same prefix
  // and the log grows cleanly from there.
  di.reset();
  std::unique_ptr<DurableIndex> again;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &again).ok());
  EXPECT_EQ(again->recovery_stats().truncated_bytes, 0u);
  EXPECT_EQ(again->index()->commit_epoch(), 9u);
}

TEST_F(RecoveryTest, UnreadableNewestSegmentFailsRecoveryAndStays) {
  // A segment that cannot be read is not a torn tail: its bytes were never
  // judged, so recovery must fail rather than cut or delete the log. A
  // directory under the newest segment's name fails every read.
  Column seed = Column::UniqueRandom("A", 500, 29);
  const std::string segment = dir_ + "/wal-1.log";
  fs::create_directories(segment);
  LockManager lm;
  std::unique_ptr<DurableIndex> di;
  Status s = OpenDurable(dir_, seed, &lm, &di);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(fs::is_directory(segment));
}

TEST_F(RecoveryTest, ReplayedSuffixLeavesNoDeltaLog) {
  // Recovery folds the replayed WAL suffix into the flat version, so the
  // first snapshot after a restart scans no log — and still answers the
  // full logical state.
  Column seed = Column::UniqueRandom("A", 2000, 31);
  std::multiset<Value> oracle(seed.values().begin(), seed.values().end());
  LockManager lm;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(di->index()->Insert(3000 + i, &ctx).ok());
      oracle.insert(3000 + i);
    }
    ASSERT_TRUE(di->Checkpoint().ok());
    RowId pending = 0;
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(di->index()->Insert(5000 + 3 * i, &ctx, &pending).ok());
      oracle.insert(5000 + 3 * i);
    }
    ASSERT_TRUE(di->index()->Delete(5000 + 3 * 149, pending, &ctx).ok());
    oracle.erase(oracle.find(5000 + 3 * 149));
    ASSERT_TRUE(di->index()->Delete(seed[11], 11, &ctx).ok());
    oracle.erase(oracle.find(seed[11]));
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  EXPECT_TRUE(di->recovery_stats().checkpoint_loaded);
  EXPECT_EQ(di->recovery_stats().records_replayed, 152u);
  Snapshot snap = di->index()->CaptureSnapshot();
  EXPECT_EQ(snap.log_length(), 0u);
  int64_t want = 0;
  for (Value v : oracle) want += v;
  QueryContext ctx;
  QueryResult r;
  ASSERT_TRUE(di->index()
                  ->ExecuteSnapshot(Query::Sum("", "", 0, 100000), snap, &ctx,
                                    &r)
                  .ok());
  EXPECT_EQ(r.sum, want);
}

TEST_F(RecoveryTest, CorruptNewestCheckpointFallsBackToPrevious) {
  Column seed = Column::UniqueRandom("A", 500, 19);
  LockManager lm;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 5
    for (int i = 5; i < 12; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 12
  }
  auto checkpoints = ListCheckpoints(dir_);
  ASSERT_EQ(checkpoints.size(), 2u);
  // Flip a byte deep inside the newest image.
  {
    std::fstream f(checkpoints[1].second,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    char b = 0;
    f.seekg(100);
    f.get(b);
    f.seekp(100);
    f.put(static_cast<char>(b ^ 0x20));
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_TRUE(rs.checkpoint_loaded);
  EXPECT_EQ(rs.invalid_checkpoints, 1u);
  EXPECT_EQ(rs.checkpoint_epoch, 5u);  // the fallback image
  // The WAL still covers epochs 6..12: checkpoint 12's truncation only
  // removed segments below epoch 12's *rotation* point, and every record
  // past epoch 5 that survives replays. The net state must be complete.
  EXPECT_EQ(di->index()->commit_epoch(), 12u);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{40000, 40012}, &ctx, &count).ok());
  EXPECT_EQ(count, 12u);
}

TEST_F(RecoveryTest, OutOfRangeAdaptedRowIdFallsBackToPrevious) {
  Column seed = Column::UniqueRandom("A", 500, 23);
  LockManager lm;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    // Touch the cracker first so both images carry an adapted state.
    uint64_t count = 0;
    ASSERT_TRUE(
        di->index()->RangeCount(ValueRange{100, 300}, &ctx, &count).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 5
    for (int i = 5; i < 12; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 12
  }
  auto checkpoints = ListCheckpoints(dir_);
  ASSERT_EQ(checkpoints.size(), 2u);
  // Re-encode the newest image with one rowID equal to the base count.
  // WriteCheckpoint computes a fresh CRC, so only the structural check of
  // the adapted image can refuse it.
  {
    CheckpointImage image;
    ASSERT_TRUE(LoadCheckpoint(checkpoints[1].second, &image).ok());
    ASSERT_EQ(image.epoch, 12u);
    ASSERT_TRUE(image.has_adapted);
    image.adapted.row_ids[image.adapted.row_ids.size() / 2] =
        static_cast<RowId>(image.base_values.size());
    ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_TRUE(rs.checkpoint_loaded);
  ASSERT_EQ(rs.invalid_checkpoints, 1u);
  EXPECT_EQ(rs.checkpoint_epoch, 5u);  // the fallback image
  EXPECT_TRUE(rs.adapted_restored);
  EXPECT_EQ(di->index()->commit_epoch(), 12u);
  QueryContext ctx;
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{40000, 40012}, &ctx, &count).ok());
  EXPECT_EQ(count, 12u);
  RangeOracle oracle(seed);
  std::vector<RowId> ids;
  ASSERT_TRUE(di->index()->RangeRowIds(ValueRange{0, 500}, &ctx, &ids).ok());
  EXPECT_TRUE(oracle.CheckRowIds(0, 500, ids));
}

// Same fallback for an image with a repeated rowID. The copy lands next to
// its original, so sizes, bounds and sorted flags all still hold and the
// image would restore; every answer over the base would then count one row
// twice and lose another.
TEST_F(RecoveryTest, RepeatedAdaptedRowIdFallsBackToPrevious) {
  Column seed = Column::UniqueRandom("A", 500, 31);
  LockManager lm;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    uint64_t count = 0;
    ASSERT_TRUE(
        di->index()->RangeCount(ValueRange{100, 300}, &ctx, &count).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 5
    for (int i = 5; i < 12; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 12
  }
  auto checkpoints = ListCheckpoints(dir_);
  ASSERT_EQ(checkpoints.size(), 2u);
  {
    CheckpointImage image;
    ASSERT_TRUE(LoadCheckpoint(checkpoints[1].second, &image).ok());
    ASSERT_EQ(image.epoch, 12u);
    ASSERT_TRUE(image.has_adapted);
    auto& a = image.adapted;
    const auto& piece = a.pieces.back();
    ASSERT_GE(piece.end - piece.begin, 2u);
    a.values[piece.begin + 1] = a.values[piece.begin];
    a.row_ids[piece.begin + 1] = a.row_ids[piece.begin];
    ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_TRUE(rs.checkpoint_loaded);
  EXPECT_EQ(rs.invalid_checkpoints, 1u);
  EXPECT_EQ(rs.checkpoint_epoch, 5u);  // the fallback image
  EXPECT_TRUE(rs.adapted_restored);
  EXPECT_EQ(di->index()->commit_epoch(), 12u);
  RangeOracle oracle(seed);
  QueryContext ctx;
  for (const ValueRange& range : {ValueRange{0, 100}, ValueRange{100, 300},
                                  ValueRange{300, 500}, ValueRange{0, 500}}) {
    int64_t sum = 0;
    ASSERT_TRUE(di->index()->RangeSum(range, &ctx, &sum).ok());
    EXPECT_EQ(sum, oracle.Sum(range.lo, range.hi))
        << range.lo << ".." << range.hi;
  }
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{40000, 40012}, &ctx, &count).ok());
  EXPECT_EQ(count, 12u);
}

// Same fallback for an image whose values break their piece bounds: a
// value/rowID pair swapped between the first and last piece, re-encoded
// with a fresh CRC, would otherwise restore and answer the low ranges with
// the swapped-in high value.
TEST_F(RecoveryTest, AdaptedValueOutsideItsPieceFallsBackToPrevious) {
  Column seed = Column::UniqueRandom("A", 500, 29);
  LockManager lm;
  {
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
    QueryContext ctx;
    ctx.txn_id = 1;
    uint64_t count = 0;
    ASSERT_TRUE(
        di->index()->RangeCount(ValueRange{100, 300}, &ctx, &count).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 5
    for (int i = 5; i < 12; ++i) {
      ASSERT_TRUE(di->index()->Insert(40000 + i, &ctx).ok());
    }
    ASSERT_TRUE(di->Checkpoint().ok());  // epoch 12
  }
  auto checkpoints = ListCheckpoints(dir_);
  ASSERT_EQ(checkpoints.size(), 2u);
  {
    CheckpointImage image;
    ASSERT_TRUE(LoadCheckpoint(checkpoints[1].second, &image).ok());
    ASSERT_EQ(image.epoch, 12u);
    ASSERT_TRUE(image.has_adapted);
    ASSERT_GE(image.adapted.pieces.size(), 2u);
    auto& a = image.adapted;
    std::swap(a.values.front(), a.values.back());
    std::swap(a.row_ids.front(), a.row_ids.back());
    ASSERT_TRUE(WriteCheckpoint(dir_, image).ok());
  }
  std::unique_ptr<DurableIndex> di;
  ASSERT_TRUE(OpenDurable(dir_, seed, &lm, &di).ok());
  const RecoveryStats& rs = di->recovery_stats();
  EXPECT_TRUE(rs.checkpoint_loaded);
  EXPECT_EQ(rs.invalid_checkpoints, 1u);
  EXPECT_EQ(rs.checkpoint_epoch, 5u);  // the fallback image
  EXPECT_TRUE(rs.adapted_restored);
  EXPECT_EQ(di->index()->commit_epoch(), 12u);
  RangeOracle oracle(seed);
  QueryContext ctx;
  for (const ValueRange& range : {ValueRange{0, 100}, ValueRange{100, 300},
                                  ValueRange{300, 500}, ValueRange{0, 500}}) {
    std::vector<RowId> ids;
    ASSERT_TRUE(di->index()->RangeRowIds(range, &ctx, &ids).ok());
    EXPECT_TRUE(oracle.CheckRowIds(range.lo, range.hi, ids))
        << range.lo << ".." << range.hi;
    int64_t sum = 0;
    ASSERT_TRUE(di->index()->RangeSum(range, &ctx, &sum).ok());
    EXPECT_EQ(sum, oracle.Sum(range.lo, range.hi))
        << range.lo << ".." << range.hi;
  }
  uint64_t count = 0;
  ASSERT_TRUE(
      di->index()->RangeCount(ValueRange{40000, 40012}, &ctx, &count).ok());
  EXPECT_EQ(count, 12u);
}

#if !defined(ADAPTIDX_TSAN)

/// Child body of the kill suite: open the durable index, stream inserts,
/// and report each *acknowledged* commit over the pipe only after Insert
/// returned OK (i.e. after WaitDurable). Never returns.
[[noreturn]] void KillChildMain(const std::string& dir, const Column& seed,
                                int pipe_fd, Value base, int max_ops) {
  LockManager lm;
  std::unique_ptr<DurableIndex> di;
  DurabilityOptions opts;
  opts.data_dir = dir;
  // Group commit: the ack over the pipe is the durability claim under test.
  Status s = DurableIndex::Open(seed, CrackConfig(), opts, &lm, "t", &di);
  if (!s.ok()) _exit(3);
  QueryContext ctx;
  ctx.txn_id = 1;
  for (int i = 0; i < max_ops; ++i) {
    const Value v = base + i;
    if (!di->index()->Insert(v, &ctx).ok()) _exit(4);
    // Acked: the commit is durable. Tell the parent.
    int64_t wire = v;
    if (::write(pipe_fd, &wire, sizeof(wire)) != sizeof(wire)) _exit(5);
  }
  // Finished every op without being killed; the parent treats this as a
  // clean (still verifiable) run.
  _exit(0);
}

TEST_F(RecoveryTest, KillMidStreamLosesNoAckedCommit) {
  Column seed = Column::UniqueRandom("A", 2000, 23);
  constexpr Value kBase = 1 << 20;
  constexpr int kMaxOps = 5000;
  Rng rng(2012);
  for (int round = 0; round < 4; ++round) {
    const std::string dir = dir_ + "/round" + std::to_string(round);
    fs::create_directories(dir);
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipe_fds[0]);
      KillChildMain(dir, seed, pipe_fds[1], kBase, kMaxOps);
    }
    ::close(pipe_fds[1]);
    // Let the child commit for a random slice, then kill it dead —
    // SIGKILL, not a graceful anything — at an arbitrary stream offset.
    const int run_ms = 20 + static_cast<int>(rng.Uniform(150));
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    ::kill(pid, SIGKILL);
    // Every value in the pipe was written strictly after its commit was
    // acknowledged durable. Drain to EOF (the kill closes the write end).
    std::set<Value> acked;
    int64_t wire = 0;
    ssize_t n = 0;
    std::string buf;
    char chunk[4096];
    while ((n = ::read(pipe_fds[0], chunk, sizeof(chunk))) > 0) {
      buf.append(chunk, static_cast<size_t>(n));
    }
    ::close(pipe_fds[0]);
    for (size_t off = 0; off + sizeof(wire) <= buf.size();
         off += sizeof(wire)) {
      std::memcpy(&wire, buf.data() + off, sizeof(wire));
      acked.insert(static_cast<Value>(wire));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    // Recover what the child left behind.
    LockManager lm;
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir, seed, &lm, &di).ok())
        << "round " << round << " after " << acked.size() << " acks";
    QueryContext ctx;
    // No lost rows: every acked value is present exactly once.
    for (Value v : acked) {
      uint64_t count = 0;
      ASSERT_TRUE(
          di->index()->RangeCount(ValueRange{v, v + 1}, &ctx, &count).ok());
      ASSERT_EQ(count, 1u) << "acked value " << v << " lost (round " << round
                           << ")";
    }
    // No phantoms: everything recovered beyond the acked set can only be
    // the (durable-but-unacked) continuation of the stream — contiguous
    // values from the attempted range, each present at most once.
    uint64_t recovered = 0;
    ASSERT_TRUE(di->index()
                    ->RangeCount(ValueRange{kBase, kBase + kMaxOps}, &ctx,
                                 &recovered)
                    .ok());
    ASSERT_GE(recovered, acked.size());
    const uint64_t epoch = di->index()->commit_epoch();
    ASSERT_EQ(epoch, recovered);  // one commit per insert, nothing else
    for (uint64_t i = 0; i < recovered; ++i) {
      uint64_t count = 0;
      const Value v = kBase + static_cast<Value>(i);
      ASSERT_TRUE(
          di->index()->RangeCount(ValueRange{v, v + 1}, &ctx, &count).ok());
      ASSERT_EQ(count, 1u) << "stream not contiguous at " << v;
    }
  }
}

TEST_F(RecoveryTest, KillMidStreamWithCheckpointsStillRecovers) {
  // Same contract with the auto-checkpointer racing the kill: a crash may
  // land mid-checkpoint (torn temp file, half-pruned WAL) and recovery
  // must still produce every acked commit.
  Column seed = Column::UniqueRandom("A", 2000, 29);
  constexpr Value kBase = 1 << 21;
  constexpr int kMaxOps = 5000;
  Rng rng(4242);
  for (int round = 0; round < 3; ++round) {
    const std::string dir = dir_ + "/round" + std::to_string(round);
    fs::create_directories(dir);
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipe_fds[0]);
      LockManager lm;
      std::unique_ptr<DurableIndex> di;
      DurabilityOptions opts;
      opts.data_dir = dir;
      opts.checkpoint_interval = 64;  // keep the checkpointer busy
      Status s =
          DurableIndex::Open(seed, CrackConfig(), opts, &lm, "t", &di);
      if (!s.ok()) _exit(3);
      QueryContext ctx;
      ctx.txn_id = 1;
      for (int i = 0; i < kMaxOps; ++i) {
        const Value v = kBase + i;
        if (!di->index()->Insert(v, &ctx).ok()) _exit(4);
        int64_t wire = v;
        if (::write(pipe_fds[1], &wire, sizeof(wire)) != sizeof(wire)) {
          _exit(5);
        }
      }
      _exit(0);
    }
    ::close(pipe_fds[1]);
    const int run_ms = 120 + static_cast<int>(rng.Uniform(250));
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    ::kill(pid, SIGKILL);
    std::set<Value> acked;
    std::string buf;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::read(pipe_fds[0], chunk, sizeof(chunk))) > 0) {
      buf.append(chunk, static_cast<size_t>(n));
    }
    ::close(pipe_fds[0]);
    int64_t wire = 0;
    for (size_t off = 0; off + sizeof(wire) <= buf.size();
         off += sizeof(wire)) {
      std::memcpy(&wire, buf.data() + off, sizeof(wire));
      acked.insert(static_cast<Value>(wire));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    LockManager lm;
    std::unique_ptr<DurableIndex> di;
    ASSERT_TRUE(OpenDurable(dir, seed, &lm, &di).ok())
        << "round " << round << " after " << acked.size() << " acks";
    QueryContext ctx;
    for (Value v : acked) {
      uint64_t count = 0;
      ASSERT_TRUE(
          di->index()->RangeCount(ValueRange{v, v + 1}, &ctx, &count).ok());
      ASSERT_EQ(count, 1u) << "acked value " << v << " lost (round " << round
                           << ")";
    }
  }
}

#else  // ADAPTIDX_TSAN

TEST_F(RecoveryTest, KillMidStreamLosesNoAckedCommit) {
  GTEST_SKIP() << "fork-based kill suite is not runnable under TSAN";
}

TEST_F(RecoveryTest, KillMidStreamWithCheckpointsStillRecovers) {
  GTEST_SKIP() << "fork-based kill suite is not runnable under TSAN";
}

#endif  // ADAPTIDX_TSAN

}  // namespace
}  // namespace adaptidx
