#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/histogram.h"
#include "util/interval_set.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace adaptidx {
namespace {

// ----------------------------------------------------------------- CRC-32

// The textbook bitwise CRC-32: the definition the table kernel must match.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t seed = 0) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

// Every length up to 256 from every start offset up to 15: covers the
// 16-byte steps, every tail length and every alignment of the input.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> buf = RandomBytes(256 + 16, 11);
  for (size_t off = 0; off < 16; ++off) {
    for (size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(Crc32(buf.data() + off, len),
                BitwiseCrc32(buf.data() + off, len))
          << "offset " << off << ", length " << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedEqualsOneShotAtEverySplit) {
  const std::vector<uint8_t> buf = RandomBytes(1024, 12);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, MultiMegabyteBufferMatchesReference) {
  const std::vector<uint8_t> buf = RandomBytes((5u << 20) + 7, 13);
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            BitwiseCrc32(buf.data(), buf.size()));
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryAndPredicates) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Conflict().IsConflict());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
}

TEST(StatusTest, MessagePropagates) {
  Status s = Status::Busy("piece latch held");
  EXPECT_EQ(s.message(), "piece latch held");
  EXPECT_EQ(s.ToString(), "Busy: piece latch held");
}

TEST(StatusTest, CodeEquality) {
  EXPECT_EQ(Status::Busy("a"), Status::Busy("b"));
  EXPECT_FALSE(Status::Busy() == Status::Aborted());
}

TEST(StatusTest, NotOkPredicatesAreExclusive) {
  Status s = Status::Aborted();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsBusy());
  EXPECT_TRUE(s.IsAborted());
}

// ------------------------------------------------------------- StopWatch

TEST(StopWatchTest, ElapsedIsMonotonic) {
  StopWatch sw;
  const int64_t a = sw.ElapsedNanos();
  const int64_t b = sw.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST(StopWatchTest, ResetRestarts) {
  StopWatch sw;
  while (sw.ElapsedNanos() < 100000) {
  }
  sw.Reset();
  EXPECT_LT(sw.ElapsedNanos(), 100000000);
}

TEST(StopWatchTest, UnitConversions) {
  StopWatch sw;
  while (sw.ElapsedNanos() < 1000000) {
  }
  EXPECT_GE(sw.ElapsedMillis(), 1.0);
  EXPECT_GE(sw.ElapsedMicros(), 1000.0);
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
}

TEST(ScopedTimerTest, AccumulatesIntoSink) {
  int64_t sink = 0;
  {
    ScopedTimer t(&sink);
    StopWatch sw;
    while (sw.ElapsedNanos() < 200000) {
    }
  }
  EXPECT_GE(sink, 200000);
}

TEST(ScopedTimerTest, NullSinkIsSafe) {
  ScopedTimer t(nullptr);  // must not crash on destruction
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformRange(-50, 50);
    EXPECT_GE(v, -50);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  Rng rng(3);
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 99);
}

TEST(RngTest, ShuffleEmptyIsSafe) {
  std::vector<int> v;
  Rng rng(3);
  rng.Shuffle(&v);
  EXPECT_TRUE(v.empty());
}

TEST(RngTest, SkewedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Skewed(1000, 0.8), 1000u);
}

TEST(RngTest, SkewedConcentratesLow) {
  Rng rng(5);
  uint64_t low = 0;
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Skewed(1000, 0.9) < 100) ++low;
  }
  // With 0.9 skew, far more than the uniform 10% land in the lowest decile.
  EXPECT_GT(low, static_cast<uint64_t>(kTrials) / 4);
}

TEST(RngTest, SkewZeroIsRoughlyUniform) {
  Rng rng(11);
  uint64_t low = 0;
  const int kTrials = 8000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Skewed(1000, 0.0) < 500) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / kTrials, 0.5, 0.05);
}

// ------------------------------------------------------------ Histogram

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 1000.0);
}

TEST(HistogramTest, MeanOfKnownValues) {
  Histogram h;
  for (int64_t v : {100, 200, 300}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(HistogramTest, PercentileIsOrdered) {
  Histogram h;
  for (int64_t v = 1; v <= 10000; ++v) h.Add(v);
  EXPECT_LE(h.Percentile(10), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(90));
  EXPECT_LE(h.Percentile(90), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), static_cast<double>(h.max()));
}

TEST(HistogramTest, MedianRoughlyCorrect) {
  Histogram h;
  for (int64_t v = 1; v <= 4096; ++v) h.Add(v);
  // Log-bucketed: expect the median within a factor of ~1.6.
  EXPECT_GT(h.Median(), 4096 / 2 / 1.7);
  EXPECT_LT(h.Median(), 4096 / 2 * 1.7);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, ZeroValueLandsInFirstBucket) {
  // Regression: the bucket computation uses __builtin_clzll, which is
  // undefined for 0 — zero must be routed to the first bucket explicitly.
  Histogram h;
  h.Add(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
}

TEST(HistogramTest, ZeroAndOneStaySeparable) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(0);
  h.Add(1);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.max(), 1);
  EXPECT_LE(h.Percentile(50), 1.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(HistogramTest, MergeEmptyKeepsStats) {
  Histogram a;
  Histogram b;
  a.Add(42);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Add(123);
  EXPECT_NE(h.ToString().find("count=1"), std::string::npos);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Add(std::numeric_limits<int64_t>::max() / 2);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.Percentile(50), 0.0);
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, TasksRunConcurrentlyAcrossThreads) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      const int cur = in_flight.fetch_add(1) + 1;
      int prev = max_in_flight.load();
      while (prev < cur && !max_in_flight.compare_exchange_weak(prev, cur)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      in_flight.fetch_sub(1);
    });
  }
  pool.WaitIdle();
  EXPECT_GE(max_in_flight.load(), 1);
  EXPECT_LE(max_in_flight.load(), 2);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 10; ++i) pool.Submit([&counter] { ++counter; });
    pool.WaitIdle();
  }
  EXPECT_EQ(counter.load(), 10);
}

// ---------------------------------------------------------- IntervalSet

TEST(IntervalSetTest, EmptyCoversNothing) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.Covers(0, 1));
}

TEST(IntervalSetTest, SingleInterval) {
  IntervalSet s;
  s.Add(10, 20);
  EXPECT_TRUE(s.Covers(10, 20));
  EXPECT_TRUE(s.Covers(12, 15));
  EXPECT_FALSE(s.Covers(5, 15));
  EXPECT_FALSE(s.Covers(15, 25));
}

TEST(IntervalSetTest, EmptyIntervalIgnored) {
  IntervalSet s;
  s.Add(10, 10);
  s.Add(20, 15);
  EXPECT_TRUE(s.empty());
}

TEST(IntervalSetTest, AdjacentIntervalsCoalesce) {
  IntervalSet s;
  s.Add(0, 10);
  s.Add(10, 20);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Covers(0, 20));
}

TEST(IntervalSetTest, OverlappingIntervalsCoalesce) {
  IntervalSet s;
  s.Add(0, 15);
  s.Add(10, 30);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Covers(0, 30));
}

TEST(IntervalSetTest, ContainedIntervalAbsorbed) {
  IntervalSet s;
  s.Add(0, 100);
  s.Add(20, 30);
  EXPECT_EQ(s.size(), 1u);
}

TEST(IntervalSetTest, SpanningAddMergesMany) {
  IntervalSet s;
  s.Add(0, 10);
  s.Add(20, 30);
  s.Add(40, 50);
  s.Add(5, 45);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Covers(0, 50));
}

TEST(IntervalSetTest, DecomposeMixed) {
  IntervalSet s;
  s.Add(10, 20);
  s.Add(30, 40);
  std::vector<ValueRange> covered;
  std::vector<ValueRange> gaps;
  s.Decompose(5, 45, &covered, &gaps);
  ASSERT_EQ(covered.size(), 2u);
  EXPECT_EQ(covered[0].lo, 10);
  EXPECT_EQ(covered[0].hi, 20);
  EXPECT_EQ(covered[1].lo, 30);
  EXPECT_EQ(covered[1].hi, 40);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0].lo, 5);
  EXPECT_EQ(gaps[0].hi, 10);
  EXPECT_EQ(gaps[1].lo, 20);
  EXPECT_EQ(gaps[1].hi, 30);
  EXPECT_EQ(gaps[2].lo, 40);
  EXPECT_EQ(gaps[2].hi, 45);
}

TEST(IntervalSetTest, DecomposeFullyCovered) {
  IntervalSet s;
  s.Add(0, 100);
  std::vector<ValueRange> covered;
  std::vector<ValueRange> gaps;
  s.Decompose(10, 90, &covered, &gaps);
  ASSERT_EQ(covered.size(), 1u);
  EXPECT_TRUE(gaps.empty());
}

TEST(IntervalSetTest, DecomposeFullyUncovered) {
  IntervalSet s;
  s.Add(100, 200);
  std::vector<ValueRange> covered;
  std::vector<ValueRange> gaps;
  s.Decompose(0, 50, &covered, &gaps);
  EXPECT_TRUE(covered.empty());
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].lo, 0);
  EXPECT_EQ(gaps[0].hi, 50);
}

TEST(IntervalSetTest, RandomizedCoverageAgainstBitmapOracle) {
  const int kDomain = 256;
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    IntervalSet s;
    std::vector<bool> oracle(kDomain, false);
    for (int i = 0; i < 30; ++i) {
      const Value lo = rng.UniformRange(0, kDomain);
      const Value hi = rng.UniformRange(0, kDomain);
      if (lo < hi) {
        s.Add(lo, hi);
        for (Value v = lo; v < hi; ++v) oracle[static_cast<size_t>(v)] = true;
      }
    }
    // Decompose the whole domain and cross-check against the bitmap.
    std::vector<ValueRange> covered;
    std::vector<ValueRange> gaps;
    s.Decompose(0, kDomain, &covered, &gaps);
    std::vector<bool> rebuilt(kDomain, false);
    for (const auto& c : covered) {
      for (Value v = c.lo; v < c.hi; ++v) rebuilt[static_cast<size_t>(v)] = true;
    }
    for (const auto& g : gaps) {
      for (Value v = g.lo; v < g.hi; ++v) {
        EXPECT_FALSE(oracle[static_cast<size_t>(v)]);
      }
    }
    EXPECT_EQ(rebuilt, oracle);
  }
}

}  // namespace
}  // namespace adaptidx
