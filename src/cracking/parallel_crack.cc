#include "cracking/parallel_crack.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace adaptidx {

namespace {

/// Chunks below this size are not worth a pool round-trip: the dispatch and
/// completion handshake would dominate the partitioning work itself.
constexpr size_t kMinChunkSize = 1u << 12;

/// A contiguous run of misplaced elements, [begin, end).
struct Run {
  Position begin;
  Position end;
};

/// Index of the run containing global misplaced-offset `k`, given the
/// exclusive prefix sums of run lengths (`pre[i]` = elements before run i).
size_t RunForOffset(const std::vector<size_t>& pre, size_t k) {
  return static_cast<size_t>(
             std::upper_bound(pre.begin(), pre.end(), k) - pre.begin()) -
         1;
}

}  // namespace

void ParallelRun(ThreadPool* pool, size_t tasks,
                 const std::function<void(size_t)>& fn, int64_t* wait_ns) {
  if (tasks == 0) return;
  if (pool == nullptr || tasks == 1) {
    for (size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  // Shared by the caller and the helpers it enqueues; helpers that wake
  // after every task is claimed touch only this struct. The function is
  // copied in so a late-waking helper never dereferences caller stack.
  struct Shared {
    std::function<void(size_t)> fn;
    size_t tasks = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
  };
  auto s = std::make_shared<Shared>();
  s->fn = fn;
  s->tasks = tasks;
  auto work = [](const std::shared_ptr<Shared>& st) {
    for (;;) {
      const size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= st->tasks) return;
      st->fn(i);
      std::lock_guard<std::mutex> lk(st->mu);
      if (++st->done == st->tasks) st->cv.notify_all();
    }
  };
  const size_t helpers = std::min(tasks - 1, pool->num_threads());
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([s, work] { work(s); });
  }
  work(s);
  // The handshake publishes every worker's writes to the caller: task
  // results are read only after `done` reached `tasks` under the mutex.
  std::unique_lock<std::mutex> lk(s->mu);
  if (s->done == s->tasks) return;
  const int64_t wait_start = wait_ns != nullptr ? NowNanos() : 0;
  s->cv.wait(lk, [&] { return s->done == s->tasks; });
  if (wait_ns != nullptr) *wait_ns += NowNanos() - wait_start;
}

Position ParallelCrackTwo(CrackerArray* array, Position begin, Position end,
                          Value pivot, ThreadPool* pool, size_t num_chunks,
                          ParallelCrackStats* stats) {
  const size_t n = end > begin ? end - begin : 0;
  size_t chunks = pool != nullptr ? num_chunks : 1;
  chunks = std::min(chunks, n / kMinChunkSize);
  if (chunks <= 1) {
    return array->CrackTwo(begin, end, pivot);
  }

  // Phase A: crack every contiguous chunk independently (disjoint ranges).
  std::vector<Position> cuts(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) {
    cuts[c] = begin + static_cast<Position>(n * c / chunks);
  }
  std::vector<Position> mid(chunks);
  ParallelRun(pool, chunks, [&](size_t c) {
    mid[c] = array->CrackTwo(cuts[c], cuts[c + 1], pivot);
  });

  // The global split is the total "< pivot" count — invariant under any
  // partitioning algorithm, so it matches the sequential kernel's result.
  Position split = begin;
  for (size_t c = 0; c < chunks; ++c) split += mid[c] - cuts[c];

  // Phase B: swap-based refined merge. Left misplacements are the chunk
  // high-regions that intersect [begin, split); right misplacements are the
  // chunk low-regions that intersect [split, end). Their totals are equal
  // by construction of `split`, and swapping the k-th left misplacement
  // with the k-th right one fixes both sides with zero copies.
  const int64_t merge_start = NowNanos();
  std::vector<Run> left;
  std::vector<Run> right;
  for (size_t c = 0; c < chunks; ++c) {
    const Position le = std::min(cuts[c + 1], split);
    if (mid[c] < le) left.push_back(Run{mid[c], le});
    const Position rb = std::max(cuts[c], split);
    if (rb < mid[c]) right.push_back(Run{rb, mid[c]});
  }
  std::vector<size_t> lpre(left.size() + 1, 0);
  for (size_t i = 0; i < left.size(); ++i) {
    lpre[i + 1] = lpre[i] + (left[i].end - left[i].begin);
  }
  std::vector<size_t> rpre(right.size() + 1, 0);
  for (size_t i = 0; i < right.size(); ++i) {
    rpre[i + 1] = rpre[i] + (right[i].end - right[i].begin);
  }
  const size_t misplaced = lpre.back();
  if (misplaced > 0) {
    // Parallelize over the misplaced-pair index space [0, misplaced): each
    // task owns a contiguous slice of pair indices, so the swapped position
    // sets of different tasks are disjoint on both sides.
    const size_t merge_tasks = std::min(
        chunks, std::max<size_t>(1, misplaced / kMinChunkSize));
    ParallelRun(pool, merge_tasks, [&](size_t t) {
      size_t k = misplaced * t / merge_tasks;
      const size_t k_end = misplaced * (t + 1) / merge_tasks;
      if (k >= k_end) return;
      size_t li = RunForOffset(lpre, k);
      size_t ri = RunForOffset(rpre, k);
      while (k < k_end) {
        const size_t len = std::min(
            {lpre[li + 1] - k, rpre[ri + 1] - k, k_end - k});
        array->SwapRanges(left[li].begin + (k - lpre[li]),
                          right[ri].begin + (k - rpre[ri]), len);
        k += len;
        if (k == lpre[li + 1]) ++li;
        if (k == rpre[ri + 1]) ++ri;
      }
    });
  }
  stats->merge_ns += NowNanos() - merge_start;
  stats->chunks += chunks;
  return split;
}

std::pair<Position, Position> ParallelCrackThree(CrackerArray* array,
                                                 Position begin, Position end,
                                                 Value lo, Value hi,
                                                 ThreadPool* pool,
                                                 size_t num_chunks,
                                                 ParallelCrackStats* stats) {
  // Two two-way passes; the second touches only the upper remainder. The
  // resulting regions match the single-pass kernel's (region membership is
  // value-determined; only intra-region order differs).
  const Position p1 =
      ParallelCrackTwo(array, begin, end, lo, pool, num_chunks, stats);
  const Position p2 =
      ParallelCrackTwo(array, p1, end, hi, pool, num_chunks, stats);
  return {p1, p2};
}

void ParallelSortValues(std::vector<Value>* values, ThreadPool* pool,
                        size_t num_chunks) {
  const size_t n = values->size();
  size_t chunks = pool != nullptr ? num_chunks : 1;
  // Power-of-two chunk count so the merge tree is a clean pairwise halving.
  size_t pow2 = 1;
  while (pow2 * 2 <= chunks) pow2 *= 2;
  chunks = std::min(pow2, std::max<size_t>(1, n / kMinChunkSize));
  pow2 = 1;
  while (pow2 * 2 <= chunks) pow2 *= 2;
  chunks = pow2;
  if (chunks <= 1) {
    std::sort(values->begin(), values->end());
    return;
  }
  std::vector<size_t> cuts(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) cuts[c] = n * c / chunks;
  Value* data = values->data();
  ParallelRun(pool, chunks, [&](size_t c) {
    std::sort(data + cuts[c], data + cuts[c + 1]);
  });
  for (size_t width = 1; width < chunks; width *= 2) {
    const size_t pairs = chunks / (2 * width);
    ParallelRun(pool, pairs, [&](size_t p) {
      const size_t lo = 2 * width * p;
      std::inplace_merge(data + cuts[lo], data + cuts[lo + width],
                         data + cuts[lo + 2 * width]);
    });
  }
}

}  // namespace adaptidx
