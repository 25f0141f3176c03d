#ifndef ADAPTIDX_CRACKING_PARALLEL_CRACK_H_
#define ADAPTIDX_CRACKING_PARALLEL_CRACK_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cracking/cracker_array.h"
#include "storage/types.h"

namespace adaptidx {

class ThreadPool;

/// \file
/// Intra-query data-parallel cracking (Alvarez, Schuhknecht, Dittrich,
/// Richter: "Main Memory Adaptive Indexing for Multi-core Systems").
///
/// The expensive cracks are the first-touch ones: the first query of a shard
/// partitions the whole (still monolithic) piece with a single thread while
/// the rest of the machine idles. The parallel crack splits the piece into T
/// contiguous chunks, cracks each chunk independently on the shared thread
/// pool with the existing tier kernels, and then repairs the
/// chunk-local partitions into one global partition with a *swap-based
/// refined merge*: the k-th ">= pivot" element stranded left of the global
/// split position is exchanged with the k-th "< pivot" element stranded at
/// or right of it. No element is copied out of the array; every element
/// moves at most once more than in the sequential crack.
///
/// The final arrangement satisfies exactly the normalized crack contract of
/// crack_kernels.h — [begin, split) all < pivot, [split, end) all >= pivot,
/// (value, rowID) pairing preserved — and the split position equals the one
/// the sequential kernel returns (it is the count of qualifying elements,
/// which no algorithm can change). Element *order within* a partition
/// differs from the sequential kernel, which cracking never relies on.
///
/// Threading: chunk tasks touch pairwise disjoint ranges and merge tasks
/// touch pairwise disjoint swap pairs, so the workers share no element.
/// Completion is a mutex/condition-variable handshake, so every worker
/// write happens-before the caller's return — callers run the whole
/// operation with the piece write latch held, exactly like a sequential
/// crack.

/// \brief Counters describing one or more parallel crack invocations.
struct ParallelCrackStats {
  size_t chunks = 0;    ///< chunk tasks dispatched (incl. the caller's own)
  int64_t merge_ns = 0;  ///< time spent in the swap-based refined merge
};

/// \brief Runs `fn(0) .. fn(tasks-1)` with pool help. Claim-based: the
/// caller participates and tasks are claimed from a shared counter, so the
/// call makes progress (and never deadlocks) even when every pool worker is
/// itself blocked inside another ParallelRun. Returns only after every task
/// finished; a null pool or a single task degrades to a serial loop. Late
/// helpers never call `fn`, so it may reference the caller's stack. When
/// `wait_ns` is set, the time the caller blocked on tasks still running
/// elsewhere, once none was left to claim, is added to it.
void ParallelRun(ThreadPool* pool, size_t tasks,
                 const std::function<void(size_t)>& fn,
                 int64_t* wait_ns = nullptr);

/// \brief Two-way crack of [begin, end) around `pivot` using up to
/// `num_chunks` parallel chunks (clamped so chunks stay at least a cache-
/// friendly minimum size; 0 or 1 chunks, or a null pool, fall back to the
/// sequential kernel). Same contract as CrackerArray::CrackTwo.
Position ParallelCrackTwo(CrackerArray* array, Position begin, Position end,
                          Value pivot, ThreadPool* pool, size_t num_chunks,
                          ParallelCrackStats* stats);

/// \brief Three-way crack of [begin, end) into `< lo` / `[lo, hi)` / `>= hi`
/// as two parallel two-way passes (the second pass touches only the upper
/// remainder). Same contract as CrackerArray::CrackThree. Requires lo <= hi.
std::pair<Position, Position> ParallelCrackThree(CrackerArray* array,
                                                 Position begin, Position end,
                                                 Value lo, Value hi,
                                                 ThreadPool* pool,
                                                 size_t num_chunks,
                                                 ParallelCrackStats* stats);

/// \brief Pool-parallel merge sort of a value vector: chunk-local std::sort
/// followed by a tree of pairwise in-place merges, each level parallel.
/// The "parallel sort" baseline the paper's crossover claim is measured
/// against — a fully sorted column is what adaptive indexing amortizes away.
void ParallelSortValues(std::vector<Value>* values, ThreadPool* pool,
                        size_t num_chunks);

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_PARALLEL_CRACK_H_
