#ifndef ADAPTIDX_CORE_ADAPTIVE_INDEX_H_
#define ADAPTIDX_CORE_ADAPTIVE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/query.h"
#include "latch/latch_stats.h"
#include "storage/types.h"
#include "util/status.h"

namespace adaptidx {

class SnapshotScope;

/// \brief Per-query instrumentation, filled in by index implementations.
///
/// The fields mirror the paper's measurements: `crack_ns` is the "index
/// refinement" series of Figure 15, `wait_ns` the "wait time" series
/// (all blocked latch acquisitions, write and read), and `conflicts` the
/// count plotted conceptually in Figure 1 (right).
struct QueryStats {
  int64_t response_ns = 0;  ///< end-to-end query latency
  int64_t wait_ns = 0;      ///< time blocked on latches
  int64_t crack_ns = 0;     ///< time spent refining under write latches
  int64_t init_ns = 0;      ///< one-off index initialization charged here
  int64_t read_ns = 0;      ///< time reading data under read latches
  uint64_t conflicts = 0;   ///< blocked latch acquisitions
  uint64_t cracks = 0;      ///< crack/merge/sort refinement actions applied
  uint64_t pieces_touched = 0;       ///< pieces read or cracked
  bool refinement_skipped = false;   ///< conflict avoidance fired
  int64_t start_ns = 0;     ///< wall-clock start (sequence ordering)
  int64_t finish_ns = 0;    ///< wall-clock finish

  /// \brief Rolls another execution's stats into this one — the
  /// per-fragment accumulation of partitioned execution. Work counters add;
  /// the conflict-avoidance flag ORs (any fragment skipping refinement
  /// marks the query). The wall-clock fields (`response_ns`, `start_ns`,
  /// `finish_ns`) describe the whole query and stay with the caller —
  /// summing per-fragment wall time would double-count parallel fragments.
  void Accumulate(const QueryStats& other) {
    wait_ns += other.wait_ns;
    crack_ns += other.crack_ns;
    init_ns += other.init_ns;
    read_ns += other.read_ns;
    conflicts += other.conflicts;
    cracks += other.cracks;
    pieces_touched += other.pieces_touched;
    refinement_skipped |= other.refinement_skipped;
  }
};

/// \brief Carried through every query execution; owns the stats and
/// identifies the client/transaction for lock-manager interplay.
///
/// Contexts created through a `Session` carry the full identity triple:
/// the session that submitted the query, the client it belongs to, and the
/// user-transaction id its update operations lock under.
struct QueryContext {
  QueryStats stats;
  uint32_t client_id = 0;
  uint64_t txn_id = 0;
  uint32_t session_id = 0;  ///< issuing session; 0 outside the session API
  /// Transactional read scope (`Session::BeginSnapshot`): when set, an
  /// `UpdatableIndex` answers this query against the scope's pinned epoch
  /// — the same one for every query of the scope — instead of capturing
  /// per query. Shared ownership so async submissions that outlive an
  /// `EndSnapshot` race find a closed (never dangling) scope. Ignored by
  /// indexes without a differential layer.
  std::shared_ptr<SnapshotScope> snapshot_scope;

  /// \brief A context carrying this one's identity with fresh stats — the
  /// per-fragment context of partitioned execution.
  QueryContext SpawnFragment() const {
    QueryContext ctx;
    ctx.client_id = client_id;
    ctx.txn_id = txn_id;
    ctx.session_id = session_id;
    ctx.snapshot_scope = snapshot_scope;
    return ctx;
  }

  /// \brief Builds the latch acquisition sink wired to this query's stats
  /// and the index-wide aggregate.
  LatchAcquireContext LatchCtx(LatchStats* global) {
    return LatchAcquireContext{global, &stats.wait_ns, &stats.conflicts};
  }
};

/// \brief Abstract access method evaluated in the paper's experiments: plain
/// scan, full index (sort), database cracking, adaptive merging, hybrid
/// crack-sort, and the partitioned-B-tree realization of adaptive merging
/// all implement this interface; `PartitionedIndex` composes any of them
/// into range-partitioned shards.
///
/// Semantics: the index answers over a fixed base column (read-only user
/// data) with the predicate normalized to the half-open range [lo, hi).
/// All methods are thread-safe; adaptive implementations may refine their
/// physical structure as a side effect under the concurrency control being
/// studied.
///
/// The single entry point is `Execute(Query, ctx, result)`: one virtual
/// (`ExecuteImpl`) answers every query kind into a mergeable `QueryResult`,
/// so results can be computed per fragment and combined — the property
/// partitioned parallel execution depends on. The per-kind methods
/// (`RangeCount`/`RangeSum`/`RangeRowIds`/`RangeMinMax`) are non-virtual
/// convenience wrappers over `Execute`. `TryExecute` is the same answer
/// without waiting or refining, or Busy; a caller that may not block (the
/// server's I/O loop) tries it first and hands Busy queries to `Execute`.
class AdaptiveIndex {
 public:
  virtual ~AdaptiveIndex() = default;

  /// \brief Short method name used in benchmark output ("scan", "sort",
  /// "crack", ...).
  virtual std::string Name() const = 0;

  /// \brief Executes one query of any kind. `result` is fully reset (and
  /// stamped with the query's kind) before dispatch; for kRowIds, `count`
  /// additionally reports the number of materialized ids. Indexes answer
  /// over their bound column and ignore the descriptor's name fields;
  /// kSumOther requires a second column and is only answerable by indexes
  /// that hold one (the engine's session layer plans it otherwise).
  Status Execute(const Query& query, QueryContext* ctx, QueryResult* result) {
    return Dispatch(&AdaptiveIndex::ExecuteImpl, query, ctx, result);
  }

  /// \brief Answers `query` exactly as `Execute` would, or returns Busy
  /// without having waited for anything or changed the index. It takes
  /// only try-latches, never initializes, cracks or scans a piece for a
  /// bound, and reads at most `kTryExecuteBudget` positions (a positional
  /// COUNT reads none); whatever it cannot answer under those rules is
  /// Busy, and `Execute` must answer it, so the index keeps adapting. On
  /// Busy `result` is reset. Indexes that do not implement it answer every
  /// non-empty query Busy. Thread-safe wherever `Execute` is.
  Status TryExecute(const Query& query, QueryContext* ctx,
                    QueryResult* result) {
    Status s = Dispatch(&AdaptiveIndex::TryExecuteImpl, query, ctx, result);
    if (!s.ok()) result->Reset(query.kind);
    return s;
  }

  /// \brief The most data positions (cracker-array entries plus pending
  /// differential entries) one `TryExecute` reads; larger reads are Busy.
  static constexpr size_t kTryExecuteBudget = 16 * 1024;

  // ---- convenience wrappers over Execute ------------------------------

  /// \brief Q1: `select count(*) from R where lo <= A < hi`.
  Status RangeCount(const ValueRange& range, QueryContext* ctx,
                    uint64_t* count) {
    QueryResult r;
    Status s = Execute(Query::Count("", "", range.lo, range.hi), ctx, &r);
    if (s.ok()) *count = r.count;
    return s;
  }

  /// \brief Q2: `select sum(A) from R where lo <= A < hi`.
  Status RangeSum(const ValueRange& range, QueryContext* ctx, int64_t* sum) {
    QueryResult r;
    Status s = Execute(Query::Sum("", "", range.lo, range.hi), ctx, &r);
    if (s.ok()) *sum = r.sum;
    return s;
  }

  /// \brief Materializes the rowIDs of qualifying tuples (the positional
  /// intermediate of Figure 6, used to fetch other columns).
  Status RangeRowIds(const ValueRange& range, QueryContext* ctx,
                     std::vector<RowId>* row_ids) {
    QueryResult r;
    Status s = Execute(Query::RowIds("", "", range.lo, range.hi), ctx, &r);
    if (s.ok()) *row_ids = std::move(r.row_ids);
    return s;
  }

  /// \brief Q3: `select min(A), max(A) from R where lo <= A < hi`.
  /// `*found` reports whether any row qualified; `*min`/`*max` are only
  /// written when it did.
  Status RangeMinMax(const ValueRange& range, QueryContext* ctx, Value* min,
                     Value* max, bool* found) {
    QueryResult r;
    Status s = Execute(Query::MinMax("", "", range.lo, range.hi), ctx, &r);
    if (!s.ok()) return s;
    *found = r.has_minmax;
    if (r.has_minmax) {
      *min = r.min_value;
      *max = r.max_value;
    }
    return s;
  }

  /// \brief Number of physical pieces/partitions currently in the index;
  /// 1 for non-adaptive methods. Diagnostics only.
  virtual size_t NumPieces() const { return 1; }

  /// \brief Index-wide latch statistics (thread-safe relaxed atomics).
  const LatchStats& latch_stats() const { return latch_stats_; }
  /// \brief Mutable access for implementations wiring acquisition sinks.
  LatchStats* mutable_latch_stats() { return &latch_stats_; }

 protected:
  /// \brief The one per-method virtual: answers `query` into the (already
  /// reset) result. Implementations dispatch on `query.kind` internally —
  /// the only per-kind switch left in the system lives next to each
  /// method's aggregation machinery.
  virtual Status ExecuteImpl(const Query& query, QueryContext* ctx,
                             QueryResult* result) = 0;

  /// \brief `ExecuteImpl` under the rules of `TryExecute`; Busy by default.
  virtual Status TryExecuteImpl(const Query&, QueryContext*, QueryResult*) {
    return Status::Busy("index answers no query without waiting");
  }

  LatchStats latch_stats_;

 private:
  using Impl = Status (AdaptiveIndex::*)(const Query&, QueryContext*,
                                         QueryResult*);

  Status Dispatch(Impl impl, const Query& query, QueryContext* ctx,
                  QueryResult* result) {
    result->Reset(query.kind);
    // Empty (including inverted) predicates answer zero/none for every
    // kind; guarded here once so no implementation's arithmetic ever sees
    // lo > hi (a sorted index's hi-position minus lo-position would wrap).
    if (query.range.Empty()) return Status::OK();
    Status s = (this->*impl)(query, ctx, result);
    if (s.ok() && query.kind == QueryKind::kRowIds) {
      result->count = result->row_ids.size();
    }
    return s;
  }
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_ADAPTIVE_INDEX_H_
