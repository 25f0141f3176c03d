#ifndef ADAPTIDX_ENGINE_SESSION_H_
#define ADAPTIDX_ENGINE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/index_factory.h"
#include "core/query.h"
#include "engine/operators.h"
#include "util/thread_pool.h"

namespace adaptidx {

class Database;
class Session;
class UpdatableIndex;

/// \brief Options pinned for the lifetime of a session.
struct SessionOptions {
  /// Access method used to resolve every query the session submits; one
  /// session = one index configuration, so method comparisons open one
  /// session per method.
  IndexConfig config;
  /// Client identity recorded in every QueryContext; 0 auto-assigns the
  /// session id.
  uint32_t client_id = 0;
  /// User-transaction identity for update operations; 0 auto-assigns a
  /// globally unique id that cannot collide with small hand-picked test ids.
  uint64_t txn_id = 0;
  /// Accepted and ignored: every read of an `UpdatableIndex` pins a
  /// per-query epoch snapshot (each ticket of an async batch its own).
  /// Kept only because existing callers still set it; it goes at their
  /// next change.
  bool snapshot_reads = false;
};

/// \brief Future-like handle to one submitted query.
///
/// Tickets are cheap to copy (shared state) and remain valid after the
/// session that issued them is closed: closing a session drains in-flight
/// work, so a surviving ticket is always complete and readable. The
/// accessors `status()/result()/stats()` implicitly `Wait()`. A
/// default-constructed (never-submitted) ticket behaves as terminally
/// failed: `done()` is true, `status()` is InvalidArgument, the result and
/// stats are empty.
///
/// Thread-safety: fully synchronized — any number of threads may wait on
/// and read the same ticket (and its copies) concurrently.
class QueryTicket {
 public:
  QueryTicket() = default;

  /// \brief False for default-constructed (never-submitted) tickets.
  bool valid() const { return state_ != nullptr; }

  /// \brief Blocks until the query has executed.
  void Wait() const;

  /// \brief Non-blocking completion probe.
  bool done() const;

  /// \brief Execution status (waits for completion).
  const Status& status() const;

  /// \brief The answer (waits for completion). `count`/`sum`/`row_ids` are
  /// populated per the query's kind.
  const QueryResult& result() const;

  /// \brief Per-query instrumentation (waits for completion).
  const QueryStats& stats() const;

 private:
  friend class Session;

  struct State {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    bool done = false;
    Status status;
    QueryResult result;
    QueryStats stats;
  };

  explicit QueryTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// \brief A client's connection to the engine: owns the client/transaction
/// identity, pins an IndexConfig, and submits queries — asynchronously onto
/// the shared thread pool (`Submit`/`SubmitBatch`) or synchronously inline
/// (`Execute` and the typed convenience wrappers).
///
/// Batch submission is the admission path that batch-aware refinement
/// (CrackingOptions::group_crack, Section 7 "Dynamic Algorithms") feeds on:
/// all queries of a batch are enqueued before any result is awaited, so
/// concurrent executions pile their crack bounds into the piece-latch wait
/// queues where a refining query can serve them in one step.
///
/// Thread safety: a session may be used from multiple threads; identity is
/// immutable after open. Closing (destroying) a session blocks until every
/// submitted query has finished; tickets stay readable afterwards. Sessions
/// must not outlive the Database (or, for direct sessions, the index and
/// pool) they were opened on.
class Session {
 public:
  ~Session();  // drains in-flight queries

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// \brief Opens a session directly over one index, bypassing catalog
  /// resolution — the driver's and benchmarks' path. Table/column names in
  /// descriptors are ignored; kSumOther reaches the bound index directly
  /// (answered natively by indexes holding a second column, NotSupported
  /// otherwise). `pool` may be null for synchronous-only use — async
  /// submissions then fail their tickets with InvalidArgument.
  static std::unique_ptr<Session> OnIndex(AdaptiveIndex* index,
                                          ThreadPool* pool,
                                          SessionOptions opts = {});

  /// \brief Draws the next process-global session id (shared by database
  /// and direct sessions so ids never alias).
  static uint32_t NextSessionId();

  // ---- asynchronous submission ----------------------------------------

  /// \brief Enqueues one query onto the shared pool; never blocks.
  QueryTicket Submit(Query query);

  /// \brief Enqueues every query of the batch before returning, so the
  /// batch executes concurrently (pool permitting) and queued crack bounds
  /// become visible to group cracking. Tickets are in submission order.
  std::vector<QueryTicket> SubmitBatch(std::vector<Query> batch);

  // ---- synchronous execution ------------------------------------------

  /// \brief Executes `query` inline on the calling thread (no pool
  /// round-trip) — the path behind the typed one-liner wrappers below.
  /// Thread-safe, like all submission entry points.
  Status Execute(const Query& query, QueryResult* result,
                 QueryStats* stats = nullptr);

  /// \brief Answers `query` on the calling thread as `Execute` would, or
  /// returns Busy having waited for nothing: the bound index's
  /// `AdaptiveIndex::TryExecute`, which never refines. Only direct-index
  /// sessions answer (a catalog session may have to build its index);
  /// every query of a database session is Busy. An answered query counts
  /// in `queries_submitted()`. Thread-safe.
  Status TryExecute(const Query& query, QueryResult* result);

  /// \brief `select count(*) from table where lo <= column < hi`.
  Status Count(const std::string& table, const std::string& column, Value lo,
               Value hi, uint64_t* out, QueryStats* stats = nullptr);

  /// \brief `select sum(column) from table where lo <= column < hi`.
  Status Sum(const std::string& table, const std::string& column, Value lo,
             Value hi, int64_t* out, QueryStats* stats = nullptr);

  /// \brief `select sum(agg_column) from table where lo <= column < hi`.
  Status SumOther(const std::string& table, const std::string& column,
                  const std::string& agg_column, Value lo, Value hi,
                  int64_t* out, QueryStats* stats = nullptr);

  /// \brief Materializes qualifying rowIDs.
  Status RowIds(const std::string& table, const std::string& column, Value lo,
                Value hi, std::vector<RowId>* out,
                QueryStats* stats = nullptr);

  /// \brief `select min(column), max(column) from table where
  /// lo <= column < hi`. `*found` reports whether any row qualified;
  /// `*min`/`*max` are written only when it did.
  Status MinMax(const std::string& table, const std::string& column, Value lo,
                Value hi, Value* min, Value* max, bool* found,
                QueryStats* stats = nullptr);

  // ---- transactional snapshot scopes ----------------------------------

  /// \brief Opens a transactional read scope: until `EndSnapshot()`, every
  /// query this session submits (sync, async, and the two-column kSumOther
  /// plan) reads at ONE pinned epoch per updatable index — the epoch the
  /// scope's first query on that index captured — giving a multi-query
  /// read transaction repeatable reads instead of per-query capture.
  /// Scopes do not nest: InvalidArgument while one is already open.
  /// While the scope holds a pin, a `Checkpoint()` of the pinned index
  /// blocks until `EndSnapshot()` — never checkpoint the index from the
  /// scope-holding thread. Indexes without a differential layer are
  /// unaffected. Thread-safe.
  Status BeginSnapshot();

  /// \brief Closes the open scope, releasing every pinned epoch
  /// (unblocking draining checkpoints); queries submitted afterwards
  /// observe the live state again. InvalidArgument when no scope is
  /// open. In-flight async queries that raced the close fall back to
  /// per-query behavior. Thread-safe.
  Status EndSnapshot();

  /// \brief Whether a snapshot scope is currently open. Thread-safe.
  bool InSnapshotScope() const;

  // ---- updates as session operations ----------------------------------

  /// \brief Inserts `v` through `index` as a user transaction carrying this
  /// session's txn identity; the index wires the transaction into its
  /// LockManager (exclusive key lock, auto-commit).
  Status Insert(UpdatableIndex* index, Value v, RowId* row_id = nullptr);

  /// \brief Deletes (`v`, `row_id`) through `index` under this session's
  /// txn identity.
  Status Delete(UpdatableIndex* index, Value v, RowId row_id);

  // ---- identity & introspection ---------------------------------------

  /// \brief A QueryContext pre-stamped with this session's identity.
  QueryContext MakeContext() const;

  uint32_t session_id() const { return session_id_; }   ///< \brief Unique session id.
  uint32_t client_id() const { return client_id_; }     ///< \brief Client identity stamped on contexts.
  uint64_t txn_id() const { return txn_id_; }           ///< \brief User-transaction identity of updates.
  const IndexConfig& config() const { return opts_.config; }  ///< \brief The pinned access-method config.

  /// \brief The database this session was opened on; null for direct-index
  /// sessions.
  Database* database() const { return db_; }

  /// \brief Latch statistics of the index this session resolves
  /// (table, column) to under its pinned config, so per-mode concurrency
  /// cost is observable through the session layer. Direct-index sessions ignore the names and report the
  /// bound index. Resolving may create the index (like a query would);
  /// returns null when the table/column does not exist. The pointer stays
  /// valid for the session's lifetime.
  const LatchStats* IndexLatchStats(const std::string& table,
                                    const std::string& column);

  /// \brief Queries submitted over the session's lifetime (async + sync).
  size_t queries_submitted() const;

 private:
  friend class Database;

  Session(Database* db, AdaptiveIndex* direct_index, ThreadPool* pool,
          SessionOptions opts, uint32_t session_id);

  /// Shared execution core for the sync and async paths. `ctx` carries the
  /// session identity; timing fields are managed by the caller.
  Status ExecuteWithContext(const Query& query, QueryContext* ctx,
                            QueryResult* result);

  /// Resolves (table, column) to the session's index under the pinned
  /// config: the bound index for direct sessions, a memoized catalog lookup
  /// otherwise. Null when the table/column does not exist; the returned
  /// pointer stays valid for the session's lifetime (the cache pins it).
  AdaptiveIndex* ResolveIndex(const std::string& table,
                              const std::string& column);

  Database* db_;               ///< null for direct-index sessions
  AdaptiveIndex* direct_;      ///< non-null for direct-index sessions
  ThreadPool* pool_;           ///< direct sessions' pool; db sessions use
                               ///< db_->pool()
  SessionOptions opts_;
  uint32_t session_id_;
  uint32_t client_id_;
  uint64_t txn_id_;

  // Per-session resolution cache: the session pins one config, so each
  // (table, column) resolves through the catalog once; the shared_ptr keeps
  // the index alive (and correct — base columns are immutable) even if the
  // entry is dropped concurrently. A DropIndex takes effect for sessions
  // opened afterwards.
  std::mutex resolve_mu_;
  std::unordered_map<std::string, std::shared_ptr<AdaptiveIndex>> resolved_;

  // The open transactional read scope, shared into every QueryContext the
  // session stamps while it is open (shared_ptr: an async query that
  // outlives EndSnapshot finds a closed scope, never a dangling one). The
  // destructor closes it after the drain so scope pins can't outlive the
  // session.
  mutable std::mutex scope_mu_;
  std::shared_ptr<SnapshotScope> scope_;

  // submitted_ is relaxed bookkeeping; in_flight_ transitions happen under
  // mu_ so the close-time drain cannot race a completing worker (see
  // Submit).
  std::mutex mu_;
  std::condition_variable drained_cv_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> submitted_{0};
};

}  // namespace adaptidx

#endif  // ADAPTIDX_ENGINE_SESSION_H_
