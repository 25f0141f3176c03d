#include "engine/session.h"

#include <atomic>
#include <utility>

#include "core/updatable_index.h"
#include "engine/database.h"
#include "util/stopwatch.h"

namespace adaptidx {

namespace {

/// Session ids are process-global so direct-index sessions and sessions of
/// several Database instances never alias.
std::atomic<uint32_t> g_next_session_id{1};

/// Auto-assigned user-transaction ids live far above any hand-picked id a
/// test or application would use for its own transactions.
std::atomic<uint64_t> g_next_txn_id{uint64_t{1} << 32};

}  // namespace

// ----------------------------------------------------------- QueryTicket

namespace {

/// Terminal answers for never-submitted (default-constructed) tickets:
/// complete-with-error rather than undefined behavior.
const Status& InvalidTicketStatus() {
  static const Status* s =
      new Status(Status::InvalidArgument("ticket was never submitted"));
  return *s;
}

}  // namespace

void QueryTicket::Wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [this] { return state_->done; });
}

bool QueryTicket::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->done;
}

const Status& QueryTicket::status() const {
  if (state_ == nullptr) return InvalidTicketStatus();
  Wait();
  return state_->status;
}

const QueryResult& QueryTicket::result() const {
  if (state_ == nullptr) {
    static const QueryResult* empty = new QueryResult();
    return *empty;
  }
  Wait();
  return state_->result;
}

const QueryStats& QueryTicket::stats() const {
  if (state_ == nullptr) {
    static const QueryStats* empty = new QueryStats();
    return *empty;
  }
  Wait();
  return state_->stats;
}

// --------------------------------------------------------------- Session

Session::Session(Database* db, AdaptiveIndex* direct_index, ThreadPool* pool,
                 SessionOptions opts, uint32_t session_id)
    : db_(db),
      direct_(direct_index),
      pool_(pool),
      opts_(std::move(opts)),
      session_id_(session_id) {
  client_id_ = opts_.client_id != 0 ? opts_.client_id : session_id_;
  txn_id_ = opts_.txn_id != 0 ? opts_.txn_id
                              : g_next_txn_id.fetch_add(1,
                                                        std::memory_order_relaxed);
}

Session::~Session() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    drained_cv_.wait(lk, [this] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }
  // With every query drained, an open scope's pins have no reader left;
  // close it so they cannot outlive the session (a held pin would block
  // index checkpoints/destruction forever).
  std::lock_guard<std::mutex> lk(scope_mu_);
  if (scope_ != nullptr) scope_->Close();
}

uint32_t Session::NextSessionId() {
  return g_next_session_id.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<Session> Session::OnIndex(AdaptiveIndex* index,
                                          ThreadPool* pool,
                                          SessionOptions opts) {
  return std::unique_ptr<Session>(
      new Session(nullptr, index, pool, std::move(opts), NextSessionId()));
}

QueryContext Session::MakeContext() const {
  QueryContext ctx;
  ctx.client_id = client_id_;
  ctx.txn_id = txn_id_;
  ctx.session_id = session_id_;
  {
    std::lock_guard<std::mutex> lk(scope_mu_);
    ctx.snapshot_scope = scope_;
  }
  return ctx;
}

Status Session::BeginSnapshot() {
  std::lock_guard<std::mutex> lk(scope_mu_);
  if (scope_ != nullptr) {
    return Status::InvalidArgument(
        "a snapshot scope is already open (scopes do not nest)");
  }
  scope_ = std::make_shared<SnapshotScope>();
  return Status::OK();
}

Status Session::EndSnapshot() {
  std::shared_ptr<SnapshotScope> scope;
  {
    std::lock_guard<std::mutex> lk(scope_mu_);
    if (scope_ == nullptr) {
      return Status::InvalidArgument("no snapshot scope is open");
    }
    scope.swap(scope_);
  }
  // Close outside scope_mu_: releasing the last pin may unblock a draining
  // checkpoint, and new contexts must already see no scope.
  scope->Close();
  return Status::OK();
}

bool Session::InSnapshotScope() const {
  std::lock_guard<std::mutex> lk(scope_mu_);
  return scope_ != nullptr;
}

size_t Session::queries_submitted() const {
  return submitted_.load(std::memory_order_relaxed);
}

Status Session::ExecuteWithContext(const Query& query, QueryContext* ctx,
                                   QueryResult* result) {
  // kSumOther validates its second column before any index is resolved, so
  // a mistyped statement cannot register (and leak) a catalog entry. On
  // direct-index sessions there is no catalog; the descriptor goes straight
  // to the bound index, which answers natively when it holds the second
  // column (sideways cracker maps) and NotSupported otherwise.
  const Column* agg = nullptr;
  if (query.kind == QueryKind::kSumOther && db_ != nullptr) {
    Table* t = db_->GetTable(query.table);
    if (t == nullptr) {
      return Status::NotFound("no such table: " + query.table);
    }
    agg = t->GetColumn(query.agg_column);
    if (agg == nullptr) {
      return Status::NotFound("no such column: " + query.agg_column);
    }
  }
  AdaptiveIndex* index = ResolveIndex(query.table, query.column);
  if (index == nullptr) {
    return Status::NotFound("no such table/column: " + query.table + "." +
                            query.column);
  }
  // The unified entry point: every single-column kind is one virtual call
  // into the index. The two-column plan (kSumOther) is the sole exception —
  // it composes the index's rowID fragment with a positional fetch of the
  // second column, operator-at-a-time style, unless the index answers it
  // natively (a sideways cracker map would).
  if (query.kind == QueryKind::kSumOther && agg != nullptr) {
    result->Reset(query.kind);
    RangeQuery rq{query.range.lo, query.range.hi, QueryType::kSum};
    return FetchSum(index, *agg, rq, ctx, &result->sum);
  }
  return index->Execute(query, ctx, result);
}

AdaptiveIndex* Session::ResolveIndex(const std::string& table,
                                     const std::string& column) {
  // The bound index for direct sessions, a catalog lookup under the pinned
  // config otherwise — memoized per (table, column) so the hot path skips
  // the config-key construction and the catalog latch after the first
  // query; the cached shared_ptr keeps the index alive across a concurrent
  // DropIndex.
  if (direct_ != nullptr) return direct_;
  if (db_ == nullptr) return nullptr;
  const std::string cache_key = table + "." + column;
  {
    std::lock_guard<std::mutex> lk(resolve_mu_);
    auto it = resolved_.find(cache_key);
    if (it != resolved_.end()) return it->second.get();
  }
  std::shared_ptr<AdaptiveIndex> pinned =
      db_->GetOrCreateIndex(table, column, opts_.config);
  if (pinned == nullptr) return nullptr;
  std::lock_guard<std::mutex> lk(resolve_mu_);
  auto it = resolved_.emplace(cache_key, std::move(pinned)).first;
  return it->second.get();
}

const LatchStats* Session::IndexLatchStats(const std::string& table,
                                           const std::string& column) {
  AdaptiveIndex* index = ResolveIndex(table, column);
  return index != nullptr ? &index->latch_stats() : nullptr;
}

QueryTicket Session::Submit(Query query) {
  auto state = std::make_shared<QueryTicket::State>();
  // Database sessions draw the shared pool on first use (Database::pool()
  // is itself a lazy thread-safe singleton), so purely synchronous sessions
  // never spin up worker threads.
  ThreadPool* pool = db_ != nullptr ? db_->pool() : pool_;
  if (pool == nullptr) {
    // Direct session opened without a pool: fail the ticket, don't crash.
    std::lock_guard<std::mutex> lk(state->mu);
    state->status =
        Status::InvalidArgument("direct session has no thread pool");
    state->done = true;
    return QueryTicket(state);
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  pool->Submit([this, state, query = std::move(query)]() {
    QueryContext ctx = MakeContext();
    ctx.stats.start_ns = NowNanos();
    Status s = ExecuteWithContext(query, &ctx, &state->result);
    ctx.stats.finish_ns = NowNanos();
    ctx.stats.response_ns = ctx.stats.finish_ns - ctx.stats.start_ns;
    {
      std::lock_guard<std::mutex> lk(state->mu);
      state->status = std::move(s);
      state->stats = ctx.stats;
      state->done = true;
    }
    state->cv.notify_all();
    // The decrement MUST happen under mu_: a ticket waiter woken by the
    // notify above may destroy the session the moment the count reaches
    // zero, and the destructor's drain-wait re-acquires mu_ — so the
    // session cannot be freed before this critical section ends, after
    // which the worker touches nothing of the session.
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        drained_cv_.notify_all();
      }
    }
  });
  return QueryTicket(state);
}

std::vector<QueryTicket> Session::SubmitBatch(std::vector<Query> batch) {
  std::vector<QueryTicket> tickets;
  tickets.reserve(batch.size());
  for (auto& q : batch) tickets.push_back(Submit(std::move(q)));
  return tickets;
}

Status Session::Execute(const Query& query, QueryResult* result,
                        QueryStats* stats) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  QueryContext ctx = MakeContext();
  ctx.stats.start_ns = NowNanos();
  Status s = ExecuteWithContext(query, &ctx, result);
  ctx.stats.finish_ns = NowNanos();
  ctx.stats.response_ns = ctx.stats.finish_ns - ctx.stats.start_ns;
  if (stats != nullptr) *stats = ctx.stats;
  return s;
}

Status Session::Count(const std::string& table, const std::string& column,
                      Value lo, Value hi, uint64_t* out, QueryStats* stats) {
  QueryResult result;
  Status s = Execute(Query::Count(table, column, lo, hi), &result, stats);
  if (s.ok()) *out = result.count;
  return s;
}

Status Session::Sum(const std::string& table, const std::string& column,
                    Value lo, Value hi, int64_t* out, QueryStats* stats) {
  QueryResult result;
  Status s = Execute(Query::Sum(table, column, lo, hi), &result, stats);
  if (s.ok()) *out = result.sum;
  return s;
}

Status Session::SumOther(const std::string& table, const std::string& column,
                         const std::string& agg_column, Value lo, Value hi,
                         int64_t* out, QueryStats* stats) {
  QueryResult result;
  Status s = Execute(Query::SumOther(table, column, agg_column, lo, hi),
                     &result, stats);
  if (s.ok()) *out = result.sum;
  return s;
}

Status Session::RowIds(const std::string& table, const std::string& column,
                       Value lo, Value hi, std::vector<RowId>* out,
                       QueryStats* stats) {
  QueryResult result;
  Status s = Execute(Query::RowIds(table, column, lo, hi), &result, stats);
  if (s.ok()) *out = std::move(result.row_ids);
  return s;
}

Status Session::MinMax(const std::string& table, const std::string& column,
                       Value lo, Value hi, Value* min, Value* max,
                       bool* found, QueryStats* stats) {
  QueryResult result;
  Status s = Execute(Query::MinMax(table, column, lo, hi), &result, stats);
  if (!s.ok()) return s;
  *found = result.has_minmax;
  if (result.has_minmax) {
    *min = result.min_value;
    *max = result.max_value;
  }
  return s;
}

Status Session::Insert(UpdatableIndex* index, Value v, RowId* row_id) {
  QueryContext ctx = MakeContext();
  return index->Insert(v, &ctx, row_id);
}

Status Session::Delete(UpdatableIndex* index, Value v, RowId row_id) {
  QueryContext ctx = MakeContext();
  return index->Delete(v, row_id, &ctx);
}

}  // namespace adaptidx
