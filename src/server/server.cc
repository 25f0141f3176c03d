#include "server/server.h"

#include <errno.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <utility>

#include "engine/session.h"

namespace adaptidx {
namespace server {

namespace {

/// Cap on bytes drained from one socket per readiness event, so a
/// firehose connection cannot monopolize the loop inside a single read
/// callback; level-triggered poll re-arms it on the next pass.
constexpr size_t kMaxReadPerEvent = 256 * 1024;

/// Round-robin fairness quantum: at most this many buffered frames are
/// dispatched per connection per loop pass before the connection yields
/// to its peers.
constexpr size_t kFairnessQuantum = 8;

}  // namespace

/// Per-connection state machine; every field is confined to the I/O loop
/// thread (engine tasks reach a connection only by posting to the loop).
struct Server::Connection {
  uint64_t id = 0;
  int fd = -1;
  std::string in;                 // receive buffer (decoded frame by frame)
  size_t in_offset = 0;           // bytes of `in` already decoded
  std::deque<std::string> out;    // encoded responses awaiting write
  size_t out_offset = 0;          // bytes of out.front() already written
  std::shared_ptr<Session> session;  // null until OPEN_SESSION
  bool closing = false;           // flush out, then close
  bool process_scheduled = false;  // fairness continuation already posted
};

Server::Server(Column base, ServerOptions opts)
    : opts_(std::move(opts)), admission_(opts_.admission) {
  if (opts_.durability.data_dir.empty()) {
    owned_index_.reset(new UpdatableIndex(std::move(base), opts_.index_config,
                                          &lock_manager_, "served/A"));
    index_ = owned_index_.get();
  } else {
    // Recovery can fail, and a constructor cannot report that — hold the
    // seed until Start() opens the durable index.
    seed_.reset(new Column(std::move(base)));
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  if (!opts_.durability.data_dir.empty()) {
    Status s = DurableIndex::Open(*seed_, opts_.index_config,
                                  opts_.durability, &lock_manager_,
                                  "served/A", &durable_);
    if (!s.ok()) return s;
    seed_.reset();  // the durable image owns the state from here on
    index_ = durable_->index();
  }
  Status s = loop_.Init();
  if (!s.ok()) return s;
  s = listener_.Listen(opts_.host, opts_.port);
  if (!s.ok()) return s;
  port_ = listener_.port();

  const size_t engine_threads = opts_.engine_threads != 0
                                    ? opts_.engine_threads
                                    : ThreadPool::DefaultConcurrency(1);
  engine_pool_.reset(new ThreadPool(engine_threads));

  // Registration happens before the loop thread exists, so the
  // loop-thread-only contract holds trivially.
  loop_.Register(listener_.fd(),
                 [this](bool readable, bool) {
                   if (readable) OnAcceptReady();
                 });
  loop_.SetTimer([this] { return ExpireDeadlines(); });
  io_thread_ = std::thread([this] { loop_.Run(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_.load()) return;
  if (stopped_.exchange(true)) return;
  // The teardown closure runs on the loop thread (in the post-exit drain
  // if the loop already noticed the stop flag), so connection state is
  // still single-threaded during shutdown.
  loop_.Post([this] {
    loop_.Unregister(listener_.fd());
    listener_.Close();
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (uint64_t id : ids) CloseConnection(id);
  });
  loop_.Stop();
  if (io_thread_.joinable()) io_thread_.join();
  // Queued engine tasks still run (their answers are posted to a stopped
  // loop and discarded); the last of them releases its session.
  engine_pool_.reset();
}

// -------------------------------------------------------------- accept path

void Server::OnAcceptReady() {
  for (;;) {
    int fd = -1;
    Status s = listener_.Accept(&fd);
    if (!s.ok()) return;  // Busy (would-block) or listener torn down
    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conns_.emplace(conn->id, conn);
    connections_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t conn_id = conn->id;
    loop_.Register(fd, [this, conn_id](bool readable, bool writable) {
      OnConnectionIo(conn_id, readable, writable);
    });
  }
}

// ----------------------------------------------------------------- I/O path

void Server::OnConnectionIo(uint64_t conn_id, bool readable, bool writable) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  if (writable) {
    FlushWrites(conn);
    if (conns_.find(conn_id) == conns_.end()) return;  // flush closed it
  }
  if (!readable || conn->closing) return;

  char buf[64 * 1024];
  size_t total = 0;
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      if (total >= kMaxReadPerEvent) break;  // fairness: let peers run
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(conn_id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }
  ProcessFrames(conn);
}

void Server::ProcessFrames(const std::shared_ptr<Connection>& conn) {
  // Decoded bytes leave the buffer only once they are at least half of it,
  // so each buffered byte is moved O(1) times however long a pipelined
  // burst is.
  if (conn->in_offset * 2 >= conn->in.size()) {
    conn->in.erase(0, conn->in_offset);
    conn->in_offset = 0;
  }
  size_t handled = 0;
  while (handled < kFairnessQuantum && !conn->closing) {
    Frame frame;
    size_t consumed = 0;
    Status s = TryDecodeFrame(
        reinterpret_cast<const uint8_t*>(conn->in.data()) + conn->in_offset,
        conn->in.size() - conn->in_offset, kDefaultMaxFrameBytes, &frame,
        &consumed);
    if (!s.ok()) {
      ProtocolError(conn, s);
      return;
    }
    if (consumed == 0) return;  // only a frame prefix buffered: need bytes
    conn->in_offset += consumed;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    ++handled;
    DispatchFrame(conn, frame);
  }
  // Round-robin fairness: the quantum is spent but more input is already
  // buffered — yield to the other connections and continue next pass.
  if (!conn->closing &&
      conn->in.size() - conn->in_offset >= kFrameLengthBytes &&
      !conn->process_scheduled) {
    conn->process_scheduled = true;
    const uint64_t conn_id = conn->id;
    loop_.Post([this, conn_id] {
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) return;
      it->second->process_scheduled = false;
      ProcessFrames(it->second);
    });
  }
}

void Server::DispatchFrame(const std::shared_ptr<Connection>& conn,
                           const Frame& frame) {
  switch (frame.type) {
    case FrameType::kOpenSession:
      HandleOpenSession(conn, frame);
      return;
    case FrameType::kQuery:
      HandleQuery(conn, frame);
      return;
    case FrameType::kBatch:
      HandleBatch(conn, frame);
      return;
    case FrameType::kInsert:
    case FrameType::kDelete:
      HandleUpdate(conn, frame);
      return;
    case FrameType::kStats:
      HandleStats(conn, frame);
      return;
    case FrameType::kCheckpoint:
      HandleCheckpoint(conn, frame);
      return;
    case FrameType::kClose:
      SendFrame(conn, FrameType::kCloseOk, frame.request_id, "");
      conn->closing = true;
      FlushWrites(conn);
      return;
    default:
      // Response-typed tags arriving at the server are a protocol breach.
      ProtocolError(conn,
                    Status::InvalidArgument("response frame sent to server"));
      return;
  }
}

// ------------------------------------------------------------- frame logic

void Server::HandleOpenSession(const std::shared_ptr<Connection>& conn,
                               const Frame& frame) {
  OpenSessionReq req;
  Status s = req.Decode(frame.payload);
  if (!s.ok()) {
    ProtocolError(conn, s);
    return;
  }
  if (conn->session != nullptr) {
    ProtocolError(conn,
                  Status::InvalidArgument("session already open on connection"));
    return;
  }
  SessionOptions sopts;
  sopts.config = opts_.index_config;
  sopts.client_id = req.client_id;
  conn->session =
      Session::OnIndex(index_, engine_pool_.get(), std::move(sopts));
  OpenOkMsg ok;
  ok.session_id = conn->session->session_id();
  SendFrame(conn, FrameType::kOpenOk, frame.request_id, ok.Encode());
}

void Server::HandleQuery(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  QueryReq req;
  Status s = req.Decode(frame.payload);
  if (!s.ok()) {
    ProtocolError(conn, s);
    return;
  }
  if (conn->session == nullptr) {
    ProtocolError(conn, Status::InvalidArgument("QUERY before OPEN_SESSION"));
    return;
  }
  if (!admission_.TryAdmit(conn->id)) {
    SendBusy(conn, frame.request_id);
    return;
  }
  const uint64_t seq = Track(conn->id, frame.request_id, 1, /*expires=*/true);
  // A converged read is answered here on the loop. TryExecute never waits
  // and never refines: anything it cannot answer (a bound to crack, a held
  // latch, a large read) goes to the engine exactly as before, which keeps
  // adapting the index.
  Query query = req.ToQuery();
  QueryResult result;
  if (conn->session->TryExecute(query, &result).ok()) {
    inline_reads_.fetch_add(1, std::memory_order_relaxed);
    Finish(seq, ResultMsg::FromResult(result).Encode());
    return;
  }
  inline_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  engine_pool_->Submit(
      [this, seq, session = conn->session, query = std::move(query)] {
        QueryResult result;
        const Status s = session->Execute(query, &result);
        std::string payload = (s.ok() ? ResultMsg::FromResult(result)
                                      : ResultMsg::FromStatus(s))
                                  .Encode();
        loop_.Post([this, seq, payload = std::move(payload)] {
          Finish(seq, payload);
        });
      });
}

void Server::HandleBatch(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  BatchReq req;
  Status s = req.Decode(frame.payload);
  if (!s.ok()) {
    ProtocolError(conn, s);
    return;
  }
  if (conn->session == nullptr) {
    ProtocolError(conn, Status::InvalidArgument("BATCH before OPEN_SESSION"));
    return;
  }
  const size_t n = req.queries.size();
  if (n == 0) {
    SendFrame(conn, FrameType::kBatchResult, frame.request_id,
              BatchResultMsg().Encode());
    return;
  }
  // One admission unit: the batch is admitted or shed whole, so partial
  // batches never wedge capacity.
  if (!admission_.TryAdmit(conn->id, n)) {
    SendBusy(conn, frame.request_id);
    return;
  }
  const uint64_t seq = Track(conn->id, frame.request_id, n, /*expires=*/true);
  Pending& p = pending_[seq];
  p.batch.assign(n, ResultMsg::FromStatus(
                        Status::TimedOut("batch deadline exceeded")));
  p.batch_left = n;
  for (size_t i = 0; i < n; ++i) {
    engine_pool_->Submit([this, seq, i, session = conn->session,
                          query = req.queries[i].ToQuery()] {
      QueryResult result;
      const Status s = session->Execute(query, &result);
      ResultMsg m =
          s.ok() ? ResultMsg::FromResult(result) : ResultMsg::FromStatus(s);
      loop_.Post([this, seq, i, m = std::move(m)]() mutable {
        auto it = pending_.find(seq);
        if (it == pending_.end()) return;  // timed out: drop the answer
        it->second.batch[i] = std::move(m);
        if (--it->second.batch_left > 0) return;
        Answer(it, FrameType::kBatchResult,
               BatchResultMsg{std::move(it->second.batch)}.Encode());
      });
    });
  }
}

void Server::HandleUpdate(const std::shared_ptr<Connection>& conn,
                          const Frame& frame) {
  if (conn->session == nullptr) {
    ProtocolError(conn,
                  Status::InvalidArgument("update before OPEN_SESSION"));
    return;
  }
  const bool is_insert = frame.type == FrameType::kInsert;
  InsertReq insert;
  DeleteReq del;
  Status s = is_insert ? insert.Decode(frame.payload)
                       : del.Decode(frame.payload);
  if (!s.ok()) {
    ProtocolError(conn, s);
    return;
  }
  if (!admission_.TryAdmit(conn->id)) {
    SendBusy(conn, frame.request_id);
    return;
  }
  const uint64_t seq = Track(conn->id, frame.request_id, 1, /*expires=*/false);
  engine_pool_->Submit(
      [this, seq, session = conn->session, is_insert, insert, del] {
        RowId row_id = 0;
        const Status us =
            is_insert ? session->Insert(index_, insert.value, &row_id)
                      : session->Delete(index_, del.value, del.row_id);
        ResultMsg m = ResultMsg::FromStatus(us);
        if (us.ok()) {
          m.kind = ResultMsg::kUpdateAck;
          m.row_id = row_id;
        }
        loop_.Post([this, seq, payload = m.Encode()] {
          Finish(seq, payload);
        });
      });
}

void Server::HandleStats(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  StatsMsg stats;
  auto put = [&stats](const char* key, uint64_t v) {
    stats.entries.emplace_back(key, v);
  };
  // Admission layer: the overload story in numbers.
  put("admission.shed_total", admission_.shed_total());
  put("admission.admitted_total", admission_.admitted_total());
  put("admission.global_in_flight", admission_.global_in_flight());
  put("admission.global_cap", admission_.options().global_inflight);
  put("admission.per_connection_cap",
      admission_.options().per_connection_inflight);
  put("admission.overload_state",
      static_cast<uint64_t>(admission_.state()));
  put("admission.rss_bytes", admission_.sampled_rss_bytes());
  // Server front-end counters.
  put("server.connections", connections_.load(std::memory_order_relaxed));
  put("server.frames_received",
      frames_received_.load(std::memory_order_relaxed));
  put("server.responses_sent",
      responses_sent_.load(std::memory_order_relaxed));
  put("server.protocol_errors",
      protocol_errors_.load(std::memory_order_relaxed));
  put("server.deadline_expired",
      deadline_expired_.load(std::memory_order_relaxed));
  // Adaptation reaching the loop: QUERYs answered on it against those
  // handed to the engine.
  put("server.inline_reads", inline_reads_.load(std::memory_order_relaxed));
  put("server.inline_fallbacks",
      inline_fallbacks_.load(std::memory_order_relaxed));
  // Is anything stuck? The registry of unanswered requests, oldest first.
  put("server.pending", pending_.size());
  put("server.oldest_pending_us",
      pending_.empty()
          ? 0
          : std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - pending_.begin()->second.admitted)
                .count());
  // This connection's session.
  if (conn->session != nullptr) {
    put("session.session_id", conn->session->session_id());
    put("session.queries_submitted", conn->session->queries_submitted());
    put("session.in_flight",
        std::count_if(pending_.begin(), pending_.end(), [&](const auto& e) {
          return e.second.conn_id == conn->id;
        }));
  }
  // Served index: differential-layer shape plus both LatchStats tiers —
  // the side-table latch of the updatable wrapper and the piece/column
  // latches of the wrapped adaptive method.
  put("index.num_rows", index_->num_rows());
  put("index.pending_inserts", index_->pending_inserts());
  put("index.pending_deletes", index_->pending_deletes());
  put("index.commit_epoch", index_->commit_epoch());
  put("index.num_pieces", index_->NumPieces());
  // Is anything pinned? Live snapshots, the delta log they may scan, and
  // how many commits the oldest pin lags (the oldest epoch is read first:
  // the commit epoch never falls behind it).
  const SnapshotManager& snapshots = index_->snapshots();
  const uint64_t oldest_pin = snapshots.oldest_active_epoch();
  put("snapshot.active_pins", snapshots.active_snapshots());
  put("snapshot.log_length", snapshots.log_length());
  put("snapshot.oldest_pin_lag", index_->commit_epoch() - oldest_pin);
  auto put_latch_stats = [&stats](const std::string& prefix,
                                  const LatchStats& ls) {
    auto add = [&stats, &prefix](const char* name, uint64_t v) {
      stats.entries.emplace_back(prefix + name, v);
    };
    add("read_acquires", ls.read_acquires());
    add("write_acquires", ls.write_acquires());
    add("read_conflicts", ls.read_conflicts());
    add("write_conflicts", ls.write_conflicts());
    add("try_failures", ls.try_failures());
    add("read_wait_ns", static_cast<uint64_t>(ls.read_wait_ns()));
    add("write_wait_ns", static_cast<uint64_t>(ls.write_wait_ns()));
    add("snapshot_reads", ls.snapshot_reads());
    add("snapshot_epoch_lag", ls.snapshot_epoch_lag());
    add("delta_publishes", ls.delta_publishes());
    add("delta_chain_max", ls.delta_chain_max());
    add("consolidations", ls.consolidations());
    add("consolidated_deltas", ls.consolidated_deltas());
  };
  put_latch_stats("index.side.", index_->latch_stats());
  put_latch_stats("index.base.", index_->base_index()->latch_stats());
  // Durability: WAL counters, recovery outcome, checkpoint progress.
  if (durable_ != nullptr) {
    const WalStats ws = durable_->wal_stats();
    put("wal.records_appended", ws.records_appended);
    put("wal.bytes_written", ws.bytes_written);
    put("wal.fsync_count", ws.fsync_count);
    put("wal.flush_batches", ws.flush_batches);
    put("wal.max_batch", ws.max_batch);
    put("wal.rotations", ws.rotations);
    put("wal.last_lsn", durable_->last_lsn());
    put("wal.durable_lsn", durable_->durable_lsn());
    const RecoveryStats& rs = durable_->recovery_stats();
    put("recovery.checkpoint_loaded", rs.checkpoint_loaded ? 1 : 0);
    put("recovery.checkpoint_epoch", rs.checkpoint_epoch);
    put("recovery.invalid_checkpoints", rs.invalid_checkpoints);
    put("recovery.adapted_restored", rs.adapted_restored ? 1 : 0);
    put("recovery.records_replayed", rs.records_replayed);
    put("recovery.records_skipped", rs.records_skipped);
    put("recovery.truncated_bytes", rs.truncated_bytes);
    put("checkpoint.last_epoch", durable_->last_checkpoint_epoch());
    put("checkpoint.taken", durable_->checkpoints_taken());
  }
  SendFrame(conn, FrameType::kStatsResult, frame.request_id, stats.Encode());
}

void Server::HandleCheckpoint(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  if (durable_ == nullptr) {
    ResultMsg m = ResultMsg::FromStatus(
        Status::NotSupported("server is running without durability"));
    SendFrame(conn, FrameType::kResult, frame.request_id, m.Encode());
    return;
  }
  // Checkpointing walks the whole cracked state — far too slow for the
  // I/O thread. An engine task runs it; concurrent requests simply
  // serialize inside DurableIndex. Not admitted, so it holds no slot.
  const uint64_t seq = Track(conn->id, frame.request_id, 0, /*expires=*/false);
  engine_pool_->Submit([this, seq] {
    uint64_t epoch = 0;
    const Status s = durable_->Checkpoint(&epoch);
    ResultMsg m = ResultMsg::FromStatus(s);
    if (s.ok()) {
      m.kind = ResultMsg::kCheckpointAck;
      m.count = epoch;  // the captured epoch rides the count field
    }
    loop_.Post([this, seq, payload = m.Encode()] {
      Finish(seq, payload);
    });
  });
}

// ------------------------------------------------------------ response path

void Server::SendBusy(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id) {
  BusyMsg busy;
  busy.overload_state = static_cast<uint8_t>(admission_.state());
  busy.shed_total = admission_.shed_total();
  SendFrame(conn, FrameType::kServerBusy, request_id, busy.Encode());
}

void Server::SendFrame(const std::shared_ptr<Connection>& conn,
                       FrameType type, uint64_t request_id,
                       const std::string& payload) {
  conn->out.push_back(EncodeFrame(type, request_id, payload));
  responses_sent_.fetch_add(1, std::memory_order_relaxed);
  FlushWrites(conn);
}

void Server::FlushWrites(const std::shared_ptr<Connection>& conn) {
  while (!conn->out.empty()) {
    const std::string& front = conn->out.front();
    const ssize_t n = ::write(conn->fd, front.data() + conn->out_offset,
                              front.size() - conn->out_offset);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      if (conn->out_offset == front.size()) {
        conn->out.pop_front();
        conn->out_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.EnableWrite(conn->fd, true);  // resume when the socket drains
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn->id);
    return;
  }
  loop_.EnableWrite(conn->fd, false);
  if (conn->closing) CloseConnection(conn->id);
}

void Server::ProtocolError(const std::shared_ptr<Connection>& conn,
                           const Status& error) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  conn->in.clear();  // nothing after a breach is trustworthy
  conn->in_offset = 0;
  conn->closing = true;
  SendFrame(conn, FrameType::kError, 0,
            ResultMsg::FromStatus(error).Encode());
  // SendFrame's flush closes the connection once the error frame drains.
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  loop_.Unregister(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  conns_.erase(it);
  connections_.fetch_sub(1, std::memory_order_relaxed);
  // Dropping the session never waits: wire sessions never Submit, and each
  // queued engine task holds its own reference. Unanswered requests stay
  // registered until they complete or expire.
}

// ------------------------------------------------- unanswered-request registry

uint64_t Server::Track(uint64_t conn_id, uint64_t request_id, size_t slots,
                       bool expires) {
  const uint64_t seq = next_seq_++;
  pending_.emplace_hint(
      pending_.end(), seq,
      Pending{conn_id, request_id, slots, Clock::now(), expires, {}, 0});
  return seq;
}

void Server::Finish(uint64_t seq, const std::string& payload) {
  auto it = pending_.find(seq);
  if (it != pending_.end()) Answer(it, FrameType::kResult, payload);
}

Server::PendingIt Server::Answer(PendingIt it, FrameType type,
                                 const std::string& payload) {
  const Pending& p = it->second;
  auto conn = conns_.find(p.conn_id);
  if (conn != conns_.end() && !conn->second->closing) {
    SendFrame(conn->second, type, p.request_id, payload);
  }
  admission_.Release(p.conn_id, p.slots);
  return pending_.erase(it);
}

int Server::ExpireDeadlines() {
  if (opts_.request_deadline_ms <= 0) return -1;
  const auto now = Clock::now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (!p.expires) {  // writes and CHECKPOINT never time out
      ++it;
      continue;
    }
    // One offset for every read: the first unexpired one expires next.
    const auto deadline =
        p.admitted + std::chrono::milliseconds(opts_.request_deadline_ms);
    if (deadline > now) {
      return static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
              .count());
    }
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    if (p.batch.empty()) {
      it = Answer(it, FrameType::kResult,
                  ResultMsg::FromStatus(
                      Status::TimedOut("request deadline exceeded"))
                      .Encode());
    } else {  // the finished queries keep their answers
      it = Answer(it, FrameType::kBatchResult,
                  BatchResultMsg{std::move(p.batch)}.Encode());
    }
  }
  return -1;
}

}  // namespace server
}  // namespace adaptidx
