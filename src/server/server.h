#ifndef ADAPTIDX_SERVER_SERVER_H_
#define ADAPTIDX_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/index_factory.h"
#include "core/updatable_index.h"
#include "durability/durable_index.h"
#include "lock/lock_manager.h"
#include "server/admission.h"
#include "server/event_loop.h"
#include "server/listener.h"
#include "server/protocol.h"
#include "storage/column.h"
#include "util/thread_pool.h"

namespace adaptidx {
namespace server {

/// \brief Server configuration.
struct ServerOptions {
  /// Listen address; loopback by default (tests, benches, the CLI).
  std::string host = "127.0.0.1";
  /// Listen port; 0 binds an ephemeral port readable via `Server::port()`.
  uint16_t port = 0;
  /// Engine execution pool size; 0 sizes it to the hardware with one
  /// context reserved for the I/O loop thread
  /// (`ThreadPool::DefaultConcurrency(1)`).
  size_t engine_threads = 0;
  /// Deadline of QUERY and BATCH: a read not answered this many ms after
  /// admission is answered TimedOut by the I/O loop (a BATCH keeps the
  /// answers of its finished queries) and its admission released; the
  /// engine still finishes it and the late answer is dropped. Writes and
  /// CHECKPOINT never time out: a write may still commit. 0 disables
  /// deadlines.
  int64_t request_deadline_ms = 30000;
  /// Admission control (bounded in-flight queues, overload gauge, RSS
  /// monitor).
  AdmissionOptions admission;
  /// Access method configuration of the served index (the base column is
  /// wrapped in an `UpdatableIndex` of this config, so INSERT/DELETE work
  /// over the wire).
  IndexConfig index_config;
  /// Durability of the served index. With a non-empty `data_dir` the
  /// server recovers from (or seeds) that directory at `Start`, binds the
  /// WAL to every commit, and answers CHECKPOINT frames; the constructor's
  /// base column then only seeds a virgin directory. Default: volatile.
  DurabilityOptions durability;
};

/// \brief TCP front-end putting one served table (an `UpdatableIndex`
/// over a base column) behind the wire protocol of `protocol.h`.
///
/// Architecture: a single poll-reactor I/O thread (`EventLoop`) owns every
/// socket and all per-connection state. Frames map onto the engine's
/// session API — OPEN_SESSION opens a `Session` (one per connection,
/// carrying client identity and the snapshot-reads flag). A converged
/// QUERY — bounds on existing cracks or inside sorted pieces, free
/// latches, a small read — is answered on the loop by
/// `Session::TryExecute`, which never waits and never refines. Every other
/// QUERY, each query of a BATCH, INSERT/DELETE and CHECKPOINT is one
/// engine-pool task that runs the session's synchronous path, encodes its
/// answer on the worker and posts it to the loop, so responses complete
/// *out of order* by request id — a long scan never head-of-line-blocks a
/// point query pipelined behind it. Both answer through the loop's
/// registry of unanswered requests, which answers reads past
/// `request_deadline_ms` TimedOut and drops their late completions.
///
/// Overload: every request passes `AdmissionController::TryAdmit` first;
/// refusals are answered SERVER_BUSY immediately (load-shed at the edge,
/// before engine queues or latch waits absorb the excess), and the STATS
/// frame serializes the shed counters, the three-state overload gauge,
/// the registry's size and oldest age, the loop-answered and handed-off
/// QUERY counts (`server.inline_reads`, `server.inline_fallbacks`),
/// per-session counters, the snapshot pin gauges (`snapshot.active_pins`,
/// `snapshot.log_length`, `snapshot.oldest_pin_lag`), and the served
/// index's `LatchStats` — the whole concurrency stack observable over the
/// wire.
///
/// Thread-safety: `Start`/`Stop` and the observability accessors may be
/// called from any thread; everything socket-facing is confined to the
/// internal I/O thread.
class Server {
 public:
  /// \brief Takes ownership of the base column to serve; `opts` selects
  /// the wrapped access method and all server tuning.
  explicit Server(Column base, ServerOptions opts = {});

  /// \brief Stops (drains) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Binds, listens, and starts the I/O thread; after OK the bound
  /// port is readable via `port()`. One-shot: a stopped server is not
  /// restartable.
  Status Start();

  /// \brief Stops accepting, closes every connection, drains in-flight
  /// requests, and joins all threads; idempotent.
  void Stop();

  /// \brief The bound port (meaningful after `Start`).
  uint16_t port() const { return port_; }

  /// \brief The served updatable index (tests inspect pending counters;
  /// not valid after destruction). Thread-safe pointer read; null before
  /// `Start` when durability is configured (recovery happens in `Start`).
  UpdatableIndex* index() { return index_; }

  /// \brief The durability wrapper, or null when serving volatile
  /// (`ServerOptions::durability.data_dir` empty). Valid after `Start`.
  DurableIndex* durable() { return durable_.get(); }

  /// \brief Admission gauges/counters (thread-safe).
  const AdmissionController& admission() const { return admission_; }

  /// \brief Connections currently open (thread-safe, approximate).
  size_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

  /// \brief Protocol violations that closed a connection (thread-safe).
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  using Clock = std::chrono::steady_clock;

  /// One admitted request (or CHECKPOINT) not answered yet. Keyed by
  /// admission sequence, so the first expiring entry expires next.
  struct Pending {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    size_t slots = 0;       ///< admission units; a BATCH holds one per query
    Clock::time_point admitted;
    bool expires = false;   ///< reads only
    std::vector<ResultMsg> batch;  ///< BATCH answers, TimedOut until filled
    size_t batch_left = 0;         ///< BATCH queries still running
  };
  using PendingIt = std::map<uint64_t, Pending>::iterator;

  // ---- loop-thread handlers --------------------------------------------
  void OnAcceptReady();
  void OnConnectionIo(uint64_t conn_id, bool readable, bool writable);
  void ProcessFrames(const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const Frame& frame);
  void HandleOpenSession(const std::shared_ptr<Connection>& conn,
                         const Frame& frame);
  void HandleQuery(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void HandleBatch(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void HandleUpdate(const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  void HandleStats(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void HandleCheckpoint(const std::shared_ptr<Connection>& conn,
                        const Frame& frame);
  void SendBusy(const std::shared_ptr<Connection>& conn, uint64_t request_id);
  void SendFrame(const std::shared_ptr<Connection>& conn, FrameType type,
                 uint64_t request_id, const std::string& payload);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void ProtocolError(const std::shared_ptr<Connection>& conn,
                     const Status& error);
  void CloseConnection(uint64_t conn_id);

  // ---- the registry of unanswered requests (loop thread) ---------------
  uint64_t Track(uint64_t conn_id, uint64_t request_id, size_t slots,
                 bool expires);
  // Answers `seq` with a RESULT unless the sweep already answered it.
  void Finish(uint64_t seq, const std::string& payload);
  PendingIt Answer(PendingIt it, FrameType type, const std::string& payload);
  // The loop's timer hook: answers expired reads TimedOut and returns the
  // ms until the next deadline (-1: none).
  int ExpireDeadlines();

  ServerOptions opts_;
  LockManager lock_manager_;
  // Exactly one of the two owners below is set: `owned_index_` when
  // serving volatile (constructed in the ctor, as before), `durable_` when
  // a data dir is configured (opened — recovery included — in `Start`).
  // `index_` always points at whichever index serves traffic.
  std::unique_ptr<Column> seed_;  ///< held until Start opens durable_
  std::unique_ptr<DurableIndex> durable_;
  std::unique_ptr<UpdatableIndex> owned_index_;
  UpdatableIndex* index_ = nullptr;
  std::unique_ptr<ThreadPool> engine_pool_;
  AdmissionController admission_;

  EventLoop loop_;
  Listener listener_;
  std::thread io_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  uint16_t port_ = 0;

  // Loop-thread-only connection table, keyed by connection id (not fd:
  // ids are never reused, so a completion racing a close can only miss,
  // never hit a recycled descriptor).
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, Pending> pending_;  // loop thread only
  uint64_t next_seq_ = 0;

  std::atomic<size_t> connections_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> responses_sent_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> inline_reads_{0};
  std::atomic<uint64_t> inline_fallbacks_{0};
};

}  // namespace server
}  // namespace adaptidx

#endif  // ADAPTIDX_SERVER_SERVER_H_
