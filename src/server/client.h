#ifndef ADAPTIDX_SERVER_CLIENT_H_
#define ADAPTIDX_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "storage/types.h"
#include "util/status.h"

namespace adaptidx {
namespace server {

/// \brief Blocking client for the wire protocol of `protocol.h`, used by
/// the CLI, the server tests, and the fig16 scaling bench.
///
/// One synchronous request/response exchange per call: each RPC stamps a
/// fresh request id, writes one frame, and reads frames until the matching
/// response arrives. A SERVER_BUSY answer surfaces as `Status::Busy`
/// (inspect `busy_seen()` / `last_busy()` for the shed telemetry), an
/// ERROR frame as the decoded engine status with the connection considered
/// dead. The raw escape hatches (`SendRaw`, `ReadFrame`) let tests pipeline
/// hand-built — including deliberately malformed — byte sequences.
///
/// Thread-safety: none; confine each Client to one thread (open one client
/// per worker, as the tests and the bench do).
class Client {
 public:
  Client() = default;

  /// \brief Closes the socket if still open.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// \brief Movable (socket ownership transfers; the source disconnects).
  Client(Client&& other) noexcept { *this = std::move(other); }
  /// \brief Move assignment; any open socket of the target is closed.
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
      recv_buf_ = std::move(other.recv_buf_);
      next_request_id_ = other.next_request_id_;
      session_id_ = other.session_id_;
      busy_seen_ = other.busy_seen_;
      last_busy_ = other.last_busy_;
    }
    return *this;
  }

  /// \brief Connects the blocking socket; no frame is exchanged yet.
  Status Connect(const std::string& host, uint16_t port);

  /// \brief Closes the socket; idempotent.
  void Close();

  /// \brief Socket is open (says nothing about server-side state).
  bool connected() const { return fd_ >= 0; }

  /// \brief OPEN_SESSION handshake; records the server-assigned session id
  /// in `session_id()`. `snapshot_reads` sets flag bit 0, which the server
  /// ignores (every read already pins a snapshot).
  Status OpenSession(bool snapshot_reads = false, uint32_t client_id = 0);

  /// \brief Server-assigned session id (0 before `OpenSession`).
  uint32_t session_id() const { return session_id_; }

  /// \brief COUNT over [lo, hi).
  Status Count(Value lo, Value hi, uint64_t* out);
  /// \brief SUM over [lo, hi).
  Status Sum(Value lo, Value hi, int64_t* out);
  /// \brief MIN/MAX over [lo, hi); `*found` false when no row matched.
  Status MinMax(Value lo, Value hi, Value* min, Value* max, bool* found);
  /// \brief Matching row ids over [lo, hi).
  Status RowIds(Value lo, Value hi, std::vector<RowId>* out);
  /// \brief INSERT `v`; returns the assigned row id.
  Status Insert(Value v, RowId* row_id);
  /// \brief DELETE the tuple addressed by (v, row_id).
  Status Delete(Value v, RowId row_id);
  /// \brief BATCH: submits all queries as one admission unit; `out` gets
  /// one ResultMsg per query in submission order.
  Status Batch(const std::vector<QueryReq>& queries,
               std::vector<ResultMsg>* out);
  /// \brief STATS snapshot of the server's counter/gauge list.
  Status Stats(StatsMsg* out);
  /// \brief CHECKPOINT: asks a durable server to take a checkpoint now;
  /// `epoch` (optional) receives the captured commit epoch. NotSupported
  /// when the server runs without durability.
  Status Checkpoint(uint64_t* epoch = nullptr);
  /// \brief Graceful CLOSE handshake (the server acks, then closes).
  Status CloseSession();

  /// \brief SERVER_BUSY responses seen so far.
  uint64_t busy_seen() const { return busy_seen_; }
  /// \brief Telemetry of the most recent SERVER_BUSY response.
  const BusyMsg& last_busy() const { return last_busy_; }

  // ---- raw access for protocol tests and the overload bench --------------

  /// \brief Writes raw bytes to the socket verbatim (no framing added).
  Status SendRaw(const void* data, size_t size);
  /// \brief Blocking read of the next complete frame; Corruption on a
  /// malformed stream, NotFound on clean EOF (server closed).
  Status ReadFrame(Frame* out);
  /// \brief Claims the next request id (what the next RPC would use).
  uint64_t NextRequestId() { return next_request_id_++; }

 private:
  /// One exchange: send `type` with a fresh id, read until the response
  /// with that id, require `expect` (Busy/Error handled uniformly).
  Status Rpc(FrameType type, const std::string& payload, FrameType expect,
             Frame* reply);
  /// Query RPC + ResultMsg decode + status lift.
  Status RunQuery(const QueryReq& req, ResultMsg* out);

  int fd_ = -1;
  std::string recv_buf_;
  uint64_t next_request_id_ = 1;
  uint32_t session_id_ = 0;
  uint64_t busy_seen_ = 0;
  BusyMsg last_busy_;
};

}  // namespace server
}  // namespace adaptidx

#endif  // ADAPTIDX_SERVER_CLIENT_H_
