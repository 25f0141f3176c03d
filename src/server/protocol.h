#ifndef ADAPTIDX_SERVER_PROTOCOL_H_
#define ADAPTIDX_SERVER_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "storage/types.h"
#include "util/status.h"
#include "util/wire.h"

namespace adaptidx {
namespace server {

/// \brief Length-prefixed binary wire format shared by `Server` and
/// `Client`.
///
/// Every frame is
///
///     u32 length | u8 type | u64 request_id | payload[length - 9]
///
/// with all integers little-endian. `length` counts everything after
/// itself (type byte + request id + payload), so the smallest legal value
/// is `kFrameOverhead` and the decoder rejects any length below that or
/// above the configured cap *before* reserving a single byte of payload
/// buffer — a hostile length field cannot drive an allocation.
///
/// Request ids are chosen by the client and echoed verbatim on the
/// response, which is what lets the server complete requests out of order
/// (a slow analytical query does not head-of-line-block a point query
/// pipelined behind it).
constexpr size_t kFrameOverhead = 1 + 8;  ///< type byte + request id
/// \brief Bytes of the leading length word.
constexpr size_t kFrameLengthBytes = 4;
/// \brief Default per-frame size cap (1 MiB) enforced before any reserve.
constexpr size_t kDefaultMaxFrameBytes = size_t{1} << 20;

/// \brief Frame type tags. Requests have the high bit clear, responses
/// have it set; an unknown tag is a protocol error that closes the
/// connection.
enum class FrameType : uint8_t {
  // ---- client -> server -------------------------------------------------
  kOpenSession = 0x01,  ///< payload: OpenSessionReq
  kQuery = 0x02,        ///< payload: QueryReq
  kBatch = 0x03,        ///< payload: BatchReq
  kInsert = 0x04,       ///< payload: InsertReq
  kDelete = 0x05,       ///< payload: DeleteReq
  kStats = 0x06,        ///< payload: empty
  kClose = 0x07,        ///< payload: empty; server acks then closes
  kCheckpoint = 0x08,   ///< payload: empty; admin frame — write a durable
                        ///< checkpoint and truncate the WAL (durable servers
                        ///< only; answered kResult with kind=kCheckpointAck)

  // ---- server -> client -------------------------------------------------
  kOpenOk = 0x81,       ///< payload: OpenOkMsg
  kResult = 0x82,       ///< payload: ResultMsg (query/insert/delete answer)
  kBatchResult = 0x83,  ///< payload: BatchResultMsg
  kStatsResult = 0x84,  ///< payload: StatsMsg
  kServerBusy = 0x85,   ///< payload: BusyMsg — request load-shed, retry later
  kCloseOk = 0x86,      ///< payload: empty
  kError = 0x87,        ///< payload: ResultMsg (status only); connection-level
};

/// \brief One decoded frame: tag, echoable request id, raw payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  std::string payload;
};

// ----------------------------------------------------------------- encode

// The strict bounds-checked codec moved to util/wire.h so the durability
// subsystem's log/checkpoint formats share the exact same discipline
// (length-validated-before-allocation, Exhausted() acceptance) instead of
// re-implementing it. The aliases keep the server namespace spelling.
using adaptidx::WireReader;
using adaptidx::WireWriter;

/// \brief Assembles one complete frame (length word included) ready to
/// write to a socket.
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload);

/// \brief Incremental strict decoder over a connection's receive buffer.
///
/// Outcomes: OK with `*consumed > 0` — one well-formed frame extracted;
/// OK with `*consumed == 0` — the buffer holds only a frame prefix, read
/// more; non-OK — the bytes cannot be a legal frame (length below the
/// fixed overhead, above `max_frame_bytes`, or an unknown type tag) and
/// the connection must be closed. The length check precedes any buffer
/// reservation.
Status TryDecodeFrame(const uint8_t* data, size_t size, size_t max_frame_bytes,
                      Frame* out, size_t* consumed);

// --------------------------------------------------------------- payloads

/// \brief OPEN_SESSION request payload.
struct OpenSessionReq {
  /// Bit 0 (`kFlagSnapshotReads`) is accepted and ignored: every read
  /// already answers against a pinned snapshot.
  uint8_t flags = 0;
  /// Client identity stamped on contexts; 0 auto-assigns the session id.
  uint32_t client_id = 0;

  /// \brief Ignored flag bit, kept so existing clients may still send it.
  static constexpr uint8_t kFlagSnapshotReads = 0x01;

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode; InvalidArgument on malformed bytes.
  Status Decode(const std::string& payload);
};

/// \brief OPEN_SESSION acknowledgement payload.
struct OpenOkMsg {
  uint32_t session_id = 0;  ///< server-assigned session id

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode; InvalidArgument on malformed bytes.
  Status Decode(const std::string& payload);
};

/// \brief One range query over the served column: kind + half-open
/// predicate [lo, hi). kSumOther is not expressible on the wire (the
/// server fronts a single column), so its tag is rejected at decode.
struct QueryReq {
  QueryKind kind = QueryKind::kCount;
  Value lo = 0;
  Value hi = 0;

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode; InvalidArgument on malformed bytes or a kind
  /// tag that is unknown/not servable over the wire.
  Status Decode(const std::string& payload);
  /// \brief Lifts into the engine's unified descriptor (names are ignored
  /// by the server's direct-index sessions).
  Query ToQuery() const;

  /// \brief Appends this request's fields to an open writer (the BATCH
  /// element encoding).
  void EncodeTo(WireWriter* w) const;
  /// \brief Reads one element from an open reader; false on malformed
  /// bytes or a bad kind tag.
  bool DecodeFrom(WireReader* r);
};

/// \brief BATCH request payload: `count` queries submitted as one
/// admission unit and answered by one kBatchResult frame.
struct BatchReq {
  std::vector<QueryReq> queries;

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode. The element count is validated against the
  /// payload size before the vector reserves, so a forged count cannot
  /// drive an allocation.
  Status Decode(const std::string& payload);
};

/// \brief INSERT request payload.
struct InsertReq {
  Value value = 0;  ///< value to insert into the served column

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode; InvalidArgument on malformed bytes.
  Status Decode(const std::string& payload);
};

/// \brief DELETE request payload: the (value, row id) pair addressing one
/// live tuple.
struct DeleteReq {
  Value value = 0;      ///< value of the tuple to delete
  RowId row_id = 0;     ///< row id returned by the INSERT that created it

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode; InvalidArgument on malformed bytes.
  Status Decode(const std::string& payload);
};

/// \brief Answer payload of kResult/kError frames: an engine `Status`
/// plus, when OK, the flattened `QueryResult` fields (and the assigned row
/// id for INSERT acks).
struct ResultMsg {
  uint8_t status_code = 0;    ///< Status::Code of the execution
  std::string message;        ///< status message (empty when OK)
  uint8_t kind = 0;           ///< QueryKind byte; kUpdateAck for updates
  uint64_t count = 0;         ///< kCount / kRowIds cardinality
  int64_t sum = 0;            ///< kSum
  uint8_t has_minmax = 0;     ///< kMinMax matched at least one row
  int64_t min_value = 0;      ///< kMinMax
  int64_t max_value = 0;      ///< kMinMax
  uint32_t row_id = 0;        ///< INSERT ack: assigned row id
  std::vector<uint32_t> row_ids;  ///< kRowIds payload

  /// \brief `kind` tag of insert/delete acknowledgements.
  static constexpr uint8_t kUpdateAck = 0xFE;
  /// \brief `kind` tag of CHECKPOINT acknowledgements; `count` carries the
  /// epoch the durable image captured.
  static constexpr uint8_t kCheckpointAck = 0xFD;

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode. The row-id count is validated against the
  /// remaining payload bytes before the vector reserves.
  Status Decode(const std::string& payload);

  /// \brief Appends to an open writer (the BATCH_RESULT element encoding).
  void EncodeTo(WireWriter* w) const;
  /// \brief Reads one element from an open reader.
  bool DecodeFrom(WireReader* r);

  /// \brief Lifts the wire status back into an engine `Status`.
  Status ToStatus() const;
  /// \brief Builds a failure message carrying `s`.
  static ResultMsg FromStatus(const Status& s);
  /// \brief Builds a success message from an executed query's result.
  static ResultMsg FromResult(const QueryResult& r);
};

/// \brief BATCH_RESULT payload: one ResultMsg per batched query, in
/// submission order.
struct BatchResultMsg {
  std::vector<ResultMsg> results;

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode with the element count validated against the
  /// payload size before any reserve.
  Status Decode(const std::string& payload);
};

/// \brief STATS_RESULT payload: named u64 gauges/counters — `LatchStats`
/// of the served index, per-session counters, and the admission gauges —
/// as an open-ended key/value list so new counters never break old
/// clients.
struct StatsMsg {
  std::vector<std::pair<std::string, uint64_t>> entries;

  /// \brief Convenience lookup; false when `key` is absent.
  bool Find(const std::string& key, uint64_t* value) const;

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode; every string length is validated against the
  /// remaining bytes before allocation.
  Status Decode(const std::string& payload);
};

/// \brief SERVER_BUSY payload: the admission controller's overload gauge
/// and running shed total at the moment the request was refused.
struct BusyMsg {
  uint8_t overload_state = 0;  ///< OverloadState at shed time
  uint64_t shed_total = 0;     ///< requests shed since server start

  /// \brief Serializes the payload.
  std::string Encode() const;
  /// \brief Strict decode; InvalidArgument on malformed bytes.
  Status Decode(const std::string& payload);
};

/// \brief Status::Code -> wire byte (stable across versions).
uint8_t StatusCodeToWire(const Status& s);
/// \brief Wire byte -> engine Status carrying `message`.
Status WireToStatus(uint8_t code, const std::string& message);

}  // namespace server
}  // namespace adaptidx

#endif  // ADAPTIDX_SERVER_PROTOCOL_H_
