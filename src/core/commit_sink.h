#ifndef ADAPTIDX_CORE_COMMIT_SINK_H_
#define ADAPTIDX_CORE_COMMIT_SINK_H_

#include <cstdint>

#include "storage/types.h"
#include "util/status.h"

namespace adaptidx {

/// \brief The hook through which `UpdatableIndex` hands every committed
/// update to a durability layer, without the core depending on it.
///
/// The contract is write-ahead in the strict sense: the index calls
/// `LogCommit` *inside* its commit critical section, immediately before it
/// advances the commit epoch — so log sequence numbers are assigned in
/// exactly the order updates become visible, and LSN k corresponds to
/// commit epoch advance k. A sink implementation must therefore make
/// `LogCommit` cheap (append to an in-memory buffer and return; no I/O,
/// no blocking on disk) because it runs under the index mutex.
///
/// Durability is purchased *outside* the critical section: after releasing
/// its locks, the index calls `WaitDurable(lsn)` and only then
/// acknowledges the update to the caller. That split is what makes group
/// commit possible — many committers park in `WaitDurable` while one of
/// them drains the log and retires them all with a single fsync.
///
/// Thread-safety: both methods are called concurrently from many threads;
/// implementations synchronize internally. `LogCommit` additionally runs
/// under the index's internal mutex, so a sink must never call back into
/// the index from it.
class CommitSink {
 public:
  /// \brief Logical operation tags, stable on disk.
  enum class OpType : uint8_t {
    kInsert = 1,  ///< insert of (value, assigned row id)
    kDelete = 2,  ///< delete of live tuple (value, row id)
    kFold = 3,    ///< side-store fold into a new base (deterministic replay)
  };

  virtual ~CommitSink() = default;

  /// \brief Records one committed operation; returns its LSN. Called under
  /// the index mutex at the commit point — must not block or perform I/O.
  virtual uint64_t LogCommit(OpType type, Value value, RowId row_id) = 0;

  /// \brief Blocks until every record with sequence number <= `lsn` is
  /// durable per the sink's fsync policy. Called outside the index mutex.
  virtual Status WaitDurable(uint64_t lsn) = 0;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_COMMIT_SINK_H_
