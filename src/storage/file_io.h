#ifndef ADAPTIDX_STORAGE_FILE_IO_H_
#define ADAPTIDX_STORAGE_FILE_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"
#include "util/status.h"

namespace adaptidx {

/// \file
/// Binary persistence for columns and tables. Section 5.1: "data is stored
/// one column at a time ... This representation is the same both in memory
/// and on disk" — a column file is a small header followed by the raw dense
/// value array, so loading is a single sequential read into the in-memory
/// representation.
///
/// Column file format (little-endian):
///   bytes 0-7   magic "ADIXCOL1"
///   bytes 8-15  uint64 value count
///   bytes 16-   count * int64 values
///
/// A table is a directory with one `<column>.col` file per column and a
/// `manifest.txt` listing column names in positional order. Adaptive index
/// state is deliberately *not* persisted: indexes are optional side-effect
/// structures that queries re-create on demand (Section 4.2: such an index
/// "can be dropped at any time").

/// \brief Writes one column; overwrites an existing file.
Status WriteColumn(const Column& column, const std::string& path);

/// \brief Reads a column file written by WriteColumn; `name` becomes the
/// in-memory column name.
Status ReadColumn(const std::string& path, const std::string& name,
                  Column* out);

/// \brief Writes all columns of `table` into directory `dir` (created if
/// missing) plus a manifest.
Status WriteTable(const Table& table, const std::string& dir);

/// \brief Loads a table written by WriteTable.
Status ReadTable(const std::string& dir, const std::string& table_name,
                 std::unique_ptr<Table>* out);

// ---------------------------------------------------------- durability ops
//
// The crash-consistency primitives the durability subsystem builds on.
// None of the Write*/Read* helpers above make any durability promise: they
// hand bytes to the page cache. The three calls below are what turns a
// write into a commitment — fdatasync for log batches, fsync-of-directory
// for created/renamed names, and write-temp-then-rename so a torn
// checkpoint image can never appear under the published name.

/// \brief Flushes a file descriptor's data to stable storage (fdatasync,
/// EINTR-retried). The group-commit hot path: data blocks reach the disk,
/// file metadata (mtime) may not — enough for a log whose record CRCs, not
/// its length field, define validity.
Status SyncFd(int fd);

/// \brief fsync on a path (file or directory). Syncing a directory makes
/// entries created/renamed in it durable — a freshly created file whose
/// directory was never synced can vanish on power loss.
Status SyncPath(const std::string& path);

/// \brief One contiguous byte range of a gathered file write: `size` bytes
/// starting at `data` (`data` may be null when `size` is 0).
struct FilePart {
  const void* data = nullptr;  ///< first byte of the range
  size_t size = 0;             ///< byte count
};

/// \brief Atomically publishes the concatenation of `parts` under `path`:
/// writes `path`.tmp.<pid> part by part, fsyncs it, renames over `path`,
/// and fsyncs the parent directory. After a crash at ANY point, `path`
/// holds either the complete old content or the complete new content,
/// never a prefix — the installation step of checkpoint images. The parts
/// are written where they lie, so a caller whose file is a header plus a
/// few large arrays never assembles the whole file in one buffer.
Status AtomicWriteFile(const std::string& path,
                       const std::vector<FilePart>& parts);

}  // namespace adaptidx

#endif  // ADAPTIDX_STORAGE_FILE_IO_H_
