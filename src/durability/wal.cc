#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "storage/file_io.h"
#include "util/crc32.h"
#include "util/wire.h"

namespace adaptidx {

namespace {

constexpr char kSegmentMagic[8] = {'A', 'D', 'I', 'X', 'W', 'A', 'L', '1'};
constexpr size_t kSegmentHeaderBytes = sizeof(kSegmentMagic) + 8;
constexpr size_t kRecordPayloadBytes = 8 + 1 + 8 + 4;  // lsn, op, value, rowid
constexpr size_t kRecordBytes = 4 + 4 + kRecordPayloadBytes;

std::string SegmentName(uint64_t first_lsn) {
  return "wal-" + std::to_string(first_lsn) + ".log";
}

/// Serializes one record (length, crc, payload) onto `out`.
void AppendRecord(uint64_t lsn, CommitSink::OpType op, Value value,
                  RowId row_id, std::string* out) {
  WireWriter payload;
  payload.PutU64(lsn);
  payload.PutU8(static_cast<uint8_t>(op));
  payload.PutI64(value);
  payload.PutU32(row_id);
  const std::string p = payload.Take();
  WireWriter rec;
  rec.PutU32(static_cast<uint32_t>(p.size()));
  rec.PutU32(Crc32(p.data(), p.size()));
  out->append(rec.Take());
  out->append(p);
}

Status WriteFully(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t left = size;
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Corruption(std::string("wal write failed: ") +
                                std::strerror(errno));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteAheadLog::Open(const std::string& dir, const WalOptions& opts,
                           uint64_t next_lsn,
                           std::unique_ptr<WriteAheadLog>* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::InvalidArgument("cannot create wal dir: " + dir);
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(dir, opts, next_lsn));
  {
    std::lock_guard<std::mutex> io(wal->io_mu_);
    Status s = wal->OpenSegmentLocked(next_lsn);
    if (!s.ok()) return s;
  }
  // Make the new segment's directory entry durable before any commit is
  // acknowledged out of it.
  Status s = SyncPath(dir);
  if (!s.ok()) return s;
  wal->flusher_ = std::thread(&WriteAheadLog::FlusherLoop, wal.get());
  *out = std::move(wal);
  return Status::OK();
}

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions opts,
                             uint64_t next_lsn)
    : dir_(std::move(dir)), opts_(opts), next_lsn_(next_lsn) {
  durable_lsn_ = next_lsn - 1;
  claimed_lsn_ = next_lsn - 1;
}

bool WriteAheadLog::AwaitInFlightBatchLocked(
    std::unique_lock<std::mutex>& lk) {
  durable_cv_.wait(
      lk, [&] { return durable_lsn_ >= claimed_lsn_ || !io_error_.ok(); });
  return io_error_.ok();
}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    flusher_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> io(io_mu_);
  if (fd_ >= 0) {
    // Final best-effort sync: an unacknowledged tail may or may not land,
    // which recovery tolerates either way.
    SyncFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Status WriteAheadLog::OpenSegmentLocked(uint64_t first_lsn) {
  const std::string path = dir_ + "/" + SegmentName(first_lsn);
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open wal segment: " + path);
  }
  WireWriter header;
  for (char c : kSegmentMagic) header.PutU8(static_cast<uint8_t>(c));
  header.PutU64(first_lsn);
  const std::string h = header.Take();
  Status s = WriteFully(fd, h.data(), h.size());
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  fd_ = fd;
  segment_first_lsn_ = first_lsn;
  return Status::OK();
}

uint64_t WriteAheadLog::LogCommit(OpType op, Value value, RowId row_id) {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t lsn = next_lsn_++;
  AppendRecord(lsn, op, value, row_id, &pending_);
  ++pending_records_;
  ++stats_.records_appended;
  flusher_cv_.notify_one();
  return lsn;
}

Status WriteAheadLog::WaitDurable(uint64_t lsn) {
  if (opts_.fsync_policy == FsyncPolicy::kNone) {
    // The contract degrades to "handed to the OS": the flusher will write
    // it out without fsync; an ack only promises survival of a process
    // crash, not a power failure.
    return Status::OK();
  }
  std::unique_lock<std::mutex> lk(mu_);
  durable_cv_.wait(lk, [&] { return durable_lsn_ >= lsn || !io_error_.ok(); });
  return io_error_;
}

void WriteAheadLog::FlusherLoop() {
  for (;;) {
    std::string batch;
    uint64_t batch_records = 0;
    uint64_t batch_last_lsn = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      flusher_cv_.wait(lk, [&] { return pending_records_ > 0 || stop_; });
      if (pending_records_ == 0 && stop_) return;
      batch = std::move(pending_);
      pending_.clear();
      batch_records = pending_records_;
      pending_records_ = 0;
      batch_last_lsn = next_lsn_ - 1;
      claimed_lsn_ = batch_last_lsn;
    }
    Status s;
    uint64_t bytes = 0;
    uint64_t syncs = 0;
    {
      std::lock_guard<std::mutex> io(io_mu_);
      if (opts_.fsync_policy == FsyncPolicy::kAlways) {
        // Force-at-commit: each record of the drained batch pays its own
        // write+fsync, so kAlways measures what per-commit forcing costs
        // rather than borrowing the batching win it is compared against.
        size_t off = 0;
        while (s.ok() && off < batch.size()) {
          uint32_t len = 0;
          std::memcpy(&len, batch.data() + off, sizeof(len));
          const size_t rec = 4 + 4 + len;
          s = WriteAndSyncLocked(batch.substr(off, rec), false, &bytes,
                                 &syncs);
          off += rec;
        }
      } else {
        s = WriteAndSyncLocked(batch, false, &bytes, &syncs);
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!s.ok() && io_error_.ok()) io_error_ = s;
      if (s.ok()) durable_lsn_ = batch_last_lsn;
      ++stats_.flush_batches;
      stats_.max_batch = std::max(stats_.max_batch, batch_records);
      stats_.bytes_written += bytes;
      stats_.fsync_count += syncs;
      durable_cv_.notify_all();
    }
  }
}

Status WriteAheadLog::WriteAndSyncLocked(const std::string& buf,
                                         bool force_sync, uint64_t* bytes,
                                         uint64_t* syncs) {
  // io_mu_ held, mu_ NOT touched: Rotate acquires io_mu_ while holding
  // mu_, so taking mu_ here would close an ABBA cycle with the flusher.
  // Counters are returned for the caller to account under mu_.
  if (fd_ < 0) return Status::InvalidArgument("wal segment not open");
  if (!buf.empty()) {
    Status s = WriteFully(fd_, buf.data(), buf.size());
    if (!s.ok()) return s;
    *bytes += buf.size();
  }
  if (opts_.fsync_policy != FsyncPolicy::kNone || force_sync) {
    Status s = SyncFd(fd_);
    if (!s.ok()) return s;
    ++*syncs;
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  // Drain whatever is pending through our own write (not the flusher) so
  // the caller has a hard happens-before: everything logged before Sync()
  // is on disk when it returns.
  std::string batch;
  uint64_t batch_last_lsn = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!AwaitInFlightBatchLocked(lk)) return io_error_;
    batch = std::move(pending_);
    pending_.clear();
    pending_records_ = 0;
    batch_last_lsn = next_lsn_ - 1;
    claimed_lsn_ = batch_last_lsn;
  }
  Status s;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
  {
    std::lock_guard<std::mutex> io(io_mu_);
    s = WriteAndSyncLocked(batch, /*force_sync=*/true, &bytes, &syncs);
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!s.ok()) {
    if (io_error_.ok()) io_error_ = s;
  } else if (durable_lsn_ < batch_last_lsn) {
    durable_lsn_ = batch_last_lsn;
  }
  stats_.bytes_written += bytes;
  stats_.fsync_count += syncs;
  durable_cv_.notify_all();
  return s;
}

Status WriteAheadLog::Rotate() {
  // Seal with io_mu_ taken while mu_ is still held (the one nested
  // acquisition, always mu_ then io_mu_): no batch claimed after our drain
  // can reach the file before the old segment is sealed. io_mu_ is released
  // again before mu_ is retaken, so no thread ever waits for mu_ while
  // holding io_mu_ and concurrent Rotate callers cannot deadlock.
  std::string batch;
  uint64_t next;
  std::unique_lock<std::mutex> lk(mu_);
  // A batch the flusher claimed but has not written yet would otherwise be
  // written AFTER our drain — out of LSN order, or into the next segment.
  if (!AwaitInFlightBatchLocked(lk)) return io_error_;
  batch = std::move(pending_);
  pending_.clear();
  pending_records_ = 0;
  next = next_lsn_;
  claimed_lsn_ = next - 1;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
  Status s;
  {
    std::lock_guard<std::mutex> io(io_mu_);
    lk.unlock();
    s = WriteAndSyncLocked(batch, /*force_sync=*/true, &bytes, &syncs);
    if (s.ok()) {
      if (::close(fd_) != 0) s = Status::Corruption("wal close failed");
      fd_ = -1;
    }
    if (s.ok()) s = OpenSegmentLocked(next);
    if (s.ok()) s = SyncPath(dir_);
  }
  // A flusher batch written between the two critical sections is harmless:
  // it lands in the fresh segment and durable_lsn_ only ever rises.
  lk.lock();
  if (!s.ok()) {
    if (io_error_.ok()) io_error_ = s;
  } else {
    if (durable_lsn_ < next - 1) durable_lsn_ = next - 1;
    ++stats_.rotations;
  }
  stats_.bytes_written += bytes;
  stats_.fsync_count += syncs;
  durable_cv_.notify_all();
  return s;
}

Status WriteAheadLog::RemoveSegmentsBelow(uint64_t lsn) {
  auto segments = ListWalSegments(dir_);
  std::lock_guard<std::mutex> io(io_mu_);
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first == segment_first_lsn_) continue;  // current
    // A sealed segment's records span [first_lsn, next segment's
    // first_lsn); it is disposable only when that whole span is <= lsn.
    const uint64_t next_first = i + 1 < segments.size()
                                    ? segments[i + 1].first
                                    : segments[i].first;
    if (segments[i].first > lsn || next_first > lsn + 1) continue;
    std::error_code ec;
    std::filesystem::remove(segments[i].second, ec);
    if (ec) {
      return Status::Corruption("cannot remove wal segment: " +
                                segments[i].second);
    }
  }
  return SyncPath(dir_);
}

uint64_t WriteAheadLog::last_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_lsn_ - 1;
}

uint64_t WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_lsn_;
}

WalStats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

Status ScanWalSegment(const std::string& path, WalSegmentScan* out) {
  out->records.clear();
  out->valid_bytes = 0;
  out->torn = false;
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::NotFound("cannot open wal segment: " + path);
  // Read exactly the bytes fstat reports: a failed or short read is an I/O
  // error, never the end of the log — treating it as a torn tail would cut
  // acknowledged commits off the segment.
  std::string data;
  std::string why;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    why = std::strerror(errno);
  } else if (!S_ISREG(st.st_mode)) {
    why = "not a regular file";
  } else {
    data.resize(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < data.size() && why.empty()) {
      const ssize_t n = ::read(fd, &data[got], data.size() - got);
      if (n > 0) {
        got += static_cast<size_t>(n);
      } else if (n == 0) {
        why = "short read at byte " + std::to_string(got) + " of " +
              std::to_string(data.size());
      } else if (errno != EINTR) {
        why = std::strerror(errno);
      }
    }
  }
  ::close(fd);
  if (!why.empty()) {
    return Status::IOError("cannot read wal segment " + path + ": " + why);
  }
  if (data.size() < kSegmentHeaderBytes ||
      std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::Corruption("bad wal segment header: " + path);
  }
  {
    WireReader r(data.data() + sizeof(kSegmentMagic), 8);
    r.GetU64(&out->first_lsn);
  }
  size_t off = kSegmentHeaderBytes;
  uint64_t expect_lsn = out->first_lsn;
  while (off < data.size()) {
    if (data.size() - off < 8) break;  // torn length/crc prefix
    WireReader head(data.data() + off, 8);
    uint32_t len = 0;
    uint32_t crc = 0;
    head.GetU32(&len);
    head.GetU32(&crc);
    if (len != kRecordPayloadBytes) break;      // torn or corrupt length
    if (data.size() - off - 8 < len) break;     // torn payload
    const char* payload = data.data() + off + 8;
    if (Crc32(payload, len) != crc) break;      // torn or flipped payload
    WireReader r(payload, len);
    WalRecord rec;
    uint8_t op = 0;
    r.GetU64(&rec.lsn);
    r.GetU8(&op);
    r.GetI64(&rec.value);
    r.GetU32(&rec.row_id);
    if (!r.Exhausted() || op < 1 || op > 3) break;
    if (rec.lsn != expect_lsn) {
      // A CRC-valid record with the wrong sequence number cannot be a torn
      // tail; the log itself is inconsistent.
      return Status::Corruption("wal lsn discontinuity in " + path);
    }
    rec.op = static_cast<CommitSink::OpType>(op);
    out->records.push_back(rec);
    ++expect_lsn;
    off += kRecordBytes;
    out->valid_bytes = off;
  }
  out->valid_bytes =
      out->records.empty() ? kSegmentHeaderBytes : out->valid_bytes;
  out->torn = out->valid_bytes < data.size();
  return Status::OK();
}

std::vector<std::pair<uint64_t, std::string>> ListWalSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) != 0) continue;
    const size_t dot = name.rfind(".log");
    if (dot == std::string::npos || dot <= 4) continue;
    char* end = nullptr;
    const uint64_t first = std::strtoull(name.c_str() + 4, &end, 10);
    if (end != name.c_str() + dot) continue;
    out.emplace_back(first, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace adaptidx
