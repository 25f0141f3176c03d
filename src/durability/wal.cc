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

Status WriteAheadLog::Open(const std::string& dir, FsyncPolicy fsync_policy,
                           uint64_t next_lsn,
                           std::unique_ptr<WriteAheadLog>* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::InvalidArgument("cannot create wal dir: " + dir);
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(dir, fsync_policy, next_lsn));
  Status s = wal->OpenSegment(next_lsn);
  if (!s.ok()) return s;
  // Make the new segment's directory entry durable before any commit is
  // acknowledged out of it.
  s = SyncPath(dir);
  if (!s.ok()) return s;
  *out = std::move(wal);
  return Status::OK();
}

WriteAheadLog::WriteAheadLog(std::string dir, FsyncPolicy fsync_policy,
                             uint64_t next_lsn)
    : dir_(std::move(dir)),
      fsync_policy_(fsync_policy),
      next_lsn_(next_lsn),
      durable_lsn_(next_lsn - 1) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ < 0) return;  // Open failed before the segment existed
  // An unacknowledged tail may or may not land, which recovery tolerates
  // either way.
  std::unique_lock<std::mutex> lk(mu_);
  (void)DrainLocked(lk, /*force_sync=*/true, /*seal=*/false);
  if (fd_ >= 0) ::close(fd_);  // a failed seal leaves none open
}

Status WriteAheadLog::OpenSegment(uint64_t first_lsn) {
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
  return lsn;
}

Status WriteAheadLog::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  auto done = [&] { return durable_lsn_ >= lsn || !io_error_.ok(); };
  for (;;) {
    // A drain in flight may cover lsn; otherwise lsn is still pending and
    // this caller leads the next drain.
    durable_cv_.wait(lk, [&] { return !draining_ || done(); });
    if (done()) return io_error_;
    (void)DrainLocked(lk, /*force_sync=*/false, /*seal=*/false);
  }
}

Status WriteAheadLog::DrainLocked(std::unique_lock<std::mutex>& lk,
                                  bool force_sync, bool seal) {
  durable_cv_.wait(lk, [&] { return !draining_; });
  if (!io_error_.ok()) return io_error_;
  draining_ = true;
  const std::string batch = std::exchange(pending_, std::string());
  const uint64_t batch_records = std::exchange(pending_records_, 0);
  const uint64_t batch_last_lsn = next_lsn_ - 1;
  lk.unlock();

  // The token makes this thread the segment's only writer, and the
  // segment is open while no error is sticky. kAlways writes and fsyncs
  // each (fixed-size) record on its own, so it measures what per-commit
  // forcing costs rather than borrowing the batching it is compared
  // against; every other policy writes the batch at once. The loop runs
  // at least once, so a forced sync of an empty batch still syncs.
  const size_t chunk =
      fsync_policy_ == FsyncPolicy::kAlways ? kRecordBytes : batch.size();
  const bool sync = force_sync || fsync_policy_ != FsyncPolicy::kNone;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
  Status s;
  size_t off = 0;
  do {
    const size_t n = std::min(chunk, batch.size() - off);
    s = WriteFully(fd_, batch.data() + off, n);
    if (!s.ok()) break;
    bytes += n;
    off += n;
    if (sync) {
      s = SyncFd(fd_);
      if (!s.ok()) break;
      ++syncs;
    }
  } while (off < batch.size());
  if (s.ok() && seal) {
    if (::close(fd_) != 0) s = Status::Corruption("wal close failed");
    fd_ = -1;
    if (s.ok()) s = OpenSegment(batch_last_lsn + 1);
    if (s.ok()) s = SyncPath(dir_);
  }

  lk.lock();
  draining_ = false;
  if (s.ok()) {
    durable_lsn_ = batch_last_lsn;
    if (seal) ++stats_.rotations;
  } else if (io_error_.ok()) {
    io_error_ = s;
  }
  if (batch_records > 0) {
    ++stats_.flush_batches;
    stats_.max_batch = std::max(stats_.max_batch, batch_records);
  }
  stats_.bytes_written += bytes;
  stats_.fsync_count += syncs;
  durable_cv_.notify_all();
  return s;
}

Status WriteAheadLog::Sync() {
  std::unique_lock<std::mutex> lk(mu_);
  return DrainLocked(lk, /*force_sync=*/true, /*seal=*/false);
}

Status WriteAheadLog::Rotate() {
  std::unique_lock<std::mutex> lk(mu_);
  return DrainLocked(lk, /*force_sync=*/true, /*seal=*/true);
}

Status WriteAheadLog::RemoveSegmentsBelow(uint64_t lsn) {
  // Under the drain token, so no seal can change which segment is current
  // while the directory is read.
  std::unique_lock<std::mutex> lk(mu_);
  durable_cv_.wait(lk, [&] { return !draining_; });
  draining_ = true;
  lk.unlock();
  Status s;
  auto segments = ListWalSegments(dir_);
  for (size_t i = 0; i < segments.size() && s.ok(); ++i) {
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
      s = Status::Corruption("cannot remove wal segment: " +
                             segments[i].second);
    }
  }
  if (s.ok()) s = SyncPath(dir_);
  lk.lock();
  draining_ = false;
  durable_cv_.notify_all();
  return s;
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
