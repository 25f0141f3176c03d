#include "durability/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <type_traits>

#include "storage/file_io.h"
#include "util/crc32.h"
#include "util/wire.h"

namespace adaptidx {

namespace {

constexpr char kMagic[8] = {'A', 'D', 'I', 'X', 'C', 'K', 'P', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = sizeof(kMagic) + 8 + 4;

// Base values, cracker values and row IDs are written and read as raw
// arrays, and the decoder reads integer fields as raw bytes too: their
// in-memory bytes are their i64/u32 little-endian encoding, as a column
// file's values are (storage/file_io.h).
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ &&
                  sizeof(Value) == 8 && sizeof(RowId) == 4,
              "checkpoint arrays are raw little-endian i64/u32 bytes");

std::string CheckpointName(uint64_t epoch) {
  return "checkpoint-" + std::to_string(epoch) + ".ckpt";
}

void PutPairs(WireWriter* w,
              const std::vector<std::pair<Value, RowId>>& pairs) {
  w->PutU32(static_cast<uint32_t>(pairs.size()));
  for (const auto& [v, id] : pairs) {
    w->PutI64(v);
    w->PutU32(id);
  }
}

template <typename T>
FilePart ArrayPart(const std::vector<T>& v) {
  return FilePart{v.data(), v.size() * sizeof(T)};
}

FilePart BytesPart(const std::string& s) {
  return FilePart{s.data(), s.size()};
}

/// Reads a checkpoint file front to back with read(2) into the caller's
/// memory, with no file-sized buffer, and chains the CRC over the bytes in
/// cache-sized steps while they are still in cache. Every read is checked
/// against the bytes left, so no count read from the file can size an
/// allocation past the file's end.
class FileReader {
 public:
  FileReader(int fd, uint64_t size) : fd_(fd), left_(size) {}

  /// Reads the next `n` bytes into `dst`.
  bool Read(void* dst, uint64_t n) {
    if (n > left_) return false;
    char* p = static_cast<char*>(dst);
    while (n > 0) {
      const size_t step = static_cast<size_t>(std::min<uint64_t>(n, kStep));
      for (size_t got = 0; got < step;) {
        const ssize_t r = ::read(fd_, p + got, step - got);
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) return false;
        got += static_cast<size_t>(r);
      }
      crc_ = Crc32(p, step, crc_);
      p += step;
      n -= step;
      left_ -= step;
    }
    return true;
  }

  /// Reads one fixed-width integer.
  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_integral_v<T>);
    return Read(v, sizeof(T));
  }

  /// Reads `count` raw elements; `out` is sized only once they fit.
  template <typename T>
  bool GetArray(uint64_t count, std::vector<T>* out) {
    if (count * sizeof(T) > left_) return false;
    out->resize(count);
    return Read(out->data(), count * sizeof(T));
  }

  /// Reads the next `n` bytes into `out`; sized only once they fit.
  bool GetBytes(uint64_t n, std::string* out) {
    if (n > left_) return false;
    out->resize(n);
    return Read(out->data(), n);
  }

  uint64_t left() const { return left_; }
  uint32_t crc() const { return crc_; }

 private:
  static constexpr size_t kStep = 256 << 10;

  const int fd_;
  uint64_t left_;
  uint32_t crc_ = 0;
};

/// Owns an open descriptor and closes it on every return path.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { ::close(fd_); }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }

 private:
  const int fd_;
};

/// Reads `u32 count | count x (i64 value, u32 row id)`; `bytes` is scratch.
bool GetPairs(FileReader* r, std::string* bytes,
              std::vector<std::pair<Value, RowId>>* out) {
  uint32_t count = 0;
  if (!r->Get(&count) || !r->GetBytes(uint64_t{count} * 12, bytes)) {
    return false;
  }
  WireReader w(bytes->data(), bytes->size());
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Value v = 0;
    uint32_t id = 0;
    w.GetI64(&v);
    w.GetU32(&id);
    out->emplace_back(v, static_cast<RowId>(id));
  }
  return true;
}

}  // namespace

Status WriteCheckpoint(const std::string& dir, const CheckpointImage& image) {
  // The payload is a few framing fields around up to three large arrays.
  // Only the framing is encoded; the arrays are checksummed and written
  // where they lie, so no buffer the size of the payload ever exists.
  const auto& a = image.adapted;
  WireWriter before_base;
  before_base.PutU32(kFormatVersion);
  before_base.PutU64(image.epoch);
  before_base.PutU32(image.next_row_id);
  before_base.PutString(image.column_name);
  before_base.PutU32(static_cast<uint32_t>(image.base_values.size()));
  WireWriter after_base;
  PutPairs(&after_base, image.inserts);
  PutPairs(&after_base, image.anti_matter);
  after_base.PutU8(image.has_adapted ? 1 : 0);
  WireWriter pieces;
  if (image.has_adapted) {
    after_base.PutU32(static_cast<uint32_t>(a.values.size()));
    pieces.PutU32(static_cast<uint32_t>(a.pieces.size()));
    for (const auto& p : a.pieces) {
      pieces.PutU64(p.begin);
      pieces.PutU64(p.end);
      pieces.PutI64(p.lo_value);
      pieces.PutI64(p.hi_value);
      pieces.PutU8(p.sorted ? 1 : 0);
    }
  }
  const std::string framing[] = {before_base.Take(), after_base.Take(),
                                 pieces.Take()};

  // Payload parts in file order; the header goes in front once the
  // payload's length and CRC are known.
  std::vector<FilePart> parts = {FilePart{}, BytesPart(framing[0]),
                                 ArrayPart(image.base_values),
                                 BytesPart(framing[1])};
  if (image.has_adapted) {
    parts.push_back(ArrayPart(a.values));
    parts.push_back(ArrayPart(a.row_ids));
  }
  parts.push_back(BytesPart(framing[2]));
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  for (size_t i = 1; i < parts.size(); ++i) {
    payload_len += parts[i].size;
    crc = Crc32(parts[i].data, parts[i].size, crc);
  }
  WireWriter file;
  for (char c : kMagic) file.PutU8(static_cast<uint8_t>(c));
  file.PutU64(payload_len);
  file.PutU32(crc);
  const std::string header = file.Take();
  parts[0] = BytesPart(header);
  return AtomicWriteFile(dir + "/" + CheckpointName(image.epoch), parts);
}

Status LoadCheckpoint(const std::string& path, CheckpointImage* out) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::NotFound("cannot open checkpoint: " + path);
  const ScopedFd file(fd);
  struct stat st {};
  if (::fstat(file.get(), &st) != 0) {
    return Status::Corruption("cannot stat checkpoint: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  char header[kHeaderBytes] = {};
  if (!FileReader(file.get(), size).Read(header, kHeaderBytes) ||
      std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad checkpoint header: " + path);
  }
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  {
    WireReader h(header + sizeof(kMagic), 12);
    h.GetU64(&payload_len);
    h.GetU32(&crc);
  }
  if (size - kHeaderBytes != payload_len) {
    return Status::Corruption("checkpoint length mismatch: " + path);
  }

  // The payload is decoded as it is read; its CRC is known, and checked,
  // once the last byte is in.
  FileReader r(file.get(), payload_len);
  uint32_t version = 0;
  if (!r.Get(&version) || version != kFormatVersion) {
    return Status::Corruption("unknown checkpoint version: " + path);
  }
  uint32_t next_row_id = 0;
  uint32_t name_len = 0;
  uint32_t base_count = 0;
  bool ok = r.Get(&out->epoch) && r.Get(&next_row_id) && r.Get(&name_len) &&
            r.GetBytes(name_len, &out->column_name) && r.Get(&base_count) &&
            r.GetArray(base_count, &out->base_values);
  if (!ok) return Status::Corruption("bad checkpoint base header: " + path);
  out->next_row_id = static_cast<RowId>(next_row_id);
  std::string bytes;
  ok = GetPairs(&r, &bytes, &out->inserts) &&
       GetPairs(&r, &bytes, &out->anti_matter);
  uint8_t has_adapted = 0;
  ok = ok && r.Get(&has_adapted);
  out->has_adapted = has_adapted != 0;
  out->adapted = CrackingIndex::AdaptedState{};
  if (ok && out->has_adapted) {
    auto& a = out->adapted;
    uint32_t n = 0;
    uint32_t piece_count = 0;
    // Both arrays must fit before either is allocated.
    ok = r.Get(&n) && uint64_t{n} * 12 <= r.left() &&
         r.GetArray(n, &a.values) && r.GetArray(n, &a.row_ids) &&
         r.Get(&piece_count) && r.GetBytes(uint64_t{piece_count} * 33, &bytes);
    if (ok) {
      WireReader w(bytes.data(), bytes.size());
      a.pieces.reserve(piece_count);
      for (uint32_t i = 0; i < piece_count; ++i) {
        CrackingIndex::AdaptedPiece p;
        uint64_t begin = 0;
        uint64_t end = 0;
        uint8_t sorted = 0;
        w.GetU64(&begin);
        w.GetU64(&end);
        w.GetI64(&p.lo_value);
        w.GetI64(&p.hi_value);
        w.GetU8(&sorted);
        p.begin = begin;
        p.end = end;
        p.sorted = sorted != 0;
        a.pieces.push_back(p);
      }
    }
  }
  if (!ok || r.left() != 0) {
    return Status::Corruption("malformed checkpoint payload: " + path);
  }
  if (r.crc() != crc) {
    return Status::Corruption("checkpoint crc mismatch: " + path);
  }
  if (out->has_adapted) {
    // The CRC only proves the bytes are the ones written. An adapted image
    // must also fit this image's base column before anything trusts its
    // rowIDs as positions into the base columns.
    Status valid = CrackingIndex::ValidateAdaptedState(
        out->adapted, out->base_values.size());
    if (!valid.ok()) {
      return Status::Corruption(valid.message() + ": " + path);
    }
  }
  return Status::OK();
}

std::vector<std::pair<uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) != 0) continue;
    const size_t dot = name.rfind(".ckpt");
    if (dot == std::string::npos || dot != name.size() - 5) continue;
    char* end = nullptr;
    const uint64_t epoch = std::strtoull(name.c_str() + 11, &end, 10);
    if (end != name.c_str() + dot) continue;
    out.emplace_back(epoch, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status PruneCheckpoints(const std::string& dir, size_t keep) {
  auto checkpoints = ListCheckpoints(dir);
  if (checkpoints.size() <= keep) return Status::OK();
  for (size_t i = 0; i + keep < checkpoints.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(checkpoints[i].second, ec);
    if (ec) {
      return Status::Corruption("cannot remove checkpoint: " +
                                checkpoints[i].second);
    }
  }
  return SyncPath(dir);
}

}  // namespace adaptidx
