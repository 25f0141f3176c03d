#include "durability/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "storage/file_io.h"
#include "util/crc32.h"
#include "util/wire.h"

namespace adaptidx {

namespace {

constexpr char kMagic[8] = {'A', 'D', 'I', 'X', 'C', 'K', 'P', '1'};
constexpr uint32_t kFormatVersion = 1;

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

bool GetPairs(WireReader* r, std::vector<std::pair<Value, RowId>>* out) {
  uint32_t count = 0;
  if (!r->GetU32(&count)) return false;
  // Every pair occupies 12 bytes; validate before reserving so a forged
  // count cannot drive an allocation (same discipline as the wire codec).
  if (static_cast<uint64_t>(count) * 12 > r->remaining()) return false;
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Value v = 0;
    uint32_t id = 0;
    if (!r->GetI64(&v) || !r->GetU32(&id)) return false;
    out->emplace_back(v, static_cast<RowId>(id));
  }
  return true;
}

}  // namespace

Status WriteCheckpoint(const std::string& dir, const CheckpointImage& image) {
  WireWriter w;
  w.PutU32(kFormatVersion);
  w.PutU64(image.epoch);
  w.PutU32(image.next_row_id);
  w.PutString(image.column_name);
  w.PutU32(static_cast<uint32_t>(image.base_values.size()));
  for (Value v : image.base_values) w.PutI64(v);
  PutPairs(&w, image.inserts);
  PutPairs(&w, image.anti_matter);
  w.PutU8(image.has_adapted ? 1 : 0);
  if (image.has_adapted) {
    const auto& a = image.adapted;
    w.PutU32(static_cast<uint32_t>(a.values.size()));
    for (Value v : a.values) w.PutI64(v);
    for (RowId id : a.row_ids) w.PutU32(id);
    w.PutU32(static_cast<uint32_t>(a.pieces.size()));
    for (const auto& p : a.pieces) {
      w.PutU64(p.begin);
      w.PutU64(p.end);
      w.PutI64(p.lo_value);
      w.PutI64(p.hi_value);
      w.PutU8(p.sorted ? 1 : 0);
    }
  }
  const std::string payload = w.Take();

  WireWriter file;
  for (char c : kMagic) file.PutU8(static_cast<uint8_t>(c));
  file.PutU64(payload.size());
  file.PutU32(Crc32(payload.data(), payload.size()));
  std::string bytes = file.Take();
  bytes += payload;
  return AtomicWriteFile(dir + "/" + CheckpointName(image.epoch),
                         bytes.data(), bytes.size());
}

Status LoadCheckpoint(const std::string& path, CheckpointImage* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open checkpoint: " + path);
  std::string data;
  {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  }
  std::fclose(f);

  constexpr size_t kHeaderBytes = sizeof(kMagic) + 8 + 4;
  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad checkpoint header: " + path);
  }
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  {
    WireReader h(data.data() + sizeof(kMagic), 12);
    h.GetU64(&payload_len);
    h.GetU32(&crc);
  }
  if (data.size() - kHeaderBytes != payload_len) {
    return Status::Corruption("checkpoint length mismatch: " + path);
  }
  const char* payload = data.data() + kHeaderBytes;
  if (Crc32(payload, payload_len) != crc) {
    return Status::Corruption("checkpoint crc mismatch: " + path);
  }

  WireReader r(payload, payload_len);
  uint32_t version = 0;
  if (!r.GetU32(&version) || version != kFormatVersion) {
    return Status::Corruption("unknown checkpoint version: " + path);
  }
  uint32_t next_row_id = 0;
  uint32_t base_count = 0;
  bool ok = r.GetU64(&out->epoch) && r.GetU32(&next_row_id) &&
            r.GetString(&out->column_name) && r.GetU32(&base_count);
  if (!ok || static_cast<uint64_t>(base_count) * 8 > r.remaining()) {
    return Status::Corruption("bad checkpoint base header: " + path);
  }
  out->next_row_id = static_cast<RowId>(next_row_id);
  out->base_values.clear();
  out->base_values.reserve(base_count);
  for (uint32_t i = 0; ok && i < base_count; ++i) {
    Value v = 0;
    ok = r.GetI64(&v);
    out->base_values.push_back(v);
  }
  ok = ok && GetPairs(&r, &out->inserts) && GetPairs(&r, &out->anti_matter);
  uint8_t has_adapted = 0;
  ok = ok && r.GetU8(&has_adapted);
  out->has_adapted = has_adapted != 0;
  out->adapted = CrackingIndex::AdaptedState{};
  if (ok && out->has_adapted) {
    auto& a = out->adapted;
    uint32_t n = 0;
    ok = r.GetU32(&n) && static_cast<uint64_t>(n) * 12 <= r.remaining();
    if (ok) {
      a.values.reserve(n);
      a.row_ids.reserve(n);
      for (uint32_t i = 0; ok && i < n; ++i) {
        Value v = 0;
        ok = r.GetI64(&v);
        a.values.push_back(v);
      }
      for (uint32_t i = 0; ok && i < n; ++i) {
        uint32_t id = 0;
        ok = r.GetU32(&id);
        a.row_ids.push_back(static_cast<RowId>(id));
      }
    }
    uint32_t piece_count = 0;
    ok = ok && r.GetU32(&piece_count) &&
         static_cast<uint64_t>(piece_count) * 33 <= r.remaining();
    if (ok) {
      a.pieces.reserve(piece_count);
      for (uint32_t i = 0; ok && i < piece_count; ++i) {
        CrackingIndex::AdaptedPiece p;
        uint64_t begin = 0;
        uint64_t end = 0;
        uint8_t sorted = 0;
        ok = r.GetU64(&begin) && r.GetU64(&end) && r.GetI64(&p.lo_value) &&
             r.GetI64(&p.hi_value) && r.GetU8(&sorted);
        p.begin = begin;
        p.end = end;
        p.sorted = sorted != 0;
        a.pieces.push_back(p);
      }
    }
  }
  if (!ok || !r.Exhausted()) {
    return Status::Corruption("malformed checkpoint payload: " + path);
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
