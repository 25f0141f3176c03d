#include "storage/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace adaptidx {

namespace {
constexpr char kMagic[8] = {'A', 'D', 'I', 'X', 'C', 'O', 'L', '1'};
}  // namespace

Status WriteColumn(const Column& column, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for write: " + path);
  }
  const uint64_t count = column.size();
  bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f) == 1;
  ok = ok && std::fwrite(&count, sizeof(count), 1, f) == 1;
  if (count > 0) {
    ok = ok && std::fwrite(column.data(), sizeof(Value), count, f) == count;
  }
  ok = ok && std::fclose(f) == 0;
  if (!ok) return Status::Corruption("short write: " + path);
  return Status::OK();
}

Status ReadColumn(const std::string& path, const std::string& name,
                  Column* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  char magic[8];
  uint64_t count = 0;
  bool ok = std::fread(magic, sizeof(magic), 1, f) == 1;
  ok = ok && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
  ok = ok && std::fread(&count, sizeof(count), 1, f) == 1;
  if (!ok) {
    std::fclose(f);
    return Status::Corruption("bad column header: " + path);
  }
  std::vector<Value> values(count);
  if (count > 0 && std::fread(values.data(), sizeof(Value), count, f) !=
                       count) {
    std::fclose(f);
    return Status::Corruption("truncated column body: " + path);
  }
  // Trailing garbage means the file was not written by WriteColumn.
  char extra;
  if (std::fread(&extra, 1, 1, f) == 1) {
    std::fclose(f);
    return Status::Corruption("trailing bytes: " + path);
  }
  std::fclose(f);
  *out = Column(name, std::move(values));
  return Status::OK();
}

Status WriteTable(const Table& table, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::InvalidArgument("cannot create dir: " + dir);
  std::ofstream manifest(dir + "/manifest.txt", std::ios::trunc);
  if (!manifest) {
    return Status::InvalidArgument("cannot write manifest in " + dir);
  }
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Column* col = table.GetColumnAt(i);
    Status s = WriteColumn(*col, dir + "/" + col->name() + ".col");
    if (!s.ok()) return s;
    manifest << col->name() << "\n";
  }
  manifest.close();
  if (!manifest) return Status::Corruption("manifest write failed: " + dir);
  return Status::OK();
}

Status ReadTable(const std::string& dir, const std::string& table_name,
                 std::unique_ptr<Table>* out) {
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) return Status::NotFound("no manifest in " + dir);
  auto table = std::make_unique<Table>(table_name);
  std::string name;
  while (std::getline(manifest, name)) {
    if (name.empty()) continue;
    Column col;
    Status s = ReadColumn(dir + "/" + name + ".col", name, &col);
    if (!s.ok()) return s;
    s = table->AddColumn(std::move(col));
    if (!s.ok()) return s;
  }
  *out = std::move(table);
  return Status::OK();
}

Status SyncFd(int fd) {
  int rc;
  do {
#if defined(__APPLE__)
    rc = ::fsync(fd);
#else
    rc = ::fdatasync(fd);
#endif
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Status::Corruption(std::string("fdatasync failed: ") +
                              std::strerror(errno));
  }
  return Status::OK();
}

Status SyncPath(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::NotFound("cannot open for sync: " + path);
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Corruption("fsync failed: " + path + ": " +
                              std::strerror(saved));
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path,
                       const std::vector<FilePart>& parts) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd;
  do {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open for write: " + tmp);
  }
  for (const FilePart& part : parts) {
    const uint8_t* p = static_cast<const uint8_t*>(part.data);
    size_t left = part.size;
    while (left > 0) {
      ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::unlink(tmp.c_str());
        return Status::Corruption("short write: " + tmp);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
  }
  // Full fsync, not fdatasync: the temp file is new, so its metadata (the
  // size) must be durable before the rename can publish it.
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 || ::close(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Corruption("fsync failed: " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Corruption("rename failed: " + tmp + " -> " + path);
  }
  // Make the rename itself durable.
  const auto parent = std::filesystem::path(path).parent_path();
  return SyncPath(parent.empty() ? "." : parent.string());
}

}  // namespace adaptidx
