#include "engine/database.h"

#include <algorithm>
#include <thread>

namespace adaptidx {

Status Database::CreateTable(const std::string& name,
                             std::vector<Column> columns) {
  auto table = std::make_unique<Table>(name);
  for (auto& col : columns) {
    Status s = table->AddColumn(std::move(col));
    if (!s.ok()) return s;
  }
  return catalog_.AddTable(std::move(table));
}

std::unique_ptr<Session> Database::OpenSession(SessionOptions opts) {
  // The pool is bound lazily inside Session::Submit, so opening a session
  // for synchronous use starts no worker threads.
  return std::unique_ptr<Session>(new Session(
      this, nullptr, nullptr, std::move(opts), Session::NextSessionId()));
}

ThreadPool* Database::pool() {
  std::call_once(pool_once_, [this] {
    const size_t n =
        std::max<size_t>(2, std::thread::hardware_concurrency());
    pool_ = std::make_unique<ThreadPool>(n);
  });
  return pool_.get();
}

std::string Database::IndexKey(const std::string& table,
                               const std::string& column,
                               const IndexConfig& config) {
  return table + "/" + column + "#" + IndexConfigKey(config);
}

std::shared_ptr<AdaptiveIndex> Database::GetOrCreateIndex(
    const std::string& table, const std::string& column,
    const IndexConfig& config) {
  Table* t = catalog_.GetTable(table);
  if (t == nullptr) return nullptr;
  const Column* col = t->GetColumn(column);
  if (col == nullptr) return nullptr;
  // Partitioned indexes fan query fragments out on the database's shared
  // pool (claim-based, so a pool-resident query fanning out to the same
  // pool cannot deadlock); the pool pointer is an execution resource and
  // deliberately not part of the catalog key.
  IndexConfig effective = config;
  if (effective.partitions > 1 && effective.pool == nullptr) {
    effective.pool = pool();
  }
  auto entry = catalog_.GetOrCreateIndexEntry(
      IndexKey(table, column, effective),
      [col, &effective]() -> std::shared_ptr<void> {
        return std::shared_ptr<void>(MakeIndex(col, effective).release(),
                                     [](void* p) {
                                       delete static_cast<AdaptiveIndex*>(p);
                                     });
      });
  return std::shared_ptr<AdaptiveIndex>(
      entry, static_cast<AdaptiveIndex*>(entry.get()));
}

bool Database::DropIndex(const std::string& table, const std::string& column,
                         const IndexConfig& config) {
  return catalog_.DropIndexEntry(IndexKey(table, column, config));
}

}  // namespace adaptidx
