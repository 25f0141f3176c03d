#ifndef ADAPTIDX_ENGINE_DATABASE_H_
#define ADAPTIDX_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "engine/operators.h"
#include "engine/session.h"
#include "lock/lock_manager.h"
#include "storage/catalog.h"
#include "util/thread_pool.h"

namespace adaptidx {

/// \brief Small embedded-database facade tying the catalog, adaptive
/// indexes, the lock manager, and the shared execution pool together; this
/// is the public entry point.
///
/// Queries flow through sessions: `OpenSession` hands out a `Session` that
/// owns client/transaction identity, pins an access-method configuration,
/// and submits `Query` descriptors asynchronously (`Submit`/`SubmitBatch`,
/// executed on the database's shared thread pool) or synchronously via
/// typed wrappers. (The pre-session one-shot `Count`/`Sum`/`SumOther`
/// shims are gone; the build enforces `-Werror=deprecated-declarations` so
/// retired APIs cannot linger at call sites.)
///
/// Index life cycle follows Section 5.3: query execution latches the catalog
/// (the global structure) only to locate or register the index for a column,
/// then all further coordination happens on the index's own latches.
class Database {
 public:
  Database() = default;

  /// \brief Creates a table from a set of aligned columns.
  Status CreateTable(const std::string& name, std::vector<Column> columns);

  Table* GetTable(const std::string& name) {
    return catalog_.GetTable(name);
  }

  /// \brief Opens a session. Sessions must be closed (destroyed) before the
  /// database; closing drains the session's in-flight queries.
  std::unique_ptr<Session> OpenSession(SessionOptions opts = {});

  /// \brief The shared query-execution pool, created on first use (one
  /// thread per hardware context). Synchronous-only workloads never touch
  /// it.
  ThreadPool* pool();

  /// \brief Returns the shared adaptive index for `table`.`column` under
  /// `config`, creating it on first use. Distinct methods — or identical
  /// methods under distinguishing options (see IndexConfigKey) — coexist on
  /// the same column as distinct catalog entries, which is how benchmarks
  /// compare configurations on identical data.
  std::shared_ptr<AdaptiveIndex> GetOrCreateIndex(const std::string& table,
                                                  const std::string& column,
                                                  const IndexConfig& config);

  /// \brief Drops the index entry; adaptive indexes "can be dropped at any
  /// time" (Section 4.2).
  bool DropIndex(const std::string& table, const std::string& column,
                 const IndexConfig& config);

  Catalog* catalog() { return &catalog_; }
  LockManager* lock_manager() { return &lock_manager_; }

 private:
  static std::string IndexKey(const std::string& table,
                              const std::string& column,
                              const IndexConfig& config);

  Catalog catalog_;
  LockManager lock_manager_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_ENGINE_DATABASE_H_
