#ifndef ADAPTIDX_CRACKING_SIDEWAYS_H_
#define ADAPTIDX_CRACKING_SIDEWAYS_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/adaptive_index.h"
#include "latch/wait_queue_latch.h"
#include "storage/column.h"

namespace adaptidx {

/// \brief One record of a cracker map: the selection value, the projected
/// value, and the original row id.
struct MapEntry {
  Value a;
  Value b;
  RowId row_id;
};

/// \brief Sideways cracking [22] (mentioned in Section 5 as the evolution of
/// selection cracking toward multi-column plans): a *cracker map* stores
/// aligned (A, B) pairs and physically reorganizes them on A as a side
/// effect of queries, so that `sum(B) where lo <= A < hi` reads B
/// contiguously from the qualifying stretch — no post-selection positional
/// fetches into the base column, hence no random access.
///
/// The paper's experiments cover selection cracking only ("for simplicity
/// of presentation"); this module is the natural extension exercised by the
/// two-column plan of Figure 6. Concurrency uses the column-latch protocol
/// of Section 5.3 (one WaitQueueLatch over the map: crack selects are
/// exclusive, aggregations share); the piece-grained refinement of the
/// selection cracker applies to maps identically and is evaluated there.
class SidewaysIndex : public AdaptiveIndex {
 public:
  /// \brief `a` is the selection column, `b` the aggregated column; they
  /// must be positionally aligned (same table).
  SidewaysIndex(const Column* a, const Column* b,
                std::string name = "sideways");

  std::string Name() const override { return name_; }

  /// \brief The cracker-map specialty: sum(B) where lo <= A < hi, read
  /// contiguously from the map. Unlike single-column methods, the map holds
  /// its second column, so kSumOther executes natively through `Execute`;
  /// this wrapper mirrors the base class's per-kind conveniences.
  Status RangeSumOther(const ValueRange& range, QueryContext* ctx,
                       int64_t* sum_b);

  size_t NumPieces() const override;
  size_t NumCracks() const;
  bool initialized() const {
    return initialized_.load(std::memory_order_acquire);
  }

  /// \brief Structural invariants; requires a quiesced index.
  bool ValidateStructure() const;

 protected:
  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;

 private:
  /// Accessor over the map entries for the shared crack kernels; cracks
  /// order by the selection value A.
  class Accessor {
   public:
    explicit Accessor(MapEntry* d) : d_(d) {}
    Value ValueAt(Position i) const { return d_[i].a; }
    void Swap(Position i, Position j) { std::swap(d_[i], d_[j]); }

   private:
    MapEntry* d_;
  };

  void EnsureInitialized(QueryContext* ctx);

  /// Resolves one bound to its crack position, cracking under the caller's
  /// exclusive latch.
  Position ResolveBoundLocked(Value v, QueryContext* ctx);

  /// Resolves both bounds (crack-in-three when they share a piece) under a
  /// single exclusive acquisition; returns the qualifying stretch.
  void CrackSelect(const ValueRange& range, QueryContext* ctx, Position* lo,
                   Position* hi);

  const Column* a_;
  const Column* b_;
  const std::string name_;

  std::atomic<bool> initialized_{false};
  mutable std::shared_mutex structure_mu_;  // guards cracks_
  mutable WaitQueueLatch latch_{SchedulingPolicy::kFifo};
  std::vector<MapEntry> entries_;
  /// Table of contents: a crack on value v at position p means every entry
  /// before p has a < v and every entry at or after p has a >= v.
  std::map<Value, Position> cracks_;
  Value domain_lo_ = 0;
  Value domain_hi_ = 0;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CRACKING_SIDEWAYS_H_
