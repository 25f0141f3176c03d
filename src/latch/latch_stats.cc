#include "latch/latch_stats.h"

#include <cstdio>

namespace adaptidx {

std::string LatchStats::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "reads=%llu (blocked %llu, %.3f ms) writes=%llu (blocked %llu, "
      "%.3f ms) try_failures=%llu "
      "pcracks=%llu (chunks %llu, merge %.3f ms) coarse_sorts=%llu "
      "snapshots=%llu (lag %llu, max %llu) deltas=%llu (chain max %llu) "
      "consolidations=%llu (folded %llu)",
      static_cast<unsigned long long>(read_acquires()),
      static_cast<unsigned long long>(read_conflicts()),
      static_cast<double>(read_wait_ns()) / 1e6,
      static_cast<unsigned long long>(write_acquires()),
      static_cast<unsigned long long>(write_conflicts()),
      static_cast<double>(write_wait_ns()) / 1e6,
      static_cast<unsigned long long>(try_failures()),
      static_cast<unsigned long long>(parallel_cracks()),
      static_cast<unsigned long long>(parallel_crack_chunks()),
      static_cast<double>(parallel_crack_merge_ns()) / 1e6,
      static_cast<unsigned long long>(coarse_sort_hits()),
      static_cast<unsigned long long>(snapshot_reads()),
      static_cast<unsigned long long>(snapshot_epoch_lag()),
      static_cast<unsigned long long>(snapshot_max_epoch_lag()),
      static_cast<unsigned long long>(delta_publishes()),
      static_cast<unsigned long long>(delta_chain_max()),
      static_cast<unsigned long long>(consolidations()),
      static_cast<unsigned long long>(consolidated_deltas()));
  return std::string(buf);
}

}  // namespace adaptidx
