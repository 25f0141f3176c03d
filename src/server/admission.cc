#include "server/admission.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

namespace adaptidx {
namespace server {

const char* ToString(OverloadState state) {
  switch (state) {
    case OverloadState::kNormal:
      return "normal";
    case OverloadState::kElevated:
      return "elevated";
    case OverloadState::kCritical:
      return "critical";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionOptions opts)
    : opts_(opts) {
  opts_.global_inflight = std::max<size_t>(1, opts_.global_inflight);
  opts_.per_connection_inflight =
      std::max<size_t>(1, opts_.per_connection_inflight);
  // Eager first sample: the STATS gauge reads sensibly before the first
  // re-sample window elapses.
  rss_bytes_.store(ReadRssBytes(), std::memory_order_relaxed);
}

size_t AdmissionController::ReadRssBytes() {
  // /proc/self/statm: size resident shared text lib data dt (pages).
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return static_cast<size_t>(resident_pages) *
         static_cast<size_t>(page > 0 ? page : 4096);
}

void AdmissionController::UpdateGaugeLocked() {
  const size_t cap = opts_.global_inflight;
  const size_t rss = rss_bytes_.load(std::memory_order_relaxed);
  OverloadState s = OverloadState::kNormal;
  if (global_ >= cap ||
      (opts_.max_rss_bytes != 0 && rss >= opts_.max_rss_bytes)) {
    s = OverloadState::kCritical;
  } else if (static_cast<double>(global_) >=
             kElevatedFraction * static_cast<double>(cap)) {
    s = OverloadState::kElevated;
  }
  state_.store(static_cast<uint8_t>(s), std::memory_order_relaxed);
}

bool AdmissionController::TryAdmit(uint64_t conn_id, size_t n) {
  if (n == 0) return true;
  std::lock_guard<std::mutex> lk(mu_);
  // Resource monitor: re-sample RSS every few decisions, not per request.
  if (opts_.max_rss_bytes != 0 &&
      ++admits_since_rss_sample_ >= kRssSamplePeriod) {
    admits_since_rss_sample_ = 0;
    rss_bytes_.store(ReadRssBytes(), std::memory_order_relaxed);
  }
  const size_t rss = rss_bytes_.load(std::memory_order_relaxed);
  const bool rss_critical =
      opts_.max_rss_bytes != 0 && rss >= opts_.max_rss_bytes;
  size_t& mine = per_conn_[conn_id];
  const bool fits = !rss_critical &&
                    global_ + n <= opts_.global_inflight &&
                    mine + n <= opts_.per_connection_inflight;
  if (!fits) {
    if (mine == 0) per_conn_.erase(conn_id);
    shed_total_.fetch_add(n, std::memory_order_relaxed);
    UpdateGaugeLocked();
    return false;
  }
  mine += n;
  global_ += n;
  admitted_total_.fetch_add(n, std::memory_order_relaxed);
  UpdateGaugeLocked();
  return true;
}

void AdmissionController::Release(uint64_t conn_id, size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  global_ -= std::min(global_, n);
  auto it = per_conn_.find(conn_id);
  if (it != per_conn_.end()) {
    it->second -= std::min(it->second, n);
    if (it->second == 0) per_conn_.erase(it);
  }
  UpdateGaugeLocked();
}

size_t AdmissionController::global_in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return global_;
}

size_t AdmissionController::connection_in_flight(uint64_t conn_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = per_conn_.find(conn_id);
  return it != per_conn_.end() ? it->second : 0;
}

}  // namespace server
}  // namespace adaptidx
