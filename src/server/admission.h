#ifndef ADAPTIDX_SERVER_ADMISSION_H_
#define ADAPTIDX_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace adaptidx {
namespace server {

/// \brief Three-state overload gauge driven by the resource monitor:
/// normal operation, elevated pressure (the shed threshold is in sight),
/// and critical (every new request is shed until in-flight work drains or
/// memory recedes).
enum class OverloadState : uint8_t {
  kNormal = 0,
  kElevated = 1,
  kCritical = 2,
};

/// \brief Display name of an overload state ("normal", ...).
const char* ToString(OverloadState state);

/// \brief Admission-control tuning knobs.
struct AdmissionOptions {
  /// Global in-flight request cap across all connections: requests beyond
  /// it are shed with SERVER_BUSY instead of queueing into the engine
  /// pool, so latch/thread-pool pressure never builds behind the socket
  /// layer. Minimum 1.
  size_t global_inflight = 256;
  /// Per-connection in-flight cap — the fairness backstop: one firehose
  /// connection can occupy at most this many global slots, leaving the
  /// rest for everyone else. Minimum 1.
  size_t per_connection_inflight = 32;
  /// Resident-set ceiling in bytes; 0 disables the memory monitor. While
  /// sampled RSS is at or above the ceiling the gauge reads kCritical and
  /// everything is shed.
  size_t max_rss_bytes = 0;
};

/// \brief Bounded-queue admission control with per-connection fairness and
/// a queue-depth + RSS resource monitor.
///
/// The server consults `TryAdmit` before mapping a frame onto the engine;
/// a refusal becomes a SERVER_BUSY response immediately — load is shed at
/// the admission edge, before any thread-pool queue or latch wait absorbs
/// it, which is what keeps tail latency of *admitted* requests bounded
/// when offered load exceeds capacity. `Release` returns the slots when
/// the request is answered, times out, or its connection is gone when
/// its late answer arrives.
///
/// Thread-safety: fully synchronized. The server calls `TryAdmit` and
/// `Release` on its I/O loop thread; the gauges are read from any thread.
class AdmissionController {
 public:
  /// \brief Clamps the caps to at least 1 and starts in kNormal.
  explicit AdmissionController(AdmissionOptions opts);

  /// \brief In-flight fraction of `global_inflight` at which the gauge
  /// leaves kNormal for kElevated.
  static constexpr double kElevatedFraction = 0.75;

  /// \brief With a memory ceiling set, RSS is re-sampled from /proc once
  /// per this many admission decisions (a procfs read per request would
  /// dominate point queries).
  static constexpr size_t kRssSamplePeriod = 64;

  /// \brief Attempts to admit `n` requests for connection `conn_id`
  /// (all-or-nothing, so a BATCH is one admission unit). On refusal the
  /// shed counter advances and the caller must answer SERVER_BUSY.
  bool TryAdmit(uint64_t conn_id, size_t n = 1);

  /// \brief Returns `n` slots of `conn_id`; the per-connection entry is
  /// dropped when it reaches zero (closed connections leave no residue).
  void Release(uint64_t conn_id, size_t n = 1);

  /// \brief Current gauge value (recomputed on every admission decision).
  OverloadState state() const {
    return static_cast<OverloadState>(state_.load(std::memory_order_relaxed));
  }

  uint64_t shed_total() const {  ///< \brief Requests refused since start.
    return shed_total_.load(std::memory_order_relaxed);
  }
  uint64_t admitted_total() const {  ///< \brief Requests admitted since start.
    return admitted_total_.load(std::memory_order_relaxed);
  }

  /// \brief Currently admitted (in-flight) requests across connections.
  size_t global_in_flight() const;

  /// \brief In-flight requests of one connection (0 when unknown).
  size_t connection_in_flight(uint64_t conn_id) const;

  /// \brief Last sampled resident-set size in bytes (0 before the first
  /// sample or when procfs is unavailable).
  size_t sampled_rss_bytes() const {
    return rss_bytes_.load(std::memory_order_relaxed);
  }

  /// \brief Reads the current RSS from /proc/self/statm (0 on failure);
  /// exposed for tests and the resource-monitor stats.
  static size_t ReadRssBytes();

  const AdmissionOptions& options() const { return opts_; }  ///< \brief Tuning in effect.

 private:
  void UpdateGaugeLocked();

  AdmissionOptions opts_;
  mutable std::mutex mu_;
  size_t global_ = 0;
  std::unordered_map<uint64_t, size_t> per_conn_;
  size_t admits_since_rss_sample_ = 0;

  std::atomic<uint8_t> state_{0};
  std::atomic<uint64_t> shed_total_{0};
  std::atomic<uint64_t> admitted_total_{0};
  std::atomic<size_t> rss_bytes_{0};
};

}  // namespace server
}  // namespace adaptidx

#endif  // ADAPTIDX_SERVER_ADMISSION_H_
