#ifndef ADAPTIDX_SERVER_EVENT_LOOP_H_
#define ADAPTIDX_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.h"

namespace adaptidx {
namespace server {

/// \brief Single-threaded poll(2) reactor: the server's one I/O thread.
///
/// All file descriptors and their callbacks are owned by the loop thread;
/// the only cross-thread entry points are `Post` (enqueue a closure the
/// loop runs at the top of its next iteration, waking it via a pipe) and
/// `Stop`. Everything else — `Register`/`EnableWrite`/`Unregister` and the
/// I/O callbacks themselves — must run on the loop thread, which is what
/// makes per-connection state machines plain unsynchronized code.
///
/// Engine worker threads never touch a socket: they `Post` the encoded
/// response bytes back here, and the loop writes them out. That keeps the
/// thread-safety story one sentence long and leaves the engine pool free
/// of blocking socket I/O.
class EventLoop {
 public:
  /// \brief Readiness callback; `readable`/`writable` mirror poll revents
  /// (POLLHUP/POLLERR are folded into `readable` so the handler observes
  /// EOF through its read).
  using IoCallback = std::function<void(bool readable, bool writable)>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief Creates the wake pipe; must precede `Run`.
  Status Init();

  /// \brief Runs the reactor on the calling thread until `Stop`. Pending
  /// posted closures are drained before each poll.
  void Run();

  /// \brief Requests loop exit; thread-safe and idempotent. The loop
  /// finishes its current iteration (running already-posted closures).
  void Stop();

  /// \brief Enqueues a closure for the loop thread and wakes it;
  /// thread-safe. Closures posted after the loop stopped are discarded on
  /// destruction without running.
  void Post(std::function<void()> fn);

  /// \brief Registers `fd` for read readiness with `cb`. Loop thread only.
  void Register(int fd, IoCallback cb);

  /// \brief Adds/removes write-readiness interest for `fd`. Loop thread
  /// only.
  void EnableWrite(int fd, bool enable);

  /// \brief Drops `fd` from the poll set (the caller closes it). Loop
  /// thread only; safe to call from inside `fd`'s own callback.
  void Unregister(int fd);

  /// \brief Installs a hook run on the loop thread once per iteration,
  /// after the posted closures and before `poll`; a non-negative return
  /// value caps that poll's timeout in ms. Call before `Run`.
  void SetTimer(std::function<int()> hook) { timer_ = std::move(hook); }

  /// \brief True when called on the thread currently inside `Run`.
  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_tid_.load();
  }

 private:
  struct FdEntry {
    IoCallback cb;
    bool want_write = false;
  };

  void DrainWakePipe();
  void RunPosted();

  int wake_fds_[2] = {-1, -1};  // [0] read end polled, [1] written by Post
  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> loop_tid_{};

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;

  std::unordered_map<int, FdEntry> fds_;  // loop thread only
  std::function<int()> timer_;            // loop thread only
};

}  // namespace server
}  // namespace adaptidx

#endif  // ADAPTIDX_SERVER_EVENT_LOOP_H_
