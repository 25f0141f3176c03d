#include "server/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <utility>

namespace adaptidx {
namespace server {

EventLoop::~EventLoop() {
  for (int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

Status EventLoop::Init() {
  if (::pipe(wake_fds_) != 0) {
    return Status::Corruption("event loop: pipe() failed");
  }
  for (int fd : wake_fds_) {
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  return Status::OK();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  // Self-pipe wake-up so a loop parked in poll() notices immediately.
  const char byte = 0;
  if (wake_fds_[1] >= 0) {
    ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
    (void)ignored;
  }
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    posted_.push_back(std::move(fn));
  }
  const char byte = 0;
  if (wake_fds_[1] >= 0) {
    ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
    (void)ignored;
  }
}

void EventLoop::Register(int fd, IoCallback cb) {
  fds_[fd] = FdEntry{std::move(cb), false};
}

void EventLoop::EnableWrite(int fd, bool enable) {
  auto it = fds_.find(fd);
  if (it != fds_.end()) it->second.want_write = enable;
}

void EventLoop::Unregister(int fd) { fds_.erase(fd); }

void EventLoop::DrainWakePipe() {
  char buf[256];
  while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::Run() {
  loop_tid_.store(std::this_thread::get_id());
  std::vector<struct pollfd> pfds;
  // (fd, readable, writable) snapshot: callbacks may mutate fds_ (close
  // peers, register accepted connections), so readiness is dispatched off
  // a copy with a liveness re-check per fd.
  std::vector<std::pair<int, std::pair<bool, bool>>> ready;
  while (!stop_.load(std::memory_order_acquire)) {
    RunPosted();
    if (stop_.load(std::memory_order_acquire)) break;
    int timeout_ms = 1000;
    if (timer_) {
      const int cap = timer_();
      if (cap >= 0 && cap < timeout_ms) timeout_ms = cap;
    }

    pfds.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    for (const auto& [fd, entry] : fds_) {
      short events = POLLIN;
      if (entry.want_write) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
    }

    const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure: exit rather than spin
    }
    if (pfds[0].revents != 0) DrainWakePipe();

    ready.clear();
    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      // Fold HUP/ERR into readability: the handler's read() observes EOF
      // or the error and tears the connection down on its normal path.
      const bool readable =
          (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      const bool writable = (pfds[i].revents & POLLOUT) != 0;
      ready.emplace_back(pfds[i].fd, std::make_pair(readable, writable));
    }
    for (const auto& [fd, rw] : ready) {
      auto it = fds_.find(fd);
      if (it == fds_.end()) continue;  // closed by an earlier callback
      // Copy the callback: the entry may be unregistered mid-call.
      IoCallback cb = it->second.cb;
      cb(rw.first, rw.second);
    }
  }
  RunPosted();  // closures posted alongside Stop still run once
  loop_tid_.store(std::thread::id());
}

}  // namespace server
}  // namespace adaptidx
