// A small level-triggered epoll wrapper: fd registration, one-shot waits,
// and a thread-safe wake() (eventfd) so other threads can interrupt a
// blocking wait.
#pragma once

#include <vector>

#include "util/net.hpp"

namespace madpipe::serve::net {

struct Event {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool hangup = false;  ///< EPOLLHUP / EPOLLERR / EPOLLRDHUP
};

class EventLoop {
 public:
  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for readability and (optionally) writability.
  /// Throws std::runtime_error on epoll_ctl failure.
  void add(int fd, bool want_write = false);
  /// Change the interest set of an already-registered fd. Dropping read
  /// interest is how the server applies write backpressure to a client that
  /// keeps sending while its responses back up.
  void modify(int fd, bool want_read, bool want_write);
  /// Deregister; safe to call for fds that were never added.
  void remove(int fd);

  /// Block up to `timeout_ms` (-1 = forever) and collect ready events into
  /// `events` (cleared first). A wake() shows up as a timely return with the
  /// wake consumed and no event entry. Returns the number of fd events.
  int wait(std::vector<Event>& events, int timeout_ms);

  /// Interrupt a concurrent wait(). Callable from any thread, async-signal
  /// safe (a single write on an eventfd).
  void wake() noexcept;

 private:
  madpipe::net::FdGuard epoll_;
  madpipe::net::FdGuard wake_fd_;
};

}  // namespace madpipe::serve::net
