#include "serve/net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace madpipe::serve::net {

namespace {

std::uint32_t flags_for(bool want_read, bool want_write) noexcept {
  std::uint32_t flags = EPOLLRDHUP;
  if (want_read) flags |= EPOLLIN;
  if (want_write) flags |= EPOLLOUT;
  return flags;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_.reset(::epoll_create1(0));
  if (!epoll_.valid()) {
    throw std::runtime_error(std::string("epoll_create1(): ") +
                             std::strerror(errno));
  }
  wake_fd_.reset(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) {
    throw std::runtime_error(std::string("eventfd(): ") +
                             std::strerror(errno));
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &event) != 0) {
    throw std::runtime_error(std::string("epoll_ctl(wake): ") +
                             std::strerror(errno));
  }
}

void EventLoop::add(int fd, bool want_write) {
  epoll_event event{};
  event.events = flags_for(true, want_write);
  event.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
    throw std::runtime_error(std::string("epoll_ctl(add): ") +
                             std::strerror(errno));
  }
}

void EventLoop::modify(int fd, bool want_read, bool want_write) {
  epoll_event event{};
  event.events = flags_for(want_read, want_write);
  event.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &event) != 0) {
    throw std::runtime_error(std::string("epoll_ctl(mod): ") +
                             std::strerror(errno));
  }
}

void EventLoop::remove(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::wait(std::vector<Event>& events, int timeout_ms) {
  events.clear();
  epoll_event raw[64];
  int count = 0;
  while (true) {
    count = ::epoll_wait(epoll_.get(), raw, 64, timeout_ms);
    if (count >= 0) break;
    if (errno != EINTR) return 0;
  }
  for (int i = 0; i < count; ++i) {
    if (raw[i].data.fd == wake_fd_.get()) {
      std::uint64_t drain = 0;
      // Drain the eventfd counter so coalesced wakes arm the next wait.
      while (::read(wake_fd_.get(), &drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    Event event;
    event.fd = raw[i].data.fd;
    event.readable = (raw[i].events & EPOLLIN) != 0;
    event.writable = (raw[i].events & EPOLLOUT) != 0;
    event.hangup =
        (raw[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    events.push_back(event);
  }
  return static_cast<int>(events.size());
}

void EventLoop::wake() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

}  // namespace madpipe::serve::net
