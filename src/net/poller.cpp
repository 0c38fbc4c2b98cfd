#include "net/poller.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "net/socket.hpp"

#if defined(__linux__)
#include <sys/epoll.h>
#define RESEX_NET_HAVE_EPOLL 1
#endif

namespace resex::net {
namespace {

#if RESEX_NET_HAVE_EPOLL
std::uint32_t toEpoll(std::uint32_t events) {
  std::uint32_t mask = 0;
  if (events & kReadable) mask |= EPOLLIN;
  if (events & kWritable) mask |= EPOLLOUT;
  return mask;
}

std::uint32_t fromEpoll(std::uint32_t mask) {
  std::uint32_t events = 0;
  if (mask & (EPOLLIN | EPOLLPRI)) events |= kReadable;
  if (mask & EPOLLOUT) events |= kWritable;
  if (mask & (EPOLLERR | EPOLLHUP)) events |= kError;
  return events;
}
#endif

short toPoll(std::uint32_t events) {
  short mask = 0;
  if (events & kReadable) mask |= POLLIN;
  if (events & kWritable) mask |= POLLOUT;
  return mask;
}

std::uint32_t fromPoll(short mask) {
  std::uint32_t events = 0;
  if (mask & (POLLIN | POLLPRI)) events |= kReadable;
  if (mask & POLLOUT) events |= kWritable;
  if (mask & (POLLERR | POLLHUP | POLLNVAL)) events |= kError;
  return events;
}

}  // namespace

Poller::Poller(bool forcePollBackend) {
  if (::pipe(wakePipe_) != 0)
    throw std::runtime_error("Poller: pipe() failed: " + std::to_string(errno));
  setNonBlocking(wakePipe_[0]);
  setNonBlocking(wakePipe_[1]);
#if RESEX_NET_HAVE_EPOLL
  if (!forcePollBackend) {
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    // epoll_create1 can fail (fd limits); fall through to poll() then.
  }
#else
  (void)forcePollBackend;
#endif
  add(wakePipe_[0], kReadable);
}

Poller::~Poller() {
#if RESEX_NET_HAVE_EPOLL
  if (epollFd_ >= 0) ::close(epollFd_);
#endif
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
}

void Poller::add(int fd, std::uint32_t events) {
#if RESEX_NET_HAVE_EPOLL
  if (epollFd_ >= 0) {
    struct epoll_event ev{};
    ev.events = toEpoll(events);
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    return;
  }
#endif
  interest_[fd] = events;
  pollSetDirty_ = true;
}

void Poller::mod(int fd, std::uint32_t events) {
#if RESEX_NET_HAVE_EPOLL
  if (epollFd_ >= 0) {
    struct epoll_event ev{};
    ev.events = toEpoll(events);
    ev.data.fd = fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev);
    return;
  }
#endif
  interest_[fd] = events;
  pollSetDirty_ = true;
}

void Poller::remove(int fd) {
#if RESEX_NET_HAVE_EPOLL
  if (epollFd_ >= 0) {
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    return;
  }
#endif
  interest_.erase(fd);
  pollSetDirty_ = true;
}

void Poller::wait(std::vector<PollEvent>& out, int timeoutMs) {
  out.clear();
#if RESEX_NET_HAVE_EPOLL
  if (epollFd_ >= 0) {
    struct epoll_event events[128];
    int n = ::epoll_wait(epollFd_, events, 128, timeoutMs);
    if (n < 0) {
      if (errno != EINTR)
        throw std::runtime_error("Poller: epoll_wait failed: " + std::to_string(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      PollEvent ev;
      ev.fd = events[i].data.fd;
      ev.events = fromEpoll(events[i].events);
      if (ev.fd == wakePipe_[0]) drainWake();
      out.push_back(ev);
    }
    return;
  }
#endif
  if (pollSetDirty_) {
    pollSet_.clear();
    pollSet_.reserve(interest_.size());
    for (const auto& [fd, events] : interest_) {
      struct pollfd pfd{};
      pfd.fd = fd;
      pfd.events = toPoll(events);
      pollSet_.push_back(pfd);
    }
    pollSetDirty_ = false;
  }
  int n = ::poll(pollSet_.data(), pollSet_.size(), timeoutMs);
  if (n < 0) {
    if (errno != EINTR)
      throw std::runtime_error("Poller: poll failed: " + std::to_string(errno));
    return;
  }
  for (const struct pollfd& pfd : pollSet_) {
    if (pfd.revents == 0) continue;
    PollEvent ev;
    ev.fd = pfd.fd;
    ev.events = fromPoll(pfd.revents);
    if (ev.fd == wakePipe_[0]) drainWake();
    out.push_back(ev);
  }
}

void Poller::wake() {
  const char byte = 0;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

void Poller::drainWake() {
  char buf[256];
  while (::read(wakePipe_[0], buf, sizeof buf) > 0) {
  }
}

}  // namespace resex::net
