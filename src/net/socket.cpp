#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace resex::net {

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int makeListener(const std::string& host, std::uint16_t port, bool tryReusePort,
                 bool& reusePortOk) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("net: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  reusePortOk = false;
  if (tryReusePort) {
#ifdef SO_REUSEPORT
    reusePortOk =
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) == 0;
#endif
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("net: bad listen address " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("net: cannot listen on " + host + ":" +
                             std::to_string(port) + ": " + std::strerror(err));
  }
  setNonBlocking(fd);
  return fd;
}

std::uint16_t boundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

int acceptOne(int listenFd) {
#if defined(__linux__)
  const int fd =
      ::accept4(listenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
#else
  const int fd = ::accept(listenFd, nullptr, nullptr);
  if (fd >= 0) setNonBlocking(fd);
#endif
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

}  // namespace resex::net
