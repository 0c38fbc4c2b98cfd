// Socket helpers shared by every event loop in the process: the RPC
// server and client (net/) and the HTTP introspection plane (obs/http).
// IPv4 TCP only; failures that leave no usable socket throw
// std::runtime_error.
#pragma once

#include <cstdint>
#include <string>

namespace resex::net {

/// Sets O_NONBLOCK on `fd`.
void setNonBlocking(int fd);

/// Binds a non-blocking listener on host:port (dotted-quad host; port 0
/// picks an ephemeral one). `tryReusePort` requests SO_REUSEPORT;
/// `reusePortOk` reports whether the kernel granted it.
int makeListener(const std::string& host, std::uint16_t port, bool tryReusePort,
                 bool& reusePortOk);

/// The local port `fd` is bound to (0 when unknown).
std::uint16_t boundPort(int fd);

/// Accepts one pending connection as a non-blocking fd with TCP_NODELAY
/// set; returns -1 with errno set (EAGAIN when none is pending).
int acceptOne(int listenFd);

}  // namespace resex::net
