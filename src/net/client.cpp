#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/socket.hpp"

namespace resex::net {

Client::Client(std::string host, std::uint16_t port, FrameLimits limits)
    : host_(std::move(host)), port_(port), limits_(limits), reader_(limits) {}

Client::~Client() { close(); }

void Client::connect() {
  if (fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("net::Client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("net::Client: bad address " + host_);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("net::Client: connect failed: " +
                             std::string(std::strerror(err)));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  setNonBlocking(fd);
  fd_ = fd;
  reader_ = FrameReader(limits_);
  sendBuffer_.clear();
  sendOffset_ = 0;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t Client::send(const QueryRequest& request) {
  // Enforce the term-count policy before encoding: the encoder would
  // clamp silently, and the server answers an over-limit query with
  // kBadRequest and keeps counting it against the connection — failing
  // here is the debuggable version of both.
  if (request.terms.size() > limits_.maxTerms)
    throw std::invalid_argument(
        "net::Client: query has " + std::to_string(request.terms.size()) +
        " terms, limit " + std::to_string(limits_.maxTerms));
  const std::uint64_t id = nextRequestId_++;
  encodeQueryFrame(id, request, sendBuffer_);
  return id;
}

bool Client::flush() {
  if (fd_ < 0) throw std::runtime_error("net::Client: not connected");
  while (sendOffset_ < sendBuffer_.size()) {
    const ssize_t n = ::send(fd_, sendBuffer_.data() + sendOffset_,
                             sendBuffer_.size() - sendOffset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      close();
      throw std::runtime_error("net::Client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    sendOffset_ += static_cast<std::size_t>(n);
  }
  sendBuffer_.clear();
  sendOffset_ = 0;
  return true;
}

bool Client::drain(std::vector<Reply>& out) {
  if (fd_ < 0) return false;
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      reader_.feed(buf, static_cast<std::size_t>(n));
      while (const std::optional<ParsedFrame> frame = reader_.next()) {
        Reply reply;
        reply.requestId = frame->requestId;
        reply.type = frame->type;
        if (frame->type == FrameType::kResult) {
          std::optional<QueryResponse> response =
              decodeResultBody(frame->body, limits_);
          if (!response) {
            close();
            return false;
          }
          reply.response = std::move(*response);
        } else if (frame->type == FrameType::kError) {
          std::optional<ErrorBody> error = decodeErrorBody(frame->body);
          if (!error) {
            close();
            return false;
          }
          reply.error = std::move(*error);
        } else {
          close();
          return false;
        }
        out.push_back(std::move(reply));
      }
      if (reader_.poisoned()) {
        close();
        return false;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return true;
      continue;
    }
    if (n == 0) {  // server closed
      close();
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    close();
    return false;
  }
}

bool Client::wait(std::vector<Reply>& out, int timeoutMs) {
  const std::size_t had = out.size();
  while (fd_ >= 0) {
    flush();
    struct pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (pendingSendBytes() > 0) pfd.events |= POLLOUT;
    const int n = ::poll(&pfd, 1, timeoutMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      close();
      return false;
    }
    if (n == 0) return false;  // timeout
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!drain(out)) return out.size() > had;
      if (out.size() > had) return true;
    }
  }
  return false;
}

QueryResponse Client::call(const QueryRequest& request, int timeoutMs) {
  const std::uint64_t id = send(request);
  std::vector<Reply> replies;
  while (true) {
    if (!wait(replies, timeoutMs))
      throw std::runtime_error("net::Client: call timed out or connection closed");
    for (Reply& reply : replies) {
      if (reply.requestId != id) continue;  // stale pipelined reply
      if (reply.type == FrameType::kError)
        throw std::runtime_error("net::Client: server error " +
                                 std::to_string(static_cast<int>(reply.error.code)) +
                                 ": " + reply.error.message);
      return std::move(reply.response);
    }
    replies.clear();
  }
}

}  // namespace resex::net
