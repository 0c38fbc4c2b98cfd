#include "obs/http.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <unordered_map>

#include "net/socket.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "util/log.hpp"

namespace resex::obs {

namespace {

const char* statusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    default: return "Internal Server Error";
  }
}

/// Serialises status line + headers + body. `includeBody=false` (HEAD)
/// still advertises the GET-equivalent Content-Length, per RFC 9110.
std::string renderResponse(const HttpResponse& response,
                           bool includeBody = true) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    statusText(response.status) + "\r\n";
  out += "Content-Type: " + response.contentType + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (includeBody) out += response.body;
  return out;
}

}  // namespace

/// One client connection's read/write state. Requests are head-only (GET
/// with no body), so reading until "\r\n\r\n" or the size bound is the
/// whole parse; the response is buffered and drained as the socket allows.
struct HttpServer::Connection {
  std::string inbox;
  std::string outbox;
  std::size_t sent = 0;
  bool responding = false;
};

HttpServer::HttpServer(std::uint16_t port) {
  bool reusePort = false;
  listenFd_ = net::makeListener("127.0.0.1", port, false, reusePort);
  port_ = net::boundPort(listenFd_);
  poller_.add(listenFd_, net::kReadable);
}

HttpServer::~HttpServer() {
  stop();
  if (listenFd_ >= 0) ::close(listenFd_);
}

void HttpServer::handle(std::string path, HttpHandler handler) {
  routes_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopRequested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serveLoop(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  stopRequested_.store(true, std::memory_order_release);
  poller_.wake();
  if (thread_.joinable()) thread_.join();
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) const {
  if (request.method != "GET" && request.method != "HEAD")
    return HttpResponse::text("method not allowed\n", 405);
  for (const auto& [path, handler] : routes_)
    if (path == request.path) return handler(request);
  return HttpResponse::notFound();
}

bool HttpServer::readRequest(int fd, Connection& conn) {
  char buf[2048];
  bool peerClosed = false;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      conn.inbox.append(buf, static_cast<std::size_t>(n));
      if (conn.inbox.size() > kMaxRequestBytes) break;
      continue;
    }
    peerClosed = n == 0;
    break;
  }
  if (conn.inbox.size() > kMaxRequestBytes) {
    conn.outbox = renderResponse(HttpResponse::text("request too large\n", 431));
    conn.responding = true;
  } else if (conn.inbox.find("\r\n\r\n") != std::string::npos) {
    // Parse the request line; headers are read and ignored.
    const std::string line = conn.inbox.substr(0, conn.inbox.find("\r\n"));
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      conn.outbox = renderResponse(HttpResponse::text("bad request\n", 400));
    } else {
      HttpRequest request;
      request.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      if (const std::size_t qm = target.find('?'); qm != std::string::npos) {
        request.query = target.substr(qm + 1);
        target.resize(qm);
      }
      request.path = std::move(target);
      HttpResponse response;
      try {
        response = dispatch(request);
      } catch (const std::exception& e) {
        response = HttpResponse::text(
            std::string("handler error: ") + e.what() + "\n", 500);
      }
      conn.outbox = renderResponse(response, request.method != "HEAD");
      requests_.fetch_add(1, std::memory_order_relaxed);
    }
    conn.responding = true;
  }
  // A peer that closed without completing a request head will never
  // complete one; reap instead of polling it forever.
  return !(peerClosed && !conn.responding);
}

void HttpServer::serveLoop() {
  std::unordered_map<int, Connection> connections;  ///< by fd
  std::vector<net::PollEvent> events;
  const auto drop = [&](int fd) {
    poller_.remove(fd);
    ::close(fd);
    connections.erase(fd);
  };
  while (!stopRequested_.load(std::memory_order_acquire)) {
    // No idle timeout: stop() wakes the poller, so an idle server parks in
    // the kernel instead of spinning awake.
    try {
      poller_.wait(events);
    } catch (const std::runtime_error& e) {
      RESEX_LOG_ERROR("obs.http: %s", e.what());
      break;
    }
    for (const net::PollEvent& ev : events) {
      if (ev.fd == poller_.wakeFd()) continue;
      if (ev.fd == listenFd_) {
        for (;;) {
          const int client = net::acceptOne(listenFd_);
          if (client < 0) break;
          connections.emplace(client, Connection{});
          poller_.add(client, net::kReadable);
        }
        continue;
      }
      const auto it = connections.find(ev.fd);
      if (it == connections.end()) continue;
      Connection& conn = it->second;
      if (ev.events & net::kError) {
        drop(ev.fd);
        continue;
      }
      if (!conn.responding && (ev.events & net::kReadable)) {
        if (!readRequest(ev.fd, conn)) {
          drop(ev.fd);
          continue;
        }
        if (!conn.responding) continue;
        poller_.mod(ev.fd, net::kWritable);
      }
      // MSG_NOSIGNAL: a peer that disconnects mid-response must surface as
      // EPIPE here, not raise SIGPIPE and kill the whole process.
      const ssize_t n = ::send(ev.fd, conn.outbox.data() + conn.sent,
                               conn.outbox.size() - conn.sent, MSG_NOSIGNAL);
      if (n > 0) conn.sent += static_cast<std::size_t>(n);
      const bool failed = n < 0 && errno != EAGAIN && errno != EWOULDBLOCK;
      if (failed || conn.sent == conn.outbox.size()) drop(ev.fd);  // done: close
    }
  }
  for (const auto& [fd, conn] : connections) {
    poller_.remove(fd);
    ::close(fd);
  }
}

std::unique_ptr<HttpServer> serveIntrospection(int port,
                                               IntrospectionSources sources) {
  if (port < 0) return nullptr;
  auto server = std::make_unique<HttpServer>(static_cast<std::uint16_t>(port));
  server->handle("/healthz", [](const HttpRequest&) {
    return HttpResponse::text("ok\n");
  });
  server->handle("/metrics", [](const HttpRequest&) {
    return HttpResponse::text(
        MetricsRegistry::global().snapshot().toPrometheusText());
  });
  server->handle("/metrics.json", [](const HttpRequest&) {
    return HttpResponse::json(MetricsRegistry::global().snapshot().toJson());
  });
  server->handle("/traces", [](const HttpRequest&) {
    return HttpResponse::json(TraceRegistry::global().tracesJson());
  });
  server->handle("/debug/slo", [](const HttpRequest&) {
    return HttpResponse::json(SloRegistry::global().toJson());
  });
  if (sources.brokerJson)
    server->handle("/debug/broker",
                   [source = std::move(sources.brokerJson)](const HttpRequest&) {
                     return HttpResponse::json(source());
                   });
  if (sources.shardsJson)
    server->handle("/debug/shards",
                   [source = std::move(sources.shardsJson)](const HttpRequest&) {
                     return HttpResponse::json(source());
                   });
  if (sources.tenantsJson)
    server->handle("/debug/tenants",
                   [source = std::move(sources.tenantsJson)](const HttpRequest&) {
                     return HttpResponse::json(source());
                   });
  server->start();
  return server;
}

}  // namespace resex::obs
