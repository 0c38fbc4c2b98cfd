// Live HTTP introspection plane: a small, self-contained HTTP/1.1 server
// exposing the observability registries while the process runs.
//
// Scope is deliberately narrow — this is an operational debug surface, not
// a web framework: one server thread multiplexing a handful of connections
// on a net::Poller (the RPC server's event loop), GET only, length-bounded
// requests (oversized input is answered 431 and the connection dropped),
// every response carries Content-Length and Connection: close. That is exactly enough for
// `curl`, a Prometheus scraper, or a dashboard poller, with no request
// parsing attack surface to speak of.
//
// Standard endpoint catalog (serveIntrospection wires these):
//   /metrics       Prometheus text exposition of the global registry
//   /metrics.json  the same snapshot as JSON
//   /traces        recent sampled trace trees + timeline events (JSON)
//   /debug/slo     per-class sliding-window SLO state (JSON)
//   /healthz       200 "ok"
//   /debug/broker  per-machine queue depth / busy fraction (JSON; binary-
//   /debug/shards  provided callbacks — only where a broker exists)
//   /debug/tenants per-tenant fair-share/admission/SLO state (JSON; only
//                  where a multi-tenant broker exists)
//
// Lifecycle: construct with a port (0 = ephemeral, port() tells), add
// handlers, start(). stop() wakes the poller and joins; the destructor
// calls it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/poller.hpp"

namespace resex::obs {

struct HttpRequest {
  std::string method;
  std::string path;    ///< request target with any ?query stripped
  std::string query;   ///< text after '?', empty if none
};

struct HttpResponse {
  int status = 200;
  std::string contentType = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse text(std::string body, int status = 200) {
    return HttpResponse{status, "text/plain; charset=utf-8", std::move(body)};
  }
  static HttpResponse json(std::string body, int status = 200) {
    return HttpResponse{status, "application/json", std::move(body)};
  }
  static HttpResponse notFound() { return text("not found\n", 404); }
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  /// Binds 127.0.0.1:`port` immediately (port 0 picks an ephemeral one) so
  /// port() is valid before start(); throws std::runtime_error when the
  /// bind fails. The serving thread starts only on start().
  explicit HttpServer(std::uint16_t port);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path`. Not thread-safe against a
  /// running server: register everything before start().
  void handle(std::string path, HttpHandler handler);

  void start();
  /// Stops accepting, wakes the event loop, joins the thread. Idempotent.
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  std::uint64_t requestsServed() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Maximum bytes of request head accepted before answering 431.
  static constexpr std::size_t kMaxRequestBytes = 8192;

 private:
  struct Connection;

  void serveLoop();
  /// Reads the request head into conn.inbox and, once it is complete or
  /// over the size bound, renders the response into conn.outbox. Returns
  /// false when the peer closed before completing a head.
  bool readRequest(int fd, Connection& conn);
  HttpResponse dispatch(const HttpRequest& request) const;

  std::vector<std::pair<std::string, HttpHandler>> routes_;
  net::Poller poller_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopRequested_{false};
  std::atomic<std::uint64_t> requests_{0};
};

/// Extra, binary-specific JSON sources for the standard endpoints; leave a
/// field empty to have its endpoint answer 404.
struct IntrospectionSources {
  std::function<std::string()> brokerJson;   ///< /debug/broker
  std::function<std::string()> shardsJson;   ///< /debug/shards
  std::function<std::string()> tenantsJson;  ///< /debug/tenants
};

/// Creates a started server on `port` with the standard endpoint catalog
/// (metrics/traces/SLO registries are read live at request time). Returns
/// null when `port` is negative (the "--obs-port -1 = disabled" idiom);
/// propagates the bind failure otherwise.
std::unique_ptr<HttpServer> serveIntrospection(int port,
                                               IntrospectionSources sources = {});

}  // namespace resex::obs
