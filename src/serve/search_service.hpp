// SearchService: the frame ⇄ broker adapter between the transport layer
// (net::Server, which owns sockets and frames) and the scheduling +
// execution layer (QueryBroker, which owns queues, workers, admission).
//
// One method is the whole contract: handle() validates a decoded
// QueryRequest against serving policy (known tenant, sane top-k), maps
// the client's deadline budget onto the broker's deadline, and submits
// asynchronously — the broker's completion writes the RESULT frame back
// through the ResponseTicket from whichever thread finished the query.
// No thread blocks per in-flight RPC; the submit return value (slot
// backpressure) propagates to the server, which pauses reading that
// connection until responses drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/server.hpp"
#include "serve/broker.hpp"

namespace resex::serve {

struct SearchServiceConfig {
  /// Requests claiming more than this many results are answered with a
  /// kBadRequest error frame rather than silently clamped.
  std::uint32_t maxTopK = 1000;
  /// Cap on a client-supplied deadline budget; longer budgets are
  /// clamped (a client cannot hold broker state open arbitrarily long).
  std::uint32_t maxDeadlineMicros = 30'000'000;
};

class SearchService {
 public:
  SearchService(QueryBroker& broker, SearchServiceConfig config = {});

  /// The net::Server handler. Returns false (pause reading) when the
  /// broker reported backpressure for this submit.
  bool handle(net::QueryRequest&& request,
              const std::shared_ptr<net::ResponseTicket>& ticket);

  /// Bound handler for net::Server construction.
  net::Server::Handler handler();

  std::uint64_t requestsServed() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }
  std::uint64_t requestsRejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  QueryBroker& broker_;
  SearchServiceConfig config_;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// Maps a broker result onto the wire response (shared with the bench's
/// in-process oracle so both sides serialize identically).
net::QueryResponse toWireResponse(const QueryResult& result);

}  // namespace resex::serve
