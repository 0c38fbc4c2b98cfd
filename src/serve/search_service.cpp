#include "serve/search_service.hpp"

#include <utility>

namespace resex::serve {

SearchService::SearchService(QueryBroker& broker, SearchServiceConfig config)
    : broker_(broker), config_(config) {}

net::QueryResponse toWireResponse(const QueryResult& result) {
  net::QueryResponse response;
  response.complete = result.complete;
  response.cacheHit = result.cacheHit;
  response.rejected = result.rejected;
  response.cancelled = result.cancelled;
  response.partitionsAnswered = result.partitionsAnswered;
  response.partitionsTotal = result.partitionsTotal;
  response.docs = result.docs;
  return response;
}

bool SearchService::handle(net::QueryRequest&& request,
                           const std::shared_ptr<net::ResponseTicket>& ticket) {
  // Policy validation answers with a typed error frame; only requests the
  // broker can actually serve are submitted. (Frame-level garbage never
  // reaches here — the server already closed those connections.)
  if (request.tenant >= broker_.tenantRegistry().count()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ticket->fail(net::ErrorCode::kBadRequest,
                 "unknown tenant " + std::to_string(request.tenant));
    return true;
  }
  if (request.topK > config_.maxTopK) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ticket->fail(net::ErrorCode::kBadRequest,
                 "topK " + std::to_string(request.topK) + " exceeds limit");
    return true;
  }
  if (request.terms.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ticket->fail(net::ErrorCode::kBadRequest, "empty term list");
    return true;
  }

  SubmitOptions options;
  options.tenant = static_cast<TenantId>(request.tenant);
  options.topK = request.topK;
  // The client's budget is authoritative when supplied (clamped);
  // deadlineMicros == 0 defers to the server's configured default.
  if (request.deadlineMicros != 0)
    options.deadlineSeconds =
        static_cast<double>(
            std::min(request.deadlineMicros, config_.maxDeadlineMicros)) *
        1e-6;
  // Transport threads never sleep on an execution slot: a query finding
  // none is rejected and surfaces as read-side backpressure instead.
  options.waitForQueue = false;

  served_.fetch_add(1, std::memory_order_relaxed);
  return broker_.submit(std::move(request.terms), options,
                        [ticket](QueryResult result) {
                          ticket->respond(toWireResponse(result));
                        });
}

net::Server::Handler SearchService::handler() {
  return [this](net::QueryRequest&& request,
                const std::shared_ptr<net::ResponseTicket>& ticket) {
    return handle(std::move(request), ticket);
  };
}

}  // namespace resex::serve
