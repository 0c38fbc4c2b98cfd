// resex_query: one-shot CLI client for a running resex_serve.
//
//   ./resex_query --port 9317 --terms 3,17,42 --topk 5
//
// Speaks the binary frame protocol via net::Client, prints the ranked
// documents, and exits non-zero on any transport or server error — which
// makes it usable as a CI smoke probe against a live server.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "util/flags.hpp"

namespace {

std::vector<std::uint32_t> parseTerms(const std::string& spec) {
  std::vector<std::uint32_t> terms;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!token.empty()) terms.push_back(static_cast<std::uint32_t>(std::stoul(token)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return terms;
}

}  // namespace

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("host", "127.0.0.1", "server host")
      .define("port", "9317", "server port")
      .define("terms", "", "comma-separated term ids, e.g. 3,17,42")
      .define("topk", "0", "results to return (0 = server default)")
      .define("tenant", "0", "tenant id")
      .define("deadline-ms", "0", "per-query budget in ms (0 = server default)")
      .define("repeat", "1", "send the query this many times (pipelined)")
      .define("timeout-ms", "5000", "client-side wait timeout");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("resex_query");
    return 0;
  }

  using namespace resex;

  net::QueryRequest request;
  request.terms = parseTerms(flags.str("terms"));
  if (request.terms.empty()) {
    std::fprintf(stderr, "resex_query: --terms is required (e.g. --terms 3,17)\n");
    return 2;
  }
  request.tenant = flags.count<std::uint32_t>("tenant");
  request.topK = flags.count<std::uint32_t>("topk");
  request.deadlineMicros =
      static_cast<std::uint32_t>(flags.real("deadline-ms") * 1e3);

  net::Client client(flags.str("host"), flags.count<std::uint16_t>("port"));
  try {
    client.connect();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "resex_query: %s\n", e.what());
    return 1;
  }

  const long long repeat = std::max<long long>(1, flags.integer("repeat"));
  const int timeoutMs = static_cast<int>(flags.integer("timeout-ms"));
  try {
    for (long long i = 0; i < repeat; ++i) {
      const net::QueryResponse response = client.call(request, timeoutMs);
      std::printf("%s%s%s%s answered=%u/%u docs=%zu:",
                  response.complete ? " complete" : " partial",
                  response.cacheHit ? " cache-hit" : "",
                  response.rejected ? " rejected" : "",
                  response.cancelled ? " cancelled" : "",
                  response.partitionsAnswered, response.partitionsTotal,
                  response.docs.size());
      for (const auto& doc : response.docs)
        std::printf(" d%u(%.4f)", doc.doc, doc.score);
      std::printf("\n");
      if (response.rejected || response.cancelled) {
        std::fprintf(stderr, "resex_query: query was not served\n");
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "resex_query: %s\n", e.what());
    return 1;
  }
  return 0;
}
