#include "index/query_exec.hpp"

#include <algorithm>

#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace resex {

namespace {

/// Deduplicates `terms` into scratch.terms: a repeated query term would
/// double its contribution, and sorted order fixes the floating-point
/// summation order of every score.
void prepareTerms(const std::vector<TermId>& terms, QueryScratch& scratch) {
  scratch.terms.assign(terms.begin(), terms.end());
  std::sort(scratch.terms.begin(), scratch.terms.end());
  scratch.terms.erase(std::unique(scratch.terms.begin(), scratch.terms.end()),
                      scratch.terms.end());
}

/// The exhaustive term-at-a-time core (no tracing/counter side effects;
/// fills scratch.exec). The dense accumulator is all-zero between queries:
/// only the touched entries are written, and each is cleared as it streams
/// into the heap.
std::span<const ScoredDoc> scanExhaustive(const InvertedIndex& index,
                                          const std::vector<TermId>& terms,
                                          std::size_t k, const Bm25Params& params,
                                          const GlobalStats* global,
                                          QueryScratch& scratch) {
  scratch.exec = ExecStats{};
  scratch.heapStorage.clear();
  if (k == 0 || terms.empty()) return {};
  prepareTerms(terms, scratch);
  const std::size_t docCount = global ? global->documentCount : index.documentCount();
  const double avgLen = global ? global->avgDocLength : index.averageDocLength();
  std::vector<double>& acc = scratch.acc;
  if (acc.size() < index.documentCount()) acc.resize(index.documentCount(), 0.0);
  std::vector<DocId>& touched = scratch.touched;
  touched.clear();
  CursorBuffer& block = scratch.buffer;

  for (const TermId t : scratch.terms) {
    const PostingList list = index.postings(t);
    if (list.documentCount() == 0) continue;
    const double idf = bm25Idf(docCount, effectiveDf(global, t, list.documentCount()));
    for (std::size_t b = 0; b < list.blockCount(); ++b) {
      const std::uint32_t count =
          list.decodeBlock(b, block.docs.data(), block.freqs.data());
      for (std::uint32_t i = 0; i < count; ++i) {
        const DocId d = block.docs[i];
        if (acc[d] == 0.0) touched.push_back(d);
        acc[d] += bm25TermScore(idf, block.freqs[i], index.docLength(d), avgLen,
                                params);
      }
    }
    scratch.exec.postingsScanned += list.documentCount();
    scratch.exec.blocksDecoded += list.blockCount();
  }

  scratch.heap.reset(&scratch.heapStorage, k);
  for (const DocId d : touched) {
    scratch.heap.offer(acc[d], index.docId(d));
    acc[d] = 0.0;
  }
  scratch.exec.candidatesScored = touched.size();
  return scratch.heap.finish();
}

std::vector<ScoredDoc> selectTopK(std::vector<ScoredDoc>&& scored, std::size_t k) {
  if (scored.size() > k) {
    std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                      scored.end(), TopKHeap::isBetter);
    scored.resize(k);
  } else {
    std::sort(scored.begin(), scored.end(), TopKHeap::isBetter);
  }
  return std::move(scored);
}

}  // namespace

QueryScratch& threadLocalQueryScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

std::span<const ScoredDoc> topKDisjunctiveInto(
    const InvertedIndex& index, const std::vector<TermId>& terms, std::size_t k,
    const Bm25Params& params, QueryScratch& scratch, ExecStats* stats,
    const GlobalStats* global) {
  RESEX_TRACE_SPAN("query.disjunctive");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static obs::Counter& queries = registry.counter("query.algo.disjunctive");
  static obs::Histogram& latencyUs = registry.histogram("query.latency_us");
  static obs::Counter& blocksDecoded = registry.counter("query.blocks_decoded");
  queries.add();
  obs::ScopedLatencyUs latency(latencyUs);
  const auto results = scanExhaustive(index, terms, k, params, global, scratch);
  if (stats != nullptr) *stats += scratch.exec;
  blocksDecoded.add(scratch.exec.blocksDecoded);
  return results;
}

std::vector<ScoredDoc> topKDisjunctive(const InvertedIndex& index,
                                       const std::vector<TermId>& terms,
                                       std::size_t k, const Bm25Params& params,
                                       ExecStats* stats, const GlobalStats* global) {
  const auto results = topKDisjunctiveInto(index, terms, k, params,
                                           threadLocalQueryScratch(), stats, global);
  return {results.begin(), results.end()};
}

std::vector<ScoredDoc> mergeTopK(const std::vector<std::vector<ScoredDoc>>& perShard,
                                 std::size_t k) {
  std::size_t total = 0;
  for (const auto& shard : perShard) total += shard.size();
  std::vector<ScoredDoc> all;
  all.reserve(total);
  for (const auto& shard : perShard) all.insert(all.end(), shard.begin(), shard.end());
  return selectTopK(std::move(all), k);
}

}  // namespace resex
