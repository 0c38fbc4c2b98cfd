#include "index/query_exec.hpp"

#include <algorithm>
#include <cmath>

#include "obs/context.hpp"
#include "obs/metrics.hpp"

namespace resex {

namespace detail {

obs::Histogram& queryLatencyHistogram() {
  static obs::Histogram& hist =
      obs::MetricsRegistry::global().histogram("query.latency_us");
  return hist;
}

obs::Counter& queryCounter(const char* algo) {
  return obs::MetricsRegistry::global().counter(std::string("query.algo.") + algo);
}

namespace {

/// Deduplicates `terms` into scratch.terms and resolves the scoring
/// statistics. Repeated query terms would double their contribution;
/// sorted order also fixes the floating-point summation order every
/// executor scores in.
ScoreContext prepareTerms(const InvertedIndex& index,
                          const std::vector<TermId>& terms,
                          const GlobalStats* global, QueryScratch& scratch) {
  ScoreContext ctx;
  ctx.docCount = global ? global->documentCount : index.documentCount();
  ctx.avgLen = global ? global->avgDocLength : index.averageDocLength();
  scratch.terms.assign(terms.begin(), terms.end());
  std::sort(scratch.terms.begin(), scratch.terms.end());
  scratch.terms.erase(std::unique(scratch.terms.begin(), scratch.terms.end()),
                      scratch.terms.end());
  return ctx;
}

}  // namespace

ScoreContext buildCursors(const InvertedIndex& index,
                          const std::vector<TermId>& terms,
                          const Bm25Params& params, const GlobalStats* global,
                          QueryScratch& scratch) {
  const ScoreContext ctx = prepareTerms(index, terms, global, scratch);
  scratch.exec = ExecStats{};
  scratch.cursors.clear();
  for (const TermId t : scratch.terms) {
    const PostingList pl = index.postings(t);
    if (pl.documentCount() == 0) continue;  // contributes nothing anywhere
    const std::size_t df = effectiveDf(global, t, pl.documentCount());
    const double idf = bm25Idf(ctx.docCount, df);
    // tf/(tf+norm) < 1, so idf*(k1+1) bounds any contribution.
    scratch.cursors.emplace_back();
    scratch.cursors.back().init(pl, idf, idf * (params.k1 + 1.0),
                                &scratch.buffer(scratch.cursors.size() - 1),
                                &scratch.exec);
  }
  return ctx;
}

void finishExec(const QueryScratch& scratch, ExecStats* stats) {
  if (stats != nullptr) *stats += scratch.exec;
  static obs::Counter& decoded =
      obs::MetricsRegistry::global().counter("query.blocks_decoded");
  static obs::Counter& skipped =
      obs::MetricsRegistry::global().counter("query.blocks_skipped");
  decoded.add(scratch.exec.blocksDecoded);
  skipped.add(scratch.exec.blocksSkipped);
}

}  // namespace detail

namespace {

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
  const detail::ScoreContext ctx =
      detail::prepareTerms(index, terms, global, scratch);
  std::vector<double>& acc = scratch.acc;
  if (acc.size() < index.documentCount()) acc.resize(index.documentCount(), 0.0);
  std::vector<DocId>& touched = scratch.touched;
  touched.clear();
  CursorBuffer& block = scratch.buffer(0);

  for (const TermId t : scratch.terms) {
    const PostingList list = index.postings(t);
    if (list.documentCount() == 0) continue;
    const double idf =
        bm25Idf(ctx.docCount, effectiveDf(global, t, list.documentCount()));
    for (std::size_t b = 0; b < list.blockCount(); ++b) {
      const std::uint32_t count =
          list.decodeBlock(b, block.docs.data(), block.freqs.data());
      for (std::uint32_t i = 0; i < count; ++i) {
        const DocId d = block.docs[i];
        if (acc[d] == 0.0) touched.push_back(d);
        acc[d] += bm25TermScore(idf, block.freqs[i], index.docLength(d),
                                ctx.avgLen, params);
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

std::span<const ScoredDoc> topKDisjunctiveInto(
    const InvertedIndex& index, const std::vector<TermId>& terms, std::size_t k,
    const Bm25Params& params, QueryScratch& scratch, ExecStats* stats,
    const GlobalStats* global) {
  RESEX_TRACE_SPAN("query.disjunctive");
  static obs::Counter& queries = detail::queryCounter("disjunctive");
  queries.add();
  obs::ScopedLatencyUs latency(detail::queryLatencyHistogram());
  const auto results = scanExhaustive(index, terms, k, params, global, scratch);
  detail::finishExec(scratch, stats);
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

std::vector<ScoredDoc> topKDisjunctiveTaat(const InvertedIndex& index,
                                           const std::vector<TermId>& terms,
                                           std::size_t k, const Bm25Params& params,
                                           ExecStats* stats,
                                           const GlobalStats* global) {
  return topKDisjunctive(index, terms, k, params, stats, global);
}

std::span<const ScoredDoc> topKConjunctiveInto(
    const InvertedIndex& index, const std::vector<TermId>& terms, std::size_t k,
    const Bm25Params& params, QueryScratch& scratch, ExecStats* stats,
    const GlobalStats* global) {
  RESEX_TRACE_SPAN("query.conjunctive");
  static obs::Counter& queries = detail::queryCounter("conjunctive");
  queries.add();
  obs::ScopedLatencyUs latency(detail::queryLatencyHistogram());
  scratch.exec = ExecStats{};
  scratch.heapStorage.clear();
  if (k == 0 || terms.empty()) {
    detail::finishExec(scratch, stats);
    return {};
  }
  const detail::ScoreContext ctx =
      detail::buildCursors(index, terms, params, global, scratch);
  std::vector<TermCursor>& cursors = scratch.cursors;
  // A term with an empty list empties the intersection (buildCursors
  // drops empty lists, so compare against the deduplicated term count).
  if (cursors.empty() || cursors.size() != scratch.terms.size()) {
    detail::finishExec(scratch, stats);
    return {};
  }

  scratch.heap.reset(&scratch.heapStorage, k);
  // Rarest list drives; the others leapfrog to its candidates.
  std::vector<std::size_t>& order = scratch.order;
  order.resize(cursors.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&cursors](std::size_t a, std::size_t b) {
    return cursors[a].documentCount() < cursors[b].documentCount();
  });

  TermCursor& driver = cursors[order[0]];
  bool done = false;
  while (!done && !driver.exhausted()) {
    const DocId candidate = driver.doc();
    bool match = true;
    for (std::size_t l = 1; l < order.size(); ++l) {
      TermCursor& c = cursors[order[l]];
      c.nextGeq(candidate);
      if (c.exhausted()) {
        match = false;
        done = true;
        break;
      }
      if (c.doc() != candidate) {
        driver.nextGeq(c.doc());
        match = false;
        break;
      }
    }
    if (!match) continue;
    // All cursors sit on the candidate; score in term order.
    const double docLength = index.docLength(candidate);
    double score = 0.0;
    for (TermCursor& c : cursors)
      score += bm25TermScore(c.idf(), c.freq(), docLength, ctx.avgLen, params);
    ++scratch.exec.candidatesScored;
    scratch.heap.offer(score, index.docId(candidate));
    driver.next();
  }
  const auto results = scratch.heap.finish();
  detail::finishExec(scratch, stats);
  return results;
}

std::vector<ScoredDoc> topKConjunctive(const InvertedIndex& index,
                                       const std::vector<TermId>& terms,
                                       std::size_t k, const Bm25Params& params,
                                       ExecStats* stats, const GlobalStats* global) {
  const auto results = topKConjunctiveInto(index, terms, k, params,
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
