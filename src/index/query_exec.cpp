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

ScoreContext buildCursors(const InvertedIndex& index,
                          const std::vector<TermId>& terms,
                          const Bm25Params& params, const GlobalStats* global,
                          QueryScratch& scratch) {
  ScoreContext ctx;
  ctx.docCount = global ? global->documentCount : index.documentCount();
  ctx.avgLen = global ? global->avgDocLength : index.averageDocLength();
  // Deduplicate repeated query terms (their contributions would double);
  // sorted order also fixes the floating-point summation order, keeping
  // DAAT scores bit-identical to the TAAT reference.
  scratch.terms.assign(terms.begin(), terms.end());
  std::sort(scratch.terms.begin(), scratch.terms.end());
  scratch.terms.erase(std::unique(scratch.terms.begin(), scratch.terms.end()),
                      scratch.terms.end());
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
                                pl.boundsExactFor(ctx.avgLen, params),
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
  static obs::Counter& prunes =
      obs::MetricsRegistry::global().counter("query.heap_threshold_prunes");
  decoded.add(scratch.exec.blocksDecoded);
  skipped.add(scratch.exec.blocksSkipped);
  prunes.add(scratch.exec.heapThresholdPrunes);
}

}  // namespace detail

namespace {

/// The block-max DAAT core (no tracing/counter side effects; fills
/// scratch.exec).
std::span<const ScoredDoc> daatBlockMax(const InvertedIndex& index,
                                        const std::vector<TermId>& terms,
                                        std::size_t k, const Bm25Params& params,
                                        const GlobalStats* global,
                                        QueryScratch& scratch) {
  scratch.exec = ExecStats{};
  scratch.heapStorage.clear();
  if (k == 0 || terms.empty()) return {};
  const detail::ScoreContext ctx =
      detail::buildCursors(index, terms, params, global, scratch);
  std::vector<TermCursor>& cursors = scratch.cursors;
  if (cursors.empty()) return {};

  scratch.heap.reset(&scratch.heapStorage, k);
  TopKHeap& heap = scratch.heap;
  // Active cursor indices, kept sorted by head document each round.
  std::vector<std::size_t>& order = scratch.order;
  order.resize(cursors.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (;;) {
    order.erase(
        std::remove_if(order.begin(), order.end(),
                       [&cursors](std::size_t i) { return cursors[i].exhausted(); }),
        order.end());
    if (order.empty()) break;
    std::sort(order.begin(), order.end(), [&cursors](std::size_t a, std::size_t b) {
      return cursors[a].doc() < cursors[b].doc();
    });

    // Pivot: first prefix whose accumulated global upper bounds could
    // beat the heap threshold.
    const double theta = heap.threshold();
    double acc = 0.0;
    std::size_t pivot = order.size();
    for (std::size_t i = 0; i < order.size(); ++i) {
      acc += cursors[order[i]].upperBound();
      if (acc > theta) {
        pivot = i;
        break;
      }
    }
    if (pivot == order.size()) {
      // Even all remaining lists together cannot beat theta.
      ++scratch.exec.heapThresholdPrunes;
      break;
    }
    const DocId pivotDoc = cursors[order[pivot]].doc();
    // Absorb every list already parked on the pivot document: their
    // contributions must be part of any bound on it.
    while (pivot + 1 < order.size() && cursors[order[pivot + 1]].doc() == pivotDoc)
      ++pivot;

    if (cursors[order[0]].doc() == pivotDoc) {
      // Shallow check: the *block-local* bounds of the lists parked on
      // the pivot document — much tighter than the global bounds. The
      // nextGeq aligns each pre-pivot cursor's block without decoding it.
      double shallow = 0.0;
      for (std::size_t i = 0; i <= pivot; ++i) {
        TermCursor& c = cursors[order[i]];
        c.nextGeq(pivotDoc);
        if (!c.exhausted()) shallow += c.blockMaxScore(ctx.avgLen, params);
      }
      if (shallow <= theta) {
        // No document in these blocks can beat theta: jump past the
        // earliest block boundary — but never past the next list's head,
        // whose contribution the shallow sum did not include.
        ++scratch.exec.heapThresholdPrunes;
        DocId jumpTo = ~DocId{0};
        bool anyLive = false;
        for (std::size_t i = 0; i <= pivot; ++i) {
          const TermCursor& c = cursors[order[i]];
          if (c.exhausted()) continue;
          jumpTo = std::min(jumpTo, c.blockLastDoc());
          anyLive = true;
        }
        if (!anyLive) continue;  // next round drops the exhausted cursors
        if (pivot + 1 < order.size())
          jumpTo = std::min(jumpTo, cursors[order[pivot + 1]].doc() - 1);
        for (std::size_t i = 0; i <= pivot; ++i) {
          TermCursor& c = cursors[order[i]];
          if (!c.exhausted() && c.doc() <= jumpTo) c.nextGeq(jumpTo + 1);
        }
        continue;
      }
      // Score the pivot document. Iterating cursors in storage (sorted
      // term) order keeps the summation order identical to TAAT.
      const double docLength = index.docLength(pivotDoc);
      double score = 0.0;
      for (TermCursor& c : cursors) {
        if (!c.exhausted() && c.doc() == pivotDoc) {
          score += bm25TermScore(c.idf(), c.freq(), docLength, ctx.avgLen, params);
          c.next();
        }
      }
      ++scratch.exec.candidatesScored;
      heap.offer(score, index.docId(pivotDoc));
    } else {
      // Advance the pre-pivot list with the largest upper bound (the
      // classic pick) straight to the pivot document. Only lists whose
      // head is strictly before the pivot qualify — a list already parked
      // on the pivot document would make the seek a no-op and stall.
      std::size_t advance = order[0];
      for (std::size_t i = 1; i < pivot; ++i) {
        if (cursors[order[i]].doc() >= pivotDoc) break;  // heads are sorted
        if (cursors[order[i]].upperBound() > cursors[advance].upperBound())
          advance = order[i];
      }
      cursors[advance].nextGeq(pivotDoc);
    }
  }
  return heap.finish();
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
  const auto results = daatBlockMax(index, terms, k, params, global, scratch);
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
  RESEX_TRACE_SPAN("query.disjunctive_taat");
  static obs::Counter& queries = detail::queryCounter("disjunctive_taat");
  queries.add();
  obs::ScopedLatencyUs latency(detail::queryLatencyHistogram());
  QueryScratch& scratch = threadLocalQueryScratch();
  const std::size_t docCount =
      global ? global->documentCount : index.documentCount();
  const double avgLen = global ? global->avgDocLength : index.averageDocLength();
  std::vector<TermId>& unique = scratch.terms;
  unique.assign(terms.begin(), terms.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  // Dense accumulator over the shard's documents, kept all-zero between
  // queries: only the touched entries are written and cleared.
  std::vector<double>& acc = scratch.acc;
  if (acc.size() < index.documentCount()) acc.resize(index.documentCount(), 0.0);
  std::vector<DocId>& touchedDocs = scratch.touched;
  touchedDocs.clear();

  for (const TermId t : unique) {
    const PostingList list = index.postings(t);
    if (list.documentCount() == 0) continue;
    const std::size_t df = effectiveDf(global, t, list.documentCount());
    const double idf = bm25Idf(docCount, df);
    list.decode(scratch.decodeDocs, scratch.decodeFreqs);
    if (stats) stats->postingsScanned += scratch.decodeDocs.size();
    for (std::size_t i = 0; i < scratch.decodeDocs.size(); ++i) {
      const DocId d = scratch.decodeDocs[i];
      if (acc[d] == 0.0) touchedDocs.push_back(d);
      acc[d] += bm25TermScore(idf, scratch.decodeFreqs[i], index.docLength(d),
                              avgLen, params);
    }
  }

  std::vector<ScoredDoc>& candidates = scratch.candidates;
  candidates.clear();
  candidates.reserve(touchedDocs.size());
  for (const DocId d : touchedDocs) {
    candidates.push_back(ScoredDoc{index.docId(d), acc[d]});
    acc[d] = 0.0;
  }
  if (stats) stats->candidatesScored += candidates.size();
  std::vector<ScoredDoc> scored(candidates.begin(), candidates.end());
  return selectTopK(std::move(scored), k);
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
