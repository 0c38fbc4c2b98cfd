#include "index/maxscore.hpp"

#include <algorithm>
#include <cmath>

#include "obs/context.hpp"

namespace resex {

std::vector<ScoredDoc> topKMaxScore(const InvertedIndex& index,
                                    const std::vector<TermId>& terms, std::size_t k,
                                    const Bm25Params& params, MaxScoreStats* stats,
                                    const GlobalStats* global) {
  RESEX_TRACE_SPAN("query.maxscore");
  static obs::Counter& queries = detail::queryCounter("maxscore");
  queries.add();
  obs::ScopedLatencyUs latency(detail::queryLatencyHistogram());
  if (k == 0 || terms.empty()) return {};
  QueryScratch& scratch = threadLocalQueryScratch();
  const detail::ScoreContext ctx =
      detail::buildCursors(index, terms, params, global, scratch);
  std::vector<TermCursor>& cursors = scratch.cursors;
  if (cursors.empty()) return {};

  // Cheap terms first; cumBound[i] = sum of upper bounds of lists 0..i.
  std::sort(cursors.begin(), cursors.end(),
            [](const TermCursor& a, const TermCursor& b) {
              return a.upperBound() < b.upperBound();
            });
  std::vector<double>& cumBound = scratch.cumBound;
  cumBound.resize(cursors.size());
  double running = 0.0;
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    running += cursors[i].upperBound();
    cumBound[i] = running;
  }

  scratch.heap.reset(&scratch.heapStorage, k);
  TopKHeap& heap = scratch.heap;

  // First essential list: smallest e with cumBound[e] > threshold; lists
  // below e cannot lift a document past the threshold on their own.
  std::size_t firstEssential = 0;
  auto refreshEssential = [&]() {
    const double theta = heap.threshold();
    while (firstEssential < cursors.size() && cumBound[firstEssential] <= theta)
      ++firstEssential;
  };

  for (;;) {
    refreshEssential();
    if (firstEssential >= cursors.size()) break;  // nothing can beat the heap

    // Next candidate: the smallest head among essential cursors.
    DocId candidate = 0;
    bool any = false;
    for (std::size_t l = firstEssential; l < cursors.size(); ++l) {
      if (cursors[l].exhausted()) continue;
      const DocId head = cursors[l].doc();
      if (!any || head < candidate) candidate = head;
      any = true;
    }
    if (!any) break;  // essential lists exhausted

    // Score the candidate over essential lists (advancing their cursors).
    const double docLength = index.docLength(candidate);
    double score = 0.0;
    for (std::size_t l = firstEssential; l < cursors.size(); ++l) {
      TermCursor& c = cursors[l];
      if (!c.exhausted() && c.doc() == candidate) {
        score += bm25TermScore(c.idf(), c.freq(), docLength, ctx.avgLen, params);
        c.next();
        if (stats) ++stats->postingsEvaluated;
      }
    }

    // Complete with non-essential lists, bound-checking as we go.
    bool pruned = false;
    for (std::size_t l = firstEssential; l-- > 0;) {
      const double bound = score + cumBound[l];
      if (bound < heap.threshold()) {
        pruned = true;
        break;
      }
      TermCursor& c = cursors[l];
      c.nextGeq(candidate);
      if (!c.exhausted() && c.doc() == candidate) {
        score += bm25TermScore(c.idf(), c.freq(), docLength, ctx.avgLen, params);
        c.next();
        if (stats) ++stats->postingsEvaluated;
      }
    }

    if (pruned) {
      if (stats) ++stats->candidatesPruned;
      continue;
    }
    if (stats) ++stats->candidatesScored;
    heap.offer(score, index.docId(candidate));
  }

  const auto results = heap.finish();
  return {results.begin(), results.end()};
}

}  // namespace resex
