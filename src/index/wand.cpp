#include "index/wand.hpp"

#include <algorithm>
#include <cmath>

#include "obs/context.hpp"

namespace resex {

std::vector<ScoredDoc> topKWand(const InvertedIndex& index,
                                const std::vector<TermId>& terms, std::size_t k,
                                const Bm25Params& params, WandStats* stats,
                                const GlobalStats* global) {
  RESEX_TRACE_SPAN("query.wand");
  static obs::Counter& queries = detail::queryCounter("wand");
  queries.add();
  obs::ScopedLatencyUs latency(detail::queryLatencyHistogram());
  if (k == 0 || terms.empty()) return {};
  QueryScratch& scratch = threadLocalQueryScratch();
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

    // Pivot: first prefix whose accumulated upper bounds could beat theta.
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
    if (pivot == order.size()) break;  // even all lists together cannot beat theta
    const DocId pivotDoc = cursors[order[pivot]].doc();

    if (cursors[order[0]].doc() == pivotDoc) {
      // Every list up to the pivot sits on pivotDoc: score it fully.
      // Storage (term) order keeps summation deterministic.
      const double docLength = index.docLength(pivotDoc);
      double score = 0.0;
      for (TermCursor& c : cursors) {
        if (!c.exhausted() && c.doc() == pivotDoc) {
          score += bm25TermScore(c.idf(), c.freq(), docLength, ctx.avgLen, params);
          c.next();
          if (stats) ++stats->postingsEvaluated;
        }
      }
      if (stats) ++stats->candidatesScored;
      heap.offer(score, index.docId(pivotDoc));
    } else {
      // Advance the pre-pivot list with the largest upper bound (the
      // classic pick) straight to the pivot document. Only lists whose
      // head is strictly before the pivot qualify — a list already parked
      // on the pivot document would make the seek a no-op and stall the
      // loop.
      std::size_t advance = order[0];
      for (std::size_t i = 1; i < pivot; ++i) {
        if (cursors[order[i]].doc() >= pivotDoc) break;  // heads are sorted
        if (cursors[order[i]].upperBound() > cursors[advance].upperBound())
          advance = order[i];
      }
      TermCursor& c = cursors[advance];
      const DocId before = c.doc();
      c.nextGeq(pivotDoc);
      if (stats) {
        ++stats->postingsEvaluated;
        if (c.exhausted() || c.doc() > before + 1) ++stats->skips;
      }
    }
  }

  const auto results = heap.finish();
  return {results.begin(), results.end()};
}

PruningStrategy chooseStrategy(const InvertedIndex& index,
                               const std::vector<TermId>& terms,
                               const GlobalStats* global) {
  // Heuristic calibrated on fig12_pruning (in-memory decoded lists, work
  // counted per posting evaluated): MaxScore's non-essential split wins on
  // balanced queries of any length; WAND's pivot skipping only pays when
  // one list dwarfs the others, so the pivot can leap through the long
  // list driven by the short ones. A real engine with on-disk skip lists
  // would weight WAND's deep seeks more favourably — recalibrate there.
  std::vector<TermId> unique(terms);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  if (unique.size() < 2) return PruningStrategy::MaxScore;  // identical behaviour
  std::size_t longest = 0;
  std::size_t rest = 0;
  for (const TermId t : unique) {
    const std::size_t df = effectiveDf(global, t, index.documentFrequency(t));
    longest = std::max(longest, df);
    rest += df;
  }
  rest -= longest;
  if (rest > 0 && longest > 8 * rest) return PruningStrategy::Wand;
  return PruningStrategy::MaxScore;
}

std::vector<ScoredDoc> topKHybrid(const InvertedIndex& index,
                                  const std::vector<TermId>& terms, std::size_t k,
                                  const Bm25Params& params,
                                  std::size_t* postingsEvaluated,
                                  const GlobalStats* global) {
  if (chooseStrategy(index, terms, global) == PruningStrategy::Wand) {
    static obs::Counter& picks = detail::queryCounter("hybrid_picked_wand");
    picks.add();
    WandStats stats;
    auto results = topKWand(index, terms, k, params, &stats, global);
    if (postingsEvaluated) *postingsEvaluated += stats.postingsEvaluated;
    return results;
  }
  static obs::Counter& picks = detail::queryCounter("hybrid_picked_maxscore");
  picks.add();
  MaxScoreStats stats;
  auto results = topKMaxScore(index, terms, k, params, &stats, global);
  if (postingsEvaluated) *postingsEvaluated += stats.postingsEvaluated;
  return results;
}

}  // namespace resex
