// F12 (extension) — Dynamic pruning on the materialized index: postings
// evaluated by MaxScore vs exhaustive evaluation.
//
// The efficiency companion of the load-balance work (cf. the same group's
// "Hybrid Dynamic Pruning", ICPP 2020): MaxScore returns the identical
// top-k while evaluating a fraction of the postings. Expected shape: the
// saving grows with list length (head terms) and shrinks as k grows.

#include <cmath>
#include <cstdio>

#include "index/maxscore.hpp"
#include "index/wand.hpp"
#include "index/partition.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/zipf.hpp"

namespace {

/// Whether a pruned top-k equals the exhaustive reference. Docs whose
/// scores tie (to summation-order noise) may swap ranks; that is still the
/// identical result set.
bool sameTopK(const std::vector<resex::ScoredDoc>& pruned,
              const std::vector<resex::ScoredDoc>& reference) {
  if (pruned.size() != reference.size()) return false;
  for (std::size_t i = 0; i < pruned.size(); ++i)
    if (pruned[i].doc != reference[i].doc &&
        std::abs(pruned[i].score - reference[i].score) >= 1e-9)
      return false;
  return true;
}

}  // namespace

int main() {
  resex::SyntheticDocConfig config;
  config.seed = 2020;
  config.docCount = 40000;
  config.termCount = 6000;
  config.termExponent = 1.05;
  const auto docs = resex::generateDocuments(config);
  const resex::InvertedIndex index(config.termCount, docs);

  std::printf("== F12: MaxScore pruning vs exhaustive BM25 top-k ==\n");
  std::printf("%u docs, %u terms, %zu postings\n\n", config.docCount,
              config.termCount, index.totalPostings());

  resex::Table table({"query mix", "k", "exhaustive", "maxscore", "wand", "bmw",
                      "hybrid", "hybrid saved", "identical"});

  struct Mix {
    const char* name;
    double exponent;  // of query-term popularity
    std::size_t termsPerQuery;
  };
  const Mix mixes[] = {
      {"head terms, 2-term", 1.4, 2},
      {"head terms, 4-term", 1.4, 4},
      {"mixed terms, 2-term", 0.8, 2},
      {"mixed terms, 4-term", 0.8, 4},
  };
  for (const Mix& mix : mixes) {
    for (const std::size_t k : {10u, 100u}) {
      resex::Rng rng(7);
      const resex::ZipfSampler termPick(config.termCount, mix.exponent);
      std::size_t exhaustiveTotal = 0;
      std::size_t maxscoreTotal = 0;
      std::size_t wandTotal = 0;
      std::size_t bmwTotal = 0;
      std::size_t hybridTotal = 0;
      bool identical = true;
      for (int q = 0; q < 150; ++q) {
        std::vector<resex::TermId> query;
        for (std::size_t i = 0; i < mix.termsPerQuery; ++i)
          query.push_back(static_cast<resex::TermId>(termPick.sample(rng) - 1));
        resex::ExecStats full;
        const auto reference =
            resex::topKDisjunctiveTaat(index, query, k, resex::Bm25Params{}, &full);
        resex::MaxScoreStats ms;
        const auto maxscore =
            resex::topKMaxScore(index, query, k, resex::Bm25Params{}, &ms);
        resex::WandStats ws;
        const auto wand = resex::topKWand(index, query, k, resex::Bm25Params{}, &ws);
        resex::ExecStats bs;
        const auto bmw =
            resex::topKDisjunctive(index, query, k, resex::Bm25Params{}, &bs);
        const auto hybrid =
            resex::topKHybrid(index, query, k, resex::Bm25Params{}, &hybridTotal);
        exhaustiveTotal += full.postingsScanned;
        maxscoreTotal += ms.postingsEvaluated;
        wandTotal += ws.postingsEvaluated;
        bmwTotal += bs.postingsScanned;
        identical = identical && sameTopK(maxscore, reference) &&
                    sameTopK(wand, reference) && sameTopK(bmw, reference) &&
                    sameTopK(hybrid, reference);
      }
      table.addRow({mix.name, resex::Table::num(k),
                    resex::Table::num(exhaustiveTotal),
                    resex::Table::num(maxscoreTotal),
                    resex::Table::num(wandTotal),
                    resex::Table::num(bmwTotal),
                    resex::Table::num(hybridTotal),
                    resex::Table::pct(1.0 - static_cast<double>(hybridTotal) /
                                                static_cast<double>(exhaustiveTotal),
                                      1),
                    identical ? "yes" : "NO"});
    }
  }
  table.print();
  std::printf("\n(identical: MaxScore, WAND, block-max DAAT and hybrid all "
              "return the exhaustive TAAT top-k; the saved column is the "
              "pruning payoff)\n");
  return 0;
}
