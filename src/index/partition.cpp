#include "index/partition.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "index/segment.hpp"
#include "workload/zipf.hpp"

namespace resex {

std::vector<Document> generateDocuments(const SyntheticDocConfig& config) {
  if (config.docCount == 0 || config.termCount == 0)
    throw std::invalid_argument("generateDocuments: empty corpus");
  Rng rng(config.seed);
  const ZipfSampler terms(config.termCount, config.termExponent);
  std::vector<Document> docs(config.docCount);
  const double mu = std::log(std::max(1.0, config.meanDocLength)) -
                    0.5 * config.docLengthSigma * config.docLengthSigma;
  for (DocId d = 0; d < config.docCount; ++d) {
    docs[d].id = d;
    const auto length = static_cast<std::size_t>(
        std::max(1.0, rng.lognormal(mu, config.docLengthSigma)));
    docs[d].terms.reserve(length);
    for (std::size_t i = 0; i < length; ++i)
      docs[d].terms.push_back(static_cast<TermId>(terms.sample(rng) - 1));
  }
  return docs;
}

PartitionedIndex::PartitionedIndex(std::uint32_t termCount,
                                   std::vector<Document> documents,
                                   std::size_t shardCount,
                                   const std::vector<double>& weights) {
  if (shardCount == 0) throw std::invalid_argument("PartitionedIndex: zero shards");
  if (!weights.empty() && weights.size() != shardCount)
    throw std::invalid_argument("PartitionedIndex: weight count mismatch");

  // Deterministic weighted assignment: documents are dealt to the shard
  // with the largest remaining weight deficit (a quota-style scheme).
  std::vector<double> quota(shardCount, 1.0);
  if (!weights.empty()) {
    double total = 0.0;
    for (const double w : weights) {
      if (w <= 0.0) throw std::invalid_argument("PartitionedIndex: weights must be > 0");
      total += w;
    }
    for (std::size_t i = 0; i < shardCount; ++i)
      quota[i] = weights[i] / total * static_cast<double>(shardCount);
  }
  std::vector<double> credit(shardCount, 0.0);
  // Documents move into their shard (the corpus is never copied), and each
  // shard's documents are released as soon as its index is built, so the
  // build holds one corpus plus the finished shards, not two corpora.
  std::vector<std::vector<Document>> perShard(shardCount);
  for (Document& doc : documents) {
    std::size_t best = 0;
    for (std::size_t i = 0; i < shardCount; ++i) {
      credit[i] += quota[i];
      if (credit[i] > credit[best]) best = i;
    }
    credit[best] -= static_cast<double>(shardCount);
    perShard[best].push_back(std::move(doc));
  }
  std::vector<Document>().swap(documents);

  shards_.reserve(shardCount);
  for (std::vector<Document>& docs : perShard) {
    shards_.push_back(std::make_unique<InvertedIndex>(termCount, docs));
    std::vector<Document>().swap(docs);
  }
  computeGlobalStats(termCount);
}

void PartitionedIndex::computeGlobalStats(std::uint32_t termCount) {
  totalDocs_ = 0;
  for (const auto& shard : shards_) totalDocs_ += shard->documentCount();

  // Global statistics (what a broker would broadcast).
  global_.documentCount = totalDocs_;
  global_.documentFrequency.assign(termCount, 0);
  double totalLength = 0.0;
  for (const auto& shard : shards_) {
    for (TermId t = 0; t < termCount; ++t)
      global_.documentFrequency[t] += shard->documentFrequency(t);
    for (std::size_t d = 0; d < shard->documentCount(); ++d)
      totalLength += shard->docLength(d);
  }
  global_.avgDocLength =
      totalDocs_ ? totalLength / static_cast<double>(totalDocs_) : 0.0;
}

std::vector<std::string> PartitionedIndex::writeSegmentDir(
    const std::string& dir) const {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  paths.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "shard-%04zu.seg", i);
    std::string path = (std::filesystem::path(dir) / name).string();
    writeSegment(*shards_[i], path);
    paths.push_back(std::move(path));
  }
  return paths;
}

PartitionedIndex PartitionedIndex::fromSegmentFiles(
    const std::vector<std::string>& paths) {
  if (paths.empty())
    throw std::invalid_argument("PartitionedIndex: no segment files");
  PartitionedIndex part;
  part.shards_.reserve(paths.size());
  for (const std::string& path : paths)
    part.shards_.push_back(std::make_unique<InvertedIndex>(
        std::make_shared<const MappedSegment>(path)));
  const std::uint32_t termCount = part.shards_.front()->termCount();
  for (const auto& shard : part.shards_)
    if (shard->termCount() != termCount)
      throw std::invalid_argument(
          "PartitionedIndex: segment term counts disagree");
  part.computeGlobalStats(termCount);
  return part;
}

PartitionedIndex PartitionedIndex::fromSegmentDir(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.starts_with("shard-") &&
        name.ends_with(".seg"))
      paths.push_back(entry.path().string());
  }
  if (paths.empty())
    throw std::invalid_argument("PartitionedIndex: no shard-*.seg files in " +
                                dir);
  std::sort(paths.begin(), paths.end());
  return fromSegmentFiles(paths);
}

double PartitionedIndex::docFraction(std::size_t i) const {
  if (totalDocs_ == 0) return 0.0;
  return static_cast<double>(shards_.at(i)->documentCount()) /
         static_cast<double>(totalDocs_);
}

std::vector<ScoredDoc> PartitionedIndex::searchTopK(
    const std::vector<TermId>& terms, std::size_t k, const Bm25Params& params,
    std::vector<ExecStats>* perShardStats) const {
  std::vector<std::vector<ScoredDoc>> results(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ExecStats stats;
    results[i] = topKDisjunctive(*shards_[i], terms, k, params, &stats, &global_);
    if (perShardStats) perShardStats->at(i) += stats;
  }
  return mergeTopK(results, k);
}

}  // namespace resex
