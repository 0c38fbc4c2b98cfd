#include "serve/placement.hpp"

#include <stdexcept>
#include <utility>

namespace resex::serve {

Placement::Placement(const Instance& instance, std::vector<MachineId> mapping,
                     std::vector<std::shared_ptr<const InvertedIndex>> indexes)
    : machineCount_(instance.machineCount()), mapping_(std::move(mapping)),
      hosts_(instance.replicaGroupCount()), indexes_(std::move(indexes)) {
  const std::size_t n = instance.shardCount();
  if (mapping_.size() != n || indexes_.size() != n)
    throw std::invalid_argument("Placement: one machine and one index per shard");
  for (ShardId s = 0; s < n; ++s) {
    if (mapping_[s] >= machineCount_)
      throw std::invalid_argument("Placement: mapping machine out of range");
    if (!indexes_[s]) throw std::invalid_argument("Placement: null shard index");
    hosts_[instance.replicaGroupOf(s)].emplace_back(mapping_[s], s);
  }
  for (const auto& replicas : hosts_)
    if (replicas.empty())
      throw std::invalid_argument("Placement: partition with no replica host");
}

std::shared_ptr<const Placement> Placement::withMove(
    ShardId shard, MachineId from, MachineId to,
    std::shared_ptr<const InvertedIndex> replacement) const {
  if (shard >= mapping_.size() || to >= machineCount_ || mapping_[shard] != from)
    throw std::invalid_argument("Placement: move does not fit the mapping");
  if (replacement) {
    const auto& current = indexes_[shard]->segment();
    const auto& incoming = replacement->segment();
    if (current && incoming && !sameSegmentContent(current->footer(), incoming->footer()))
      throw std::invalid_argument("Placement: replacement holds different content");
  }
  auto next = std::make_shared<Placement>(*this);
  next->mapping_[shard] = to;
  for (auto& replicas : next->hosts_)
    for (ReplicaHost& host : replicas)
      if (host.second == shard) host.first = to;
  if (replacement) next->indexes_[shard] = std::move(replacement);
  return next;
}

}  // namespace resex::serve
