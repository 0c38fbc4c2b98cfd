#include "cluster/instance.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace resex {

Instance::Instance(std::size_t dims, std::vector<Machine> machines, std::vector<Shard> shards,
                   std::vector<MachineId> initialAssignment, std::size_t exchangeCount,
                   ResourceVector transientGamma)
    : Instance(dims, std::move(machines), std::move(shards), std::move(initialAssignment),
               exchangeCount, std::move(transientGamma), {}) {}

Instance::Instance(std::size_t dims, std::vector<Machine> machines, std::vector<Shard> shards,
                   std::vector<MachineId> initialAssignment, std::size_t exchangeCount,
                   ResourceVector transientGamma, std::vector<std::uint32_t> replicaGroup)
    : dims_(dims),
      machines_(std::move(machines)),
      shards_(std::move(shards)),
      initial_(std::move(initialAssignment)),
      exchangeCount_(exchangeCount),
      gamma_(std::move(transientGamma)),
      replicaGroup_(std::move(replicaGroup)) {
  if (replicaGroup_.empty()) {
    replicaGroup_.resize(shards_.size());
    for (ShardId s = 0; s < shards_.size(); ++s) replicaGroup_[s] = s;
  }
  buildReplicaIndex();
  validate();
  for (Machine& mach : machines_) {
    if (!mach.crashed) continue;
    mach.capacity = ResourceVector(dims_, kCrashedCapacity);
    ++crashedCount_;
  }
}

void Instance::buildReplicaIndex() {
  std::uint32_t maxGroup = 0;
  for (const std::uint32_t g : replicaGroup_) maxGroup = std::max(maxGroup, g);
  groupMembers_.assign(shards_.empty() ? 0 : maxGroup + 1, {});
  for (ShardId s = 0; s < replicaGroup_.size(); ++s)
    groupMembers_[replicaGroup_[s]].push_back(s);
  replicated_ = false;
  for (const auto& members : groupMembers_)
    if (members.size() > 1) replicated_ = true;
}

std::span<const ShardId> Instance::replicasInGroup(std::uint32_t group) const {
  return groupMembers_.at(group);
}

void Instance::validate() const {
  if (dims_ == 0 || dims_ > kMaxResourceDims)
    throw std::invalid_argument("Instance: dims out of range");
  if (machines_.empty()) throw std::invalid_argument("Instance: no machines");
  if (exchangeCount_ > machines_.size())
    throw std::invalid_argument("Instance: more exchange machines than machines");
  if (gamma_.dims() != dims_) throw std::invalid_argument("Instance: gamma dims mismatch");
  for (std::size_t d = 0; d < dims_; ++d)
    if (gamma_[d] < 0.0 || gamma_[d] > 1.0)
      throw std::invalid_argument("Instance: gamma components must be in [0,1]");
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    const Machine& mach = machines_[i];
    if (mach.id != i) throw std::invalid_argument("Instance: machine ids must be dense");
    if (mach.capacity.dims() != dims_)
      throw std::invalid_argument("Instance: machine capacity dims mismatch");
    for (std::size_t d = 0; d < dims_; ++d)
      if (mach.capacity[d] <= 0.0)
        throw std::invalid_argument("Instance: machine capacity must be positive");
  }
  if (initial_.size() != shards_.size())
    throw std::invalid_argument("Instance: initial assignment size mismatch");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    if (shard.id != s) throw std::invalid_argument("Instance: shard ids must be dense");
    if (shard.demand.dims() != dims_)
      throw std::invalid_argument("Instance: shard demand dims mismatch");
    if (shard.moveBytes < 0.0) throw std::invalid_argument("Instance: negative moveBytes");
    const MachineId home = initial_[s];
    if (home >= machines_.size())
      throw std::invalid_argument("Instance: initial machine out of range");
  }
  if (replicaGroup_.size() != shards_.size())
    throw std::invalid_argument("Instance: replica group size mismatch");
  for (const auto& members : groupMembers_) {
    if (members.size() > machines_.size())
      throw std::invalid_argument("Instance: more replicas than machines");
    for (std::size_t i = 0; i < members.size(); ++i)
      for (std::size_t j = i + 1; j < members.size(); ++j)
        if (initial_[members[i]] == initial_[members[j]])
          throw std::invalid_argument(
              "Instance: initial placement co-locates replicas");
  }
}

double Instance::loadFactor() const noexcept {
  const ResourceVector demand = totalDemand();
  const ResourceVector capacity = totalRegularCapacity();
  return demand.utilizationAgainst(capacity);
}

ResourceVector Instance::totalDemand() const noexcept {
  ResourceVector total(dims_);
  for (const Shard& s : shards_) total += s.demand;
  return total;
}

ResourceVector Instance::totalRegularCapacity() const noexcept {
  ResourceVector total(dims_);
  for (std::size_t i = 0; i < regularCount(); ++i) total += machines_[i].capacity;
  return total;
}

Instance Instance::withDemands(std::span<const ResourceVector> demands,
                               std::vector<MachineId> placement) const {
  if (demands.size() != shards_.size())
    throw std::invalid_argument("Instance: one demand per shard required");
  std::vector<Shard> shards = shards_;
  for (ShardId s = 0; s < shards.size(); ++s) shards[s].demand = demands[s];
  return Instance(dims_, machines_, std::move(shards), std::move(placement),
                  exchangeCount_, gamma_, replicaGroup_);
}

Instance Instance::afterCrash(std::span<const MachineId> crashed,
                              std::vector<MachineId> placement) const {
  std::vector<Machine> machines = machines_;
  for (const MachineId dead : crashed) {
    if (dead >= machines.size())
      throw std::invalid_argument("Instance: crashed machine out of range");
    machines[dead].crashed = true;
  }
  return Instance(dims_, std::move(machines), shards_, std::move(placement),
                  exchangeCount_, gamma_, replicaGroup_);
}

// Format:
//   resex-instance v1
//   dims <d>
//   gamma <g0> ... <gd-1>
//   machines <count> exchange <k>
//   <sku> <c0> ... <cd-1>          (one line per machine)
//   shards <count>
//   <home> <bytes> <w0> ... <wd-1> (one line per shard)
//   replicas <g0> ... <gn-1>        (optional: replica group per shard)
//   crashed <count> <m0> ...        (optional: crashed machine ids)
std::string Instance::serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "resex-instance v1\n";
  out << "dims " << dims_ << "\n";
  out << "gamma";
  for (std::size_t d = 0; d < dims_; ++d) out << ' ' << gamma_[d];
  out << "\n";
  out << "machines " << machines_.size() << " exchange " << exchangeCount_ << "\n";
  for (const Machine& m : machines_) {
    out << m.sku;
    for (std::size_t d = 0; d < dims_; ++d) out << ' ' << m.capacity[d];
    out << "\n";
  }
  out << "shards " << shards_.size() << "\n";
  for (const Shard& s : shards_) {
    out << initial_[s.id] << ' ' << s.moveBytes;
    for (std::size_t d = 0; d < dims_; ++d) out << ' ' << s.demand[d];
    out << "\n";
  }
  if (replicated_) {
    out << "replicas";
    for (const std::uint32_t g : replicaGroup_) out << ' ' << g;
    out << "\n";
  }
  if (crashedCount_ > 0) {
    out << "crashed " << crashedCount_;
    for (const Machine& m : machines_)
      if (m.crashed) out << ' ' << m.id;
    out << "\n";
  }
  return out.str();
}

Instance Instance::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string token;
  std::string version;
  in >> token >> version;
  if (token != "resex-instance" || version != "v1")
    throw std::runtime_error("Instance: bad header");

  std::size_t dims = 0;
  in >> token >> dims;
  if (token != "dims") throw std::runtime_error("Instance: expected dims");
  if (dims == 0 || dims > kMaxResourceDims) throw std::runtime_error("Instance: bad dims");

  ResourceVector gamma(dims);
  in >> token;
  if (token != "gamma") throw std::runtime_error("Instance: expected gamma");
  for (std::size_t d = 0; d < dims; ++d) in >> gamma[d];

  std::size_t machineCount = 0;
  std::size_t exchangeCount = 0;
  in >> token >> machineCount;
  if (token != "machines") throw std::runtime_error("Instance: expected machines");
  in >> token >> exchangeCount;
  if (token != "exchange") throw std::runtime_error("Instance: expected exchange");

  std::vector<Machine> machines(machineCount);
  for (std::size_t i = 0; i < machineCount; ++i) {
    machines[i].id = static_cast<MachineId>(i);
    machines[i].capacity = ResourceVector(dims);
    in >> machines[i].sku;
    for (std::size_t d = 0; d < dims; ++d) in >> machines[i].capacity[d];
  }

  std::size_t shardCount = 0;
  in >> token >> shardCount;
  if (token != "shards") throw std::runtime_error("Instance: expected shards");
  std::vector<Shard> shards(shardCount);
  std::vector<MachineId> initial(shardCount);
  for (std::size_t s = 0; s < shardCount; ++s) {
    shards[s].id = static_cast<ShardId>(s);
    shards[s].demand = ResourceVector(dims);
    in >> initial[s] >> shards[s].moveBytes;
    for (std::size_t d = 0; d < dims; ++d) in >> shards[s].demand[d];
  }
  if (!in) throw std::runtime_error("Instance: truncated input");

  std::vector<std::uint32_t> replicaGroup;
  while (in >> token) {
    if (token == "replicas") {
      replicaGroup.resize(shardCount);
      for (std::size_t s = 0; s < shardCount; ++s) in >> replicaGroup[s];
      if (!in) throw std::runtime_error("Instance: truncated replica section");
    } else if (token == "crashed") {
      std::size_t crashedCount = 0;
      if (!(in >> crashedCount))
        throw std::runtime_error("Instance: truncated crashed section");
      for (std::size_t i = 0; i < crashedCount; ++i) {
        MachineId dead = 0;
        if (!(in >> dead)) throw std::runtime_error("Instance: truncated crashed section");
        if (dead >= machineCount)
          throw std::runtime_error("Instance: crashed machine out of range");
        machines[dead].crashed = true;
      }
    } else {
      throw std::runtime_error("Instance: unexpected section");
    }
  }

  return Instance(dims, std::move(machines), std::move(shards), std::move(initial),
                  exchangeCount, std::move(gamma), std::move(replicaGroup));
}

void Instance::saveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Instance: cannot open " + path);
  out << serialize();
}

Instance Instance::loadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Instance: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return deserialize(buffer.str());
}

}  // namespace resex
