// Fundamental identifier types for the cluster model.
#pragma once

#include <cstdint>
#include <limits>

namespace resex {

/// Index of a shard within an Instance (dense, 0-based).
using ShardId = std::uint32_t;

/// Index of a machine within an Instance (dense, 0-based; generators put
/// the borrowed exchange machines at the tail of the machine array).
using MachineId = std::uint32_t;

/// Sentinel for "shard not currently assigned to any machine".
inline constexpr MachineId kNoMachine = std::numeric_limits<MachineId>::max();

/// Canonical resource dimension names used by generators and reports.
/// Instances may use any subset/count of dimensions; these are labels only.
enum class ResourceDim : std::uint32_t { Cpu = 0, Memory = 1, DiskBw = 2, NetworkBw = 3 };

/// Human-readable label for a canonical dimension index.
const char* dimName(std::size_t dim) noexcept;

}  // namespace resex
