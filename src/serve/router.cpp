#include "serve/router.hpp"

#include <algorithm>

namespace resex::serve {

std::size_t chooseReplica(std::span<const std::size_t> depths, Rng& rng) {
  const std::size_t count = depths.size();
  if (count <= 1) return 0;
  const auto [a, b] = rng.twoDistinct(count);
  if (depths[a] == depths[b]) return std::min(a, b);
  return depths[b] < depths[a] ? b : a;
}

}  // namespace resex::serve
