// Uncoarsening: project a partition from a coarse graph to the next finer
// level through the fine-to-coarse vertex map.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace mcgp {

/// fine_part[v] = coarse_part[cmap[v]] for every fine vertex v.
void project_partition(const std::vector<idx_t>& cmap,
                       const std::vector<idx_t>& coarse_part,
                       std::vector<idx_t>& fine_part);

}  // namespace mcgp
