#include "core/project.hpp"

namespace mcgp {

void project_partition(const std::vector<idx_t>& cmap,
                       const std::vector<idx_t>& coarse_part,
                       std::vector<idx_t>& fine_part) {
  fine_part.resize(cmap.size());
  for (std::size_t v = 0; v < cmap.size(); ++v) {
    fine_part[v] = coarse_part[to_size(cmap[v])];
  }
}

}  // namespace mcgp
