#include "core/project.hpp"

#include <algorithm>

namespace mcgp {

void project_partition(const std::vector<idx_t>& cmap,
                       const std::vector<idx_t>& coarse_part,
                       std::vector<idx_t>& fine_part) {
  fine_part.resize(cmap.size());
  for (std::size_t v = 0; v < cmap.size(); ++v) {
    fine_part[v] = coarse_part[to_size(cmap[v])];
  }
}

void record_level_sample(FlightRecorder& flight, FlightSample::Stage stage,
                         int level, const Graph& g, sum_t cut,
                         const std::vector<real_t>& lb, int feasible) {
  flight.sample_memory();
  FlightSample fs;
  fs.stage = stage;
  fs.level = level;
  fs.ncon = g.ncon;
  fs.nvtxs = g.nvtxs;
  fs.nedges = g.nedges();
  fs.cut = cut;
  fs.feasible = feasible;
  for (int i = 0; i < g.ncon && i < kMaxNcon; ++i) {
    fs.imbalance[i] = lb[to_size(i)];
    fs.worst_imbalance = std::max(fs.worst_imbalance, lb[to_size(i)]);
  }
  flight.record(fs);
}

}  // namespace mcgp
