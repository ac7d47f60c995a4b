// Uncoarsening: project a partition from a coarse graph to the next finer
// level through the fine-to-coarse vertex map, and record each refined
// level's flight sample.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "support/flight_recorder.hpp"
#include "support/types.hpp"

namespace mcgp {

/// fine_part[v] = coarse_part[cmap[v]] for every fine vertex v.
void project_partition(const std::vector<idx_t>& cmap,
                       const std::vector<idx_t>& coarse_part,
                       std::vector<idx_t>& fine_part);

/// Record the state of `g` at hierarchy `level` (-1 = not level-scoped)
/// in `flight`, after a memory reading: `stage`, `g`'s size, the cut, the
/// per-constraint imbalance `lb` and its worst entry, and the `feasible`
/// verdict (-1 = not evaluated). The drivers record each refined
/// uncoarsening level this way, and partition() the final partition.
void record_level_sample(FlightRecorder& flight, FlightSample::Stage stage,
                         int level, const Graph& g, sum_t cut,
                         const std::vector<real_t>& lb, int feasible = -1);

}  // namespace mcgp
