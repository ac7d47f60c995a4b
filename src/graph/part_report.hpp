// Human-readable partition quality reports: per-part weight shares,
// boundary sizes, subdomain connectivity — the kind of summary a user
// inspects before trusting a decomposition.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"

namespace mcgp {

class FlightRecorder;
struct RunProfile;

struct PartStats {
  idx_t vertices = 0;
  std::vector<sum_t> weights;    ///< per-constraint weight
  std::vector<real_t> shares;    ///< weight / total, per constraint
  idx_t boundary_vertices = 0;   ///< vertices with a cut edge
  idx_t adjacent_parts = 0;      ///< distinct neighboring subdomains
  sum_t external_edge_weight = 0;///< cut weight incident to this part
};

struct PartitionReport {
  idx_t nparts = 0;
  sum_t edge_cut = 0;
  sum_t communication_volume = 0;
  std::vector<real_t> imbalance;     ///< per constraint
  std::vector<PartStats> parts;
  idx_t max_adjacent_parts = 0;      ///< worst subdomain connectivity
  /// Balance-contract verdict, when the caller has one (analyze_partition
  /// cannot compute it — the tolerances live in the run, not the graph):
  /// -1 unknown, else PartitionResult::feasible with the tolerances the
  /// run was held to in `ubvec_used`.
  int feasible = -1;
  std::vector<real_t> ubvec_used;
};

/// Compute the full report in one pass over the graph.
PartitionReport analyze_partition(const Graph& g,
                                  const std::vector<idx_t>& part,
                                  idx_t nparts);

/// Pretty-print (fixed-width table plus summary lines).
void print_report(std::ostream& out, const PartitionReport& report);

/// Machine-readable counterpart of print_report: serialize every report
/// field as one JSON object (stamped with "schema_version"). A non-null
/// `flight` additionally embeds its retained sample window plus memory
/// high-water marks as a "timeline" section; a non-null `profile` (a
/// run's PartitionResult::profile) embeds its per-(phase, level) wall and
/// thread CPU time as a "profile" section.
void write_report_json(std::ostream& out, const PartitionReport& report,
                       const FlightRecorder* flight = nullptr,
                       const RunProfile* profile = nullptr);
std::string report_to_json(const PartitionReport& report,
                           const FlightRecorder* flight = nullptr,
                           const RunProfile* profile = nullptr);

}  // namespace mcgp
