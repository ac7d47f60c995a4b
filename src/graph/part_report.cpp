#include "graph/part_report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "graph/metrics.hpp"
#include "support/check.hpp"
#include "support/flight_recorder.hpp"
#include "support/json_writer.hpp"
#include "support/profiler.hpp"
#include "support/schema.hpp"

namespace mcgp {

PartitionReport analyze_partition(const Graph& g,
                                  const std::vector<idx_t>& part,
                                  idx_t nparts) {
  PartitionReport rep;
  rep.nparts = nparts;
  rep.edge_cut = edge_cut(g, part);
  rep.communication_volume = communication_volume(g, part, nparts);
  rep.imbalance = imbalance(g, part, nparts);
  rep.parts.assign(to_size(nparts), PartStats{});
  for (auto& ps : rep.parts) {
    ps.weights.assign(to_size(g.ncon), 0);
    ps.shares.assign(to_size(g.ncon), 0.0);
  }

  // Adjacency between parts, deduplicated with a timestamped marker.
  std::vector<std::vector<char>> adj(
      to_size(nparts),
      std::vector<char>(to_size(nparts), 0));

  for (idx_t v = 0; v < g.nvtxs; ++v) {
    const idx_t p = part[to_size(v)];
    PartStats& ps = rep.parts[to_size(p)];
    ++ps.vertices;
    const wgt_t* w = g.weights(v);
    for (int i = 0; i < g.ncon; ++i) {
      ps.weights[to_size(i)] = checked_add(ps.weights[to_size(i)], w[i]);
    }

    bool on_boundary = false;
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      const idx_t q = part[to_size(g.adjncy[to_size(e)])];
      if (q != p) {
        on_boundary = true;
        ps.external_edge_weight =
            checked_add(ps.external_edge_weight, g.adjwgt[to_size(e)]);
        adj[to_size(p)][to_size(q)] = 1;
      }
    }
    if (on_boundary) ++ps.boundary_vertices;
  }

  for (idx_t p = 0; p < nparts; ++p) {
    PartStats& ps = rep.parts[to_size(p)];
    for (int i = 0; i < g.ncon; ++i) {
      if (g.tvwgt[to_size(i)] > 0) {
        ps.shares[to_size(i)] =
            static_cast<real_t>(ps.weights[to_size(i)]) *
            g.invtvwgt[to_size(i)];
      }
    }
    idx_t deg = 0;
    for (idx_t q = 0; q < nparts; ++q) {
      deg += adj[to_size(p)][to_size(q)];
    }
    ps.adjacent_parts = deg;
    rep.max_adjacent_parts = std::max(rep.max_adjacent_parts, deg);
  }
  return rep;
}

void print_report(std::ostream& out, const PartitionReport& rep) {
  out << "edge-cut: " << rep.edge_cut
      << "   comm-volume: " << rep.communication_volume
      << "   max subdomain connectivity: " << rep.max_adjacent_parts << "\n";
  out << "imbalance per constraint:";
  for (const real_t lb : rep.imbalance) out << ' ' << lb;
  out << "\n";
  if (rep.feasible >= 0) {
    out << "feasible: " << (rep.feasible != 0 ? "yes" : "NO")
        << "  (held to";
    for (const real_t u : rep.ubvec_used) out << ' ' << u;
    out << ")\n";
  }
  out << std::left << std::setw(6) << "part" << std::setw(10) << "vertices"
      << std::setw(10) << "boundary" << std::setw(8) << "nadj"
      << std::setw(10) << "ext-wgt" << "shares\n";
  for (idx_t p = 0; p < rep.nparts; ++p) {
    const PartStats& ps = rep.parts[to_size(p)];
    out << std::left << std::setw(6) << p << std::setw(10) << ps.vertices
        << std::setw(10) << ps.boundary_vertices << std::setw(8)
        << ps.adjacent_parts << std::setw(10) << ps.external_edge_weight;
    for (const real_t s : ps.shares) out << ' ' << std::setprecision(4) << s;
    out << "\n";
  }
}

void write_report_json(std::ostream& out, const PartitionReport& rep,
                       const FlightRecorder* flight,
                       const RunProfile* profile) {
  JsonWriter w(out);
  w.begin_object();
  w.member("schema_version", kMcgpSchemaVersion);
  w.member("nparts", rep.nparts);
  w.member("edge_cut", rep.edge_cut);
  w.member("communication_volume", rep.communication_volume);
  w.member("max_adjacent_parts", rep.max_adjacent_parts);
  w.key("imbalance");
  w.begin_array();
  for (const real_t lb : rep.imbalance) w.value(lb);
  w.end_array();
  if (rep.feasible >= 0) {
    w.member("feasible", rep.feasible != 0);
    w.key("ubvec_used");
    w.begin_array();
    for (const real_t u : rep.ubvec_used) w.value(u);
    w.end_array();
  }
  w.key("parts");
  w.begin_array();
  for (const PartStats& ps : rep.parts) {
    w.begin_object();
    w.member("vertices", ps.vertices);
    w.member("boundary_vertices", ps.boundary_vertices);
    w.member("adjacent_parts", ps.adjacent_parts);
    w.member("external_edge_weight", ps.external_edge_weight);
    w.key("weights");
    w.begin_array();
    for (const sum_t wt : ps.weights) w.value(wt);
    w.end_array();
    w.key("shares");
    w.begin_array();
    for (const real_t s : ps.shares) w.value(s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  if (flight != nullptr) {
    w.key("timeline");
    flight->write_json_value(w);
  }
  if (profile != nullptr) {
    w.key("profile");
    profile->write_json_value(w);
  }
  w.end_object();
  out << '\n';
}

std::string report_to_json(const PartitionReport& rep,
                           const FlightRecorder* flight,
                           const RunProfile* profile) {
  std::ostringstream out;
  write_report_json(out, rep, flight, profile);
  return out.str();
}

}  // namespace mcgp
