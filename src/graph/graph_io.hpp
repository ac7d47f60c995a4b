// METIS-compatible graph and partition file I/O.
//
// The .graph format (METIS 4/5 manual):
//   header:  <nvtxs> <nedges> [fmt [ncon]]
//   fmt is a 3-digit flag string "abc": a = vertex sizes present (ignored
//   here), b = vertex weights present, c = edge weights present.
//   Each following non-comment line i lists vertex i's [ncon weights]
//   followed by (neighbor, [edge weight]) pairs with 1-based neighbor ids.
//   Lines starting with '%' are comments.
//
// Partition files contain one 0-based part id per line.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"

namespace mcgp {

/// Fetch the next line of a METIS-format file that is neither blank nor a
/// '%' comment, counting every line read in `line_no`. Returns false at
/// EOF. Shared by the graph and mesh readers.
bool next_metis_line(std::istream& in, std::string& line,
                     std::size_t& line_no);

/// Parse a METIS-format graph from a stream. Throws std::runtime_error on
/// malformed input (with a line number in the message).
Graph read_metis_graph(std::istream& in);

/// Parse a METIS-format graph from a file. Throws on I/O or parse errors.
Graph read_metis_graph_file(const std::string& path);

/// Write a graph in METIS format. Vertex weights are emitted whenever
/// ncon > 1 or any weight differs from 1; edge weights whenever any edge
/// weight differs from 1.
void write_metis_graph(std::ostream& out, const Graph& g);
void write_metis_graph_file(const std::string& path, const Graph& g);

/// Read / write a partition vector (one part id per line). Blank and '%'
/// lines are skipped; a line holding anything but one integer that fits
/// idx_t throws std::runtime_error naming the line.
std::vector<idx_t> read_partition(std::istream& in);
std::vector<idx_t> read_partition_file(const std::string& path);

/// Validating variants: throw std::runtime_error unless the file holds
/// exactly `nvtxs` entries, every one inside [0, nparts). Use these when
/// the partition feeds refine_partition or metrics for a known graph.
std::vector<idx_t> read_partition(std::istream& in, idx_t nvtxs,
                                  idx_t nparts);
std::vector<idx_t> read_partition_file(const std::string& path, idx_t nvtxs,
                                       idx_t nparts);
void write_partition(std::ostream& out, const std::vector<idx_t>& part);
void write_partition_file(const std::string& path,
                          const std::vector<idx_t>& part);

}  // namespace mcgp
