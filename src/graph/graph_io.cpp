#include "graph/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace mcgp {

namespace {

constexpr long long kIdxMax = std::numeric_limits<idx_t>::max();
constexpr long long kWgtMax = std::numeric_limits<wgt_t>::max();

[[noreturn]] void parse_error(std::size_t line_no, const std::string& what,
                              const char* kind = "METIS graph") {
  std::ostringstream oss;
  oss << kind << " parse error at line " << line_no << ": " << what;
  throw std::runtime_error(oss.str());
}

}  // namespace

bool next_metis_line(std::istream& in, std::string& line,
                     std::size_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t i = 0;
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
    if (i == line.size()) continue;  // blank
    if (line[i] == '%') continue;    // comment
    return true;
  }
  return false;
}

Graph read_metis_graph(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_metis_line(in, line, line_no)) {
    parse_error(line_no, "missing header");
  }

  long long nvtxs = 0, nedges = 0;
  std::string fmt = "000";
  int ncon = 0;
  {
    std::istringstream hs(line);
    if (!(hs >> nvtxs >> nedges)) parse_error(line_no, "bad header");
    std::string tok;
    if (hs >> tok) {
      if (tok.size() > 3 || tok.find_first_not_of("01") != std::string::npos) {
        parse_error(line_no,
                    "fmt must be at most three 0/1 flags (got \"" + tok +
                        "\")");
      }
      fmt = tok;
    }
    if (hs >> ncon) {
      if (ncon < 1 || ncon > kMaxNcon) parse_error(line_no, "ncon out of range");
    }
    if (nvtxs < 0 || nedges < 0) parse_error(line_no, "negative counts");
    if (nvtxs > kIdxMax) {
      parse_error(line_no, "nvtxs " + std::to_string(nvtxs) +
                               " overflows idx_t (max " +
                               std::to_string(kIdxMax) + ")");
    }
    if (nedges > kIdxMax / 2) {
      parse_error(line_no, "nedges " + std::to_string(nedges) +
                               " overflows idx_t (2 * nedges directed "
                               "entries, max " +
                               std::to_string(kIdxMax) + ")");
    }
  }
  while (fmt.size() < 3) fmt.insert(fmt.begin(), '0');
  const bool has_vsize = fmt[fmt.size() - 3] == '1';
  const bool has_vwgt = fmt[fmt.size() - 2] == '1';
  const bool has_ewgt = fmt[fmt.size() - 1] == '1';
  if (ncon == 0) ncon = has_vwgt ? 1 : 1;

  Graph g;
  g.nvtxs = static_cast<idx_t>(nvtxs);
  g.ncon = ncon;
  // The arrays grow as vertex lines arrive (xadj starts as {0}): the
  // header's counts are not backed by any data yet, so they size nothing.

  for (long long v = 0; v < nvtxs; ++v) {
    if (!next_metis_line(in, line, line_no))
      parse_error(line_no, "unexpected EOF (fewer vertex lines than nvtxs)");
    std::istringstream ls(line);
    if (has_vsize) {
      long long vs;
      if (!(ls >> vs)) parse_error(line_no, "missing vertex size");
      if (vs < 0) parse_error(line_no, "negative vertex size");
    }
    for (int i = 0; i < ncon; ++i) {
      long long w = 1;
      if (has_vwgt) {
        if (!(ls >> w)) parse_error(line_no, "missing vertex weight");
        if (w < 0) parse_error(line_no, "negative vertex weight");
        if (w > kWgtMax) parse_error(line_no, "vertex weight overflows wgt_t");
      }
      g.vwgt.push_back(static_cast<wgt_t>(w));
    }
    long long u;
    while (ls >> u) {
      if (u < 1 || u > nvtxs) parse_error(line_no, "neighbor id out of range");
      wgt_t w = 1;
      if (has_ewgt) {
        long long ew;
        if (!(ls >> ew)) parse_error(line_no, "missing edge weight");
        if (ew < 1) parse_error(line_no, "edge weight must be >= 1");
        if (ew > kWgtMax) parse_error(line_no, "edge weight overflows wgt_t");
        w = static_cast<wgt_t>(ew);
      }
      if (g.adjncy.size() >= to_size(kIdxMax)) {
        parse_error(line_no, "adjacency entries overflow idx_t");
      }
      g.adjncy.push_back(static_cast<idx_t>(u - 1));
      g.adjwgt.push_back(w);
    }
    g.xadj.push_back(static_cast<idx_t>(g.adjncy.size()));
  }

  if (g.adjncy.size() != to_size(2 * nedges)) {
    // Counts are reported as integer directed entries: every undirected
    // edge must appear once in each endpoint's line, so the header
    // promises exactly 2 * nedges entries.
    const long long expect = 2 * nedges;
    const long long got = static_cast<long long>(g.adjncy.size());
    const long long delta = got - expect;
    std::ostringstream oss;
    oss << "edge count mismatch: header declares " << nedges
        << " edges (" << expect << " directed entries), vertex lines hold "
        << got << " (" << (delta > 0 ? "+" : "") << delta << ")";
    throw std::runtime_error(oss.str());
  }

  g.finalize();
  const std::string problem = g.validate();
  if (!problem.empty())
    throw std::runtime_error("METIS graph invalid: " + problem);
  return g;
}

Graph read_metis_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  return read_metis_graph(in);
}

void write_metis_graph(std::ostream& out, const Graph& g) {
  bool need_vwgt = g.ncon > 1;
  if (!need_vwgt) {
    for (const wgt_t w : g.vwgt) {
      if (w != 1) {
        need_vwgt = true;
        break;
      }
    }
  }
  bool need_ewgt = false;
  for (const wgt_t w : g.adjwgt) {
    if (w != 1) {
      need_ewgt = true;
      break;
    }
  }
  out << g.nvtxs << ' ' << g.nedges();
  if (need_vwgt || need_ewgt) {
    out << " 0" << (need_vwgt ? '1' : '0') << (need_ewgt ? '1' : '0');
    if (need_vwgt) out << ' ' << g.ncon;
  }
  out << '\n';
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    bool first = true;
    if (need_vwgt) {
      for (int i = 0; i < g.ncon; ++i) {
        if (!first) out << ' ';
        out << g.weight(v, i);
        first = false;
      }
    }
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      if (!first) out << ' ';
      out << (g.adjncy[to_size(e)] + 1);
      first = false;
      if (need_ewgt) out << ' ' << g.adjwgt[to_size(e)];
    }
    out << '\n';
  }
}

void write_metis_graph_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  write_metis_graph(out, g);
}

std::vector<idx_t> read_partition(std::istream& in) {
  std::vector<idx_t> part;
  std::string line;
  std::size_t line_no = 0;
  while (next_metis_line(in, line, line_no)) {
    const char* b = line.data() + line.find_first_not_of(" \t\r");
    const char* e = line.data() + line.find_last_not_of(" \t\r") + 1;
    idx_t p = 0;
    const auto [end, ec] = std::from_chars(b, e, p);
    if (ec != std::errc{} || end != e) {
      // Quote at most 32 characters of the offending entry.
      const std::string tok(b, std::min<std::size_t>(to_size(e - b), 32));
      parse_error(line_no,
                  ec == std::errc::result_out_of_range
                      ? "part id " + tok + " overflows idx_t"
                      : "expected one integer part id, got \"" + tok + "\"",
                  "partition");
    }
    part.push_back(p);
  }
  return part;
}

std::vector<idx_t> read_partition_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open partition file: " + path);
  return read_partition(in);
}

std::vector<idx_t> read_partition(std::istream& in, idx_t nvtxs,
                                  idx_t nparts) {
  std::vector<idx_t> part = read_partition(in);
  if (part.size() != to_size(nvtxs)) {
    std::ostringstream oss;
    oss << "partition has " << part.size() << " entries, graph has " << nvtxs
        << " vertices";
    throw std::runtime_error(oss.str());
  }
  for (std::size_t v = 0; v < part.size(); ++v) {
    if (part[v] < 0 || part[v] >= nparts) {
      std::ostringstream oss;
      oss << "partition entry " << v << " is " << part[v]
          << ", outside [0, " << nparts << ")";
      throw std::runtime_error(oss.str());
    }
  }
  return part;
}

std::vector<idx_t> read_partition_file(const std::string& path, idx_t nvtxs,
                                       idx_t nparts) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open partition file: " + path);
  return read_partition(in, nvtxs, nparts);
}

void write_partition(std::ostream& out, const std::vector<idx_t>& part) {
  for (const idx_t p : part) out << p << '\n';
}

void write_partition_file(const std::string& path,
                          const std::vector<idx_t>& part) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  write_partition(out, part);
}

}  // namespace mcgp
