#include "mesh/mesh.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/graph_io.hpp"

namespace mcgp {

std::string Mesh::validate() const {
  if (nelems < 0 || nnodes < 0) return "negative counts";
  if (eptr.size() != to_size(nelems) + 1)
    return "eptr size != nelems+1";
  if (eptr[0] != 0) return "eptr[0] != 0";
  for (idx_t e = 0; e < nelems; ++e) {
    if (eptr[to_size(e) + 1] < eptr[to_size(e)])
      return "eptr not monotone";
  }
  if (to_size(eptr[to_size(nelems)]) != eind.size())
    return "eptr[nelems] != eind.size()";
  for (idx_t e = 0; e < nelems; ++e) {
    for (idx_t i = eptr[to_size(e)]; i < eptr[to_size(e) + 1]; ++i) {
      const idx_t n = eind[to_size(i)];
      if (n < 0 || n >= nnodes) return "node id out of range";
      for (idx_t j = eptr[to_size(e)]; j < i; ++j) {
        if (eind[to_size(j)] == n) return "duplicate node in element";
      }
    }
  }
  return std::string();
}

namespace {

constexpr long long kIdxMax = std::numeric_limits<idx_t>::max();

[[noreturn]] void parse_error(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("mesh parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

Mesh read_metis_mesh(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_metis_line(in, line, line_no)) {
    parse_error(line_no, "missing header");
  }
  long long ne = 0, nn = -1;
  {
    std::istringstream hs(line);
    if (!(hs >> ne)) parse_error(line_no, "bad header");
    hs >> nn;  // optional
    if (ne < 0) parse_error(line_no, "negative nelems");
    if (ne > kIdxMax || nn > kIdxMax) {
      parse_error(line_no, "nelems/nnodes " + std::to_string(ne) + "/" +
                               std::to_string(nn) + " overflow idx_t (max " +
                               std::to_string(kIdxMax) + ")");
    }
  }

  // eptr grows as element lines arrive: the header's count is not backed
  // by any data yet, so it sizes nothing.
  Mesh m;
  m.nelems = static_cast<idx_t>(ne);
  idx_t max_node = -1;
  for (long long e = 0; e < ne; ++e) {
    if (!next_metis_line(in, line, line_no))
      parse_error(line_no, "unexpected EOF (fewer element lines than nelems)");
    std::istringstream ls(line);
    long long node;
    idx_t count = 0;
    while (ls >> node) {
      if (node < 1) parse_error(line_no, "node id must be >= 1");
      if (node > kIdxMax) parse_error(line_no, "node id overflows idx_t");
      if (m.eind.size() >= to_size(kIdxMax)) {
        parse_error(line_no, "element entries overflow idx_t");
      }
      m.eind.push_back(static_cast<idx_t>(node - 1));
      max_node = std::max(max_node, static_cast<idx_t>(node - 1));
      ++count;
    }
    if (count == 0) parse_error(line_no, "empty element line");
    m.eptr.push_back(static_cast<idx_t>(m.eind.size()));
  }
  m.nnodes = nn >= 0 ? static_cast<idx_t>(nn) : max_node + 1;
  if (max_node >= m.nnodes)
    parse_error(line_no, "node id exceeds declared nnodes");

  const std::string problem = m.validate();
  if (!problem.empty()) throw std::runtime_error("mesh invalid: " + problem);
  return m;
}

Mesh read_metis_mesh_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open mesh file: " + path);
  return read_metis_mesh(in);
}

void write_metis_mesh(std::ostream& out, const Mesh& m) {
  out << m.nelems << ' ' << m.nnodes << '\n';
  for (idx_t e = 0; e < m.nelems; ++e) {
    for (idx_t i = m.eptr[to_size(e)];
         i < m.eptr[to_size(e) + 1]; ++i) {
      if (i > m.eptr[to_size(e)]) out << ' ';
      out << (m.eind[to_size(i)] + 1);
    }
    out << '\n';
  }
}

void write_metis_mesh_file(const std::string& path, const Mesh& m) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  write_metis_mesh(out, m);
}

Mesh quad_mesh(idx_t nx, idx_t ny) {
  if (nx < 1 || ny < 1) throw std::invalid_argument("quad_mesh: empty mesh");
  Mesh m;
  m.nelems = nx * ny;
  m.nnodes = (nx + 1) * (ny + 1);
  auto node = [&](idx_t x, idx_t y) { return x * (ny + 1) + y; };
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      m.eind.push_back(node(x, y));
      m.eind.push_back(node(x + 1, y));
      m.eind.push_back(node(x + 1, y + 1));
      m.eind.push_back(node(x, y + 1));
      m.eptr.push_back(static_cast<idx_t>(m.eind.size()));
    }
  }
  return m;
}

Mesh tri_mesh(idx_t nx, idx_t ny) {
  if (nx < 1 || ny < 1) throw std::invalid_argument("tri_mesh: empty mesh");
  Mesh m;
  m.nelems = 2 * nx * ny;
  m.nnodes = (nx + 1) * (ny + 1);
  auto node = [&](idx_t x, idx_t y) { return x * (ny + 1) + y; };
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      // Split each cell along the (x,y)-(x+1,y+1) diagonal.
      m.eind.push_back(node(x, y));
      m.eind.push_back(node(x + 1, y));
      m.eind.push_back(node(x + 1, y + 1));
      m.eptr.push_back(static_cast<idx_t>(m.eind.size()));
      m.eind.push_back(node(x, y));
      m.eind.push_back(node(x + 1, y + 1));
      m.eind.push_back(node(x, y + 1));
      m.eptr.push_back(static_cast<idx_t>(m.eind.size()));
    }
  }
  return m;
}

Mesh hex_mesh(idx_t nx, idx_t ny, idx_t nz) {
  if (nx < 1 || ny < 1 || nz < 1)
    throw std::invalid_argument("hex_mesh: empty mesh");
  Mesh m;
  m.nelems = nx * ny * nz;
  m.nnodes = (nx + 1) * (ny + 1) * (nz + 1);
  auto node = [&](idx_t x, idx_t y, idx_t z) {
    return (x * (ny + 1) + y) * (nz + 1) + z;
  };
  for (idx_t x = 0; x < nx; ++x) {
    for (idx_t y = 0; y < ny; ++y) {
      for (idx_t z = 0; z < nz; ++z) {
        static constexpr std::array<std::array<idx_t, 3>, 8> kCorners = {
            {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
             {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}}};
        for (const auto& [dx, dy, dz] : kCorners) {
          m.eind.push_back(node(x + dx, y + dy, z + dz));
        }
        m.eptr.push_back(static_cast<idx_t>(m.eind.size()));
      }
    }
  }
  return m;
}

namespace {

/// node -> elements incidence in CSR form.
void build_node_to_elem(const Mesh& m, std::vector<idx_t>& nptr,
                        std::vector<idx_t>& nind) {
  nptr.assign(to_size(m.nnodes) + 1, 0);
  for (const idx_t n : m.eind) ++nptr[to_size(n) + 1];
  for (idx_t n = 0; n < m.nnodes; ++n) {
    nptr[to_size(n) + 1] += nptr[to_size(n)];
  }
  nind.resize(m.eind.size());
  std::vector<idx_t> fill(nptr.begin(), nptr.end() - 1);
  for (idx_t e = 0; e < m.nelems; ++e) {
    for (idx_t i = m.eptr[to_size(e)];
         i < m.eptr[to_size(e) + 1]; ++i) {
      const idx_t n = m.eind[to_size(i)];
      nind[to_size(fill[to_size(n)]++)] = e;
    }
  }
}

}  // namespace

Graph mesh_to_dual(const Mesh& m, idx_t ncommon, int ncon) {
  if (ncommon < 1) throw std::invalid_argument("mesh_to_dual: ncommon < 1");
  const std::string problem = m.validate();
  if (!problem.empty())
    throw std::invalid_argument("mesh_to_dual: invalid mesh: " + problem);

  std::vector<idx_t> nptr, nind;
  build_node_to_elem(m, nptr, nind);

  GraphBuilder b(m.nelems, ncon);
  // For each element, count shared nodes with every element that shares
  // at least one node, using a dense timestamped counter.
  std::vector<idx_t> shared(to_size(m.nelems), 0);
  std::vector<idx_t> touched;
  for (idx_t e = 0; e < m.nelems; ++e) {
    touched.clear();
    for (idx_t i = m.eptr[to_size(e)];
         i < m.eptr[to_size(e) + 1]; ++i) {
      const idx_t n = m.eind[to_size(i)];
      for (idx_t j = nptr[to_size(n)];
           j < nptr[to_size(n) + 1]; ++j) {
        const idx_t f = nind[to_size(j)];
        if (f <= e) continue;  // each unordered pair once
        if (shared[to_size(f)] == 0) touched.push_back(f);
        ++shared[to_size(f)];
      }
    }
    for (const idx_t f : touched) {
      if (shared[to_size(f)] >= ncommon) b.add_edge(e, f);
      shared[to_size(f)] = 0;
    }
  }
  return b.build();
}

Graph mesh_to_nodal(const Mesh& m, int ncon) {
  const std::string problem = m.validate();
  if (!problem.empty())
    throw std::invalid_argument("mesh_to_nodal: invalid mesh: " + problem);
  GraphBuilder b(m.nnodes, ncon);
  for (idx_t e = 0; e < m.nelems; ++e) {
    for (idx_t i = m.eptr[to_size(e)];
         i < m.eptr[to_size(e) + 1]; ++i) {
      for (idx_t j = m.eptr[to_size(e)]; j < i; ++j) {
        b.add_edge(m.eind[to_size(i)],
                   m.eind[to_size(j)]);
      }
    }
  }
  return b.build();
}

}  // namespace mcgp
