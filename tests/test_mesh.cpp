#include "mesh/mesh.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gen/mesh_gen.hpp"
#include "graph/graph_ops.hpp"

namespace mcgp {
namespace {

TEST(Mesh, QuadMeshSizes) {
  Mesh m = quad_mesh(3, 2);
  EXPECT_EQ(m.nelems, 6);
  EXPECT_EQ(m.nnodes, 12);
  for (idx_t e = 0; e < m.nelems; ++e) EXPECT_EQ(m.element_size(e), 4);
  EXPECT_TRUE(m.validate().empty()) << m.validate();
}

TEST(Mesh, TriMeshSizes) {
  Mesh m = tri_mesh(3, 3);
  EXPECT_EQ(m.nelems, 18);
  EXPECT_EQ(m.nnodes, 16);
  for (idx_t e = 0; e < m.nelems; ++e) EXPECT_EQ(m.element_size(e), 3);
  EXPECT_TRUE(m.validate().empty());
}

TEST(Mesh, HexMeshSizes) {
  Mesh m = hex_mesh(2, 2, 2);
  EXPECT_EQ(m.nelems, 8);
  EXPECT_EQ(m.nnodes, 27);
  for (idx_t e = 0; e < m.nelems; ++e) EXPECT_EQ(m.element_size(e), 8);
  EXPECT_TRUE(m.validate().empty());
}

TEST(Mesh, ValidateCatchesProblems) {
  Mesh m = quad_mesh(2, 2);
  m.eind[0] = 999;
  EXPECT_NE(m.validate().find("out of range"), std::string::npos);
  m = quad_mesh(2, 2);
  m.eind[1] = m.eind[0];
  EXPECT_NE(m.validate().find("duplicate"), std::string::npos);
}

TEST(MeshIo, RoundTrip) {
  Mesh m = tri_mesh(4, 3);
  std::ostringstream out;
  write_metis_mesh(out, m);
  std::istringstream in(out.str());
  Mesh r = read_metis_mesh(in);
  EXPECT_EQ(r.nelems, m.nelems);
  EXPECT_EQ(r.nnodes, m.nnodes);
  EXPECT_EQ(r.eptr, m.eptr);
  EXPECT_EQ(r.eind, m.eind);
}

TEST(MeshIo, InfersNodeCount) {
  std::istringstream in("2\n1 2 3\n2 3 4\n");
  Mesh m = read_metis_mesh(in);
  EXPECT_EQ(m.nelems, 2);
  EXPECT_EQ(m.nnodes, 4);
}

TEST(MeshIo, CommentsSkipped) {
  std::istringstream in("% header comment\n1 3\n% body\n1 2 3\n");
  Mesh m = read_metis_mesh(in);
  EXPECT_EQ(m.nelems, 1);
  EXPECT_EQ(m.nnodes, 3);
}

TEST(MeshIo, Errors) {
  {
    std::istringstream in("");
    EXPECT_THROW(read_metis_mesh(in), std::runtime_error);
  }
  {
    std::istringstream in("3\n1 2\n");
    EXPECT_THROW(read_metis_mesh(in), std::runtime_error);  // missing lines
  }
  {
    std::istringstream in("1\n0 1\n");
    EXPECT_THROW(read_metis_mesh(in), std::runtime_error);  // 0-based id
  }
  {
    std::istringstream in("1 2\n1 5\n");
    EXPECT_THROW(read_metis_mesh(in), std::runtime_error);  // id > nnodes
  }
  EXPECT_THROW(read_metis_mesh_file("/nonexistent.mesh"), std::runtime_error);
}

TEST(MeshIo, HostileHeaderCounts) {
  const auto error_of = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      read_metis_mesh(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "<no error>";
  };
  // Nothing backs the header's element count, so nothing is sized by it.
  std::string msg = error_of("2000000000\n");
  EXPECT_NE(msg.find("at line 1: unexpected EOF"), std::string::npos) << msg;
  msg = error_of("3000000000\n");
  EXPECT_NE(msg.find("at line 1: nelems/nnodes"), std::string::npos) << msg;
  EXPECT_NE(msg.find("overflow idx_t"), std::string::npos) << msg;
  msg = error_of("1 3000000000\n1 2\n");
  EXPECT_NE(msg.find("overflow idx_t"), std::string::npos) << msg;
  msg = error_of("1\n1 3000000000\n");
  EXPECT_NE(msg.find("at line 2: node id overflows idx_t"), std::string::npos)
      << msg;
}

TEST(MeshToDual, QuadDualIsGrid) {
  // The dual of an nx x ny quad mesh with ncommon=2 (shared edge) is
  // exactly the nx x ny 4-point grid graph.
  Mesh m = quad_mesh(5, 4);
  Graph dual = mesh_to_dual(m, 2);
  Graph grid = grid2d(5, 4);
  EXPECT_EQ(dual.nvtxs, grid.nvtxs);
  EXPECT_EQ(dual.nedges(), grid.nedges());
  EXPECT_TRUE(dual.validate().empty());
  // Degree sequences match position-wise up to the element numbering,
  // which matches grid2d's row-major layout.
  for (idx_t v = 0; v < dual.nvtxs; ++v) {
    EXPECT_EQ(dual.degree(v), grid.degree(v)) << "element " << v;
  }
}

TEST(MeshToDual, HexDualIsGrid3d) {
  Mesh m = hex_mesh(3, 3, 3);
  Graph dual = mesh_to_dual(m, 4);  // shared face = 4 common nodes
  Graph grid = grid3d(3, 3, 3);
  EXPECT_EQ(dual.nvtxs, grid.nvtxs);
  EXPECT_EQ(dual.nedges(), grid.nedges());
}

TEST(MeshToDual, NcommonControlsAdjacency) {
  Mesh m = quad_mesh(4, 4);
  // ncommon=1: corner-sharing quads also become adjacent (8-point stencil
  // interior -> more edges than the 4-point dual).
  Graph corner = mesh_to_dual(m, 1);
  Graph edge = mesh_to_dual(m, 2);
  EXPECT_GT(corner.nedges(), edge.nedges());
  EXPECT_EQ(count_components(corner), 1);
}

TEST(MeshToDual, TriDualConnected) {
  Mesh m = tri_mesh(6, 6);
  Graph dual = mesh_to_dual(m, 2);
  EXPECT_EQ(dual.nvtxs, m.nelems);
  EXPECT_EQ(count_components(dual), 1);
  // A triangle has at most 3 edge-neighbors.
  for (idx_t v = 0; v < dual.nvtxs; ++v) EXPECT_LE(dual.degree(v), 3);
}

TEST(MeshToNodal, QuadNodalStructure) {
  Mesh m = quad_mesh(2, 2);
  Graph nodal = mesh_to_nodal(m);
  EXPECT_EQ(nodal.nvtxs, m.nnodes);
  EXPECT_TRUE(nodal.validate().empty());
  EXPECT_EQ(count_components(nodal), 1);
  // The center node of a 2x2 quad mesh touches all four elements and thus
  // all 8 other nodes.
  idx_t max_deg = 0;
  for (idx_t v = 0; v < nodal.nvtxs; ++v) max_deg = std::max(max_deg, nodal.degree(v));
  EXPECT_EQ(max_deg, 8);
}

TEST(MeshToDual, RejectsBadInput) {
  Mesh m = quad_mesh(2, 2);
  EXPECT_THROW(mesh_to_dual(m, 0), std::invalid_argument);
  m.eind[0] = 999;
  EXPECT_THROW(mesh_to_dual(m, 2), std::invalid_argument);
  EXPECT_THROW(mesh_to_nodal(m), std::invalid_argument);
}

}  // namespace
}  // namespace mcgp
