#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"

namespace mcgp {
namespace {

TEST(GraphIo, ParsesPlainGraph) {
  // The 7-vertex example from the METIS manual (unweighted).
  std::istringstream in(
      "7 11\n"
      "5 3 2\n"
      "1 3 4\n"
      "5 4 2 1\n"
      "2 3 6 7\n"
      "1 3 6\n"
      "5 4 7\n"
      "6 4\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.nvtxs, 7);
  EXPECT_EQ(g.nedges(), 11);
  EXPECT_EQ(g.ncon, 1);
  EXPECT_TRUE(g.validate().empty());
}

TEST(GraphIo, ParsesCommentsAndBlankLines) {
  std::istringstream in(
      "% a comment\n"
      "\n"
      "2 1\n"
      "% another\n"
      "2\n"
      "1\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.nvtxs, 2);
  EXPECT_EQ(g.nedges(), 1);
}

TEST(GraphIo, ParsesEdgeWeights) {
  std::istringstream in(
      "3 2 001\n"
      "2 7\n"
      "1 7 3 2\n"
      "2 2\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.adjwgt[to_size(g.xadj[0])], 7);
  EXPECT_TRUE(g.validate().empty());
}

TEST(GraphIo, ParsesVertexWeightsMultiConstraint) {
  std::istringstream in(
      "2 1 010 3\n"
      "1 2 3 2\n"
      "4 5 6 1\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.ncon, 3);
  EXPECT_EQ(g.weight(0, 1), 2);
  EXPECT_EQ(g.weight(1, 2), 6);
}

TEST(GraphIo, ParsesVertexSizesFlagIgnored) {
  std::istringstream in(
      "2 1 100\n"
      "9 2\n"
      "4 1\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.nedges(), 1);
}

TEST(GraphIo, ErrorsOnBadHeader) {
  std::istringstream in("x y\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorsOnMissingLines) {
  std::istringstream in("3 2\n2\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorsOnNeighborOutOfRange) {
  std::istringstream in("2 1\n3\n1\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorsOnEdgeCountMismatch) {
  std::istringstream in("3 5\n2\n1 3\n2\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorsOnAsymmetricInput) {
  std::istringstream in("2 1\n2\n\n");
  // vertex 1 lists vertex 2, but vertex 2's line is empty -> asymmetric.
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorsOnMissingEdgeWeight) {
  std::istringstream in("2 1 001\n2\n1 5\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorsOnZeroOrNegativeEdgeWeight) {
  std::istringstream zero("2 1 001\n2 0\n1 0\n");
  EXPECT_THROW(read_metis_graph(zero), std::runtime_error);
  std::istringstream negative("2 1 001\n2 -3\n1 -3\n");
  EXPECT_THROW(read_metis_graph(negative), std::runtime_error);
}

TEST(GraphIo, ErrorsOnMalformedFmtToken) {
  // fmt must be at most three characters, each 0 or 1.
  std::istringstream bad_char("2 1 012\n2\n1\n");
  EXPECT_THROW(read_metis_graph(bad_char), std::runtime_error);
  std::istringstream alpha("2 1 abc\n2\n1\n");
  EXPECT_THROW(read_metis_graph(alpha), std::runtime_error);
  std::istringstream too_long("2 1 0011\n2\n1\n");
  EXPECT_THROW(read_metis_graph(too_long), std::runtime_error);
}

TEST(GraphIo, ErrorsOnNegativeHeaderCounts) {
  std::istringstream in("-2 1\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, ErrorsOnNconOutOfRange) {
  std::istringstream in("2 1 010 99\n1 2\n1 1\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, EdgeCountMismatchMessageUsesIntegers) {
  // 3 directed entries against a header promising 2 edges (4 entries):
  // the old message printed "1.5 (directed/2)"; it must now report whole
  // directed-entry counts and the signed delta.
  std::istringstream in("3 2\n2\n1\n2\n");
  try {
    read_metis_graph(in);
    FAIL() << "expected edge count mismatch";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("1.5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4 directed entries"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("-1"), std::string::npos) << msg;
  }
}

std::string graph_parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    read_metis_graph(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "<no error>";
}

TEST(GraphIo, HeaderCountsAloneAllocateNothing) {
  // 13 bytes claiming two billion vertices: the parser must run out of
  // lines, not of memory, since nothing backs the header's counts.
  const std::string msg = graph_parse_error("2000000000 1\n");
  EXPECT_NE(msg.find("at line 1: unexpected EOF"), std::string::npos) << msg;
}

TEST(GraphIo, RejectsCountsAndWeightsThatOverflow) {
  std::string msg = graph_parse_error("3000000000 1\n");
  EXPECT_NE(msg.find("at line 1: nvtxs 3000000000 overflows idx_t"),
            std::string::npos)
      << msg;
  msg = graph_parse_error("% comment\n4 1500000000\n");
  EXPECT_NE(msg.find("at line 2: nedges 1500000000 overflows idx_t"),
            std::string::npos)
      << msg;
  msg = graph_parse_error("2 1 011\n3000000000 2 1\n1 1 1\n");
  EXPECT_NE(msg.find("at line 2: vertex weight overflows wgt_t"),
            std::string::npos)
      << msg;
  msg = graph_parse_error("2 1 001\n2 1\n1 3000000000\n");
  EXPECT_NE(msg.find("at line 3: edge weight overflows wgt_t"),
            std::string::npos)
      << msg;
}

TEST(GraphIo, ErrorsOnNegativeVertexSize) {
  std::istringstream in("2 1 100\n-1 2\n4 1\n");
  EXPECT_THROW(read_metis_graph(in), std::runtime_error);
}

TEST(GraphIo, VsizeGraphRoundTripsThroughWriter) {
  // A graph whose file carries vertex sizes parses to the same structure
  // as its writer output (which never emits the vsize column).
  std::istringstream in(
      "3 2 110 1\n"
      "9 2 2\n"
      "4 1 1 3\n"
      "7 3 2\n");
  Graph g = read_metis_graph(in);
  EXPECT_EQ(g.nvtxs, 3);
  EXPECT_EQ(g.nedges(), 2);
  EXPECT_EQ(g.weight(0, 0), 2);
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in2(out.str());
  Graph h = read_metis_graph(in2);
  EXPECT_EQ(h.vwgt, g.vwgt);
  EXPECT_EQ(h.adjncy, g.adjncy);
  EXPECT_EQ(h.adjwgt, g.adjwgt);
}

TEST(GraphIo, RoundTripPlain) {
  Graph g = grid2d(5, 7);
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in(out.str());
  Graph h = read_metis_graph(in);
  EXPECT_EQ(h.nvtxs, g.nvtxs);
  EXPECT_EQ(h.nedges(), g.nedges());
  EXPECT_EQ(h.xadj, g.xadj);
  EXPECT_EQ(h.adjncy, g.adjncy);
}

TEST(GraphIo, RoundTripMultiConstraintWeighted) {
  Graph g = grid2d(6, 6);
  apply_type_p_weights(g, 3, 8, 7);
  std::ostringstream out;
  write_metis_graph(out, g);
  std::istringstream in(out.str());
  Graph h = read_metis_graph(in);
  EXPECT_EQ(h.ncon, 3);
  EXPECT_EQ(h.vwgt, g.vwgt);
  EXPECT_EQ(h.adjwgt, g.adjwgt);
  EXPECT_EQ(h.adjncy, g.adjncy);
}

TEST(GraphIo, FileRoundTrip) {
  Graph g = tri_grid2d(4, 4);
  const std::string path = testing::TempDir() + "/mcgp_io_test.graph";
  write_metis_graph_file(path, g);
  Graph h = read_metis_graph_file(path);
  EXPECT_EQ(h.adjncy, g.adjncy);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_metis_graph_file("/nonexistent/path.graph"),
               std::runtime_error);
}

TEST(PartitionIo, RoundTrip) {
  const std::vector<idx_t> part = {0, 3, 1, 2, 2, 0};
  std::ostringstream out;
  write_partition(out, part);
  std::istringstream in(out.str());
  EXPECT_EQ(read_partition(in), part);
}

TEST(PartitionIo, FileRoundTrip) {
  const std::vector<idx_t> part = {1, 0, 1};
  const std::string path = testing::TempDir() + "/mcgp_part_test.part";
  write_partition_file(path, part);
  EXPECT_EQ(read_partition_file(path), part);
}

TEST(PartitionIo, ValidatingReadAcceptsGoodPartition) {
  std::istringstream in("0\n2\n1\n2\n");
  const std::vector<idx_t> part = read_partition(in, /*nvtxs=*/4,
                                                 /*nparts=*/3);
  EXPECT_EQ(part, (std::vector<idx_t>{0, 2, 1, 2}));
}

TEST(PartitionIo, ValidatingReadRejectsSizeMismatch) {
  std::istringstream too_few("0\n1\n");
  EXPECT_THROW(read_partition(too_few, 4, 2), std::runtime_error);
  std::istringstream too_many("0\n1\n0\n1\n0\n");
  EXPECT_THROW(read_partition(too_many, 4, 2), std::runtime_error);
}

TEST(PartitionIo, ValidatingReadRejectsOutOfRangeIds) {
  std::istringstream negative("0\n-1\n1\n");
  EXPECT_THROW(read_partition(negative, 3, 2), std::runtime_error);
  std::istringstream too_big("0\n1\n2\n");
  EXPECT_THROW(read_partition(too_big, 3, 2), std::runtime_error);
}

// The three inputs the whitespace-token reader used to get wrong: an entry
// past idx_t was narrowed into range, a trailing word ended the read
// silently, and a word mid-file surfaced only as a size mismatch.
TEST(PartitionIo, RejectsEntryOverflowingIdx) {
  std::istringstream in("0\n4294967297\n1\n0\n");
  try {
    read_partition(in, 4, 2);
    FAIL() << "an entry past idx_t must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("overflows idx_t"),
              std::string::npos)
        << e.what();
  }
}

TEST(PartitionIo, RejectsTrailingWord) {
  std::istringstream in("0\n1\n1\n0\nbogus\n");
  try {
    read_partition(in);
    FAIL() << "a trailing non-integer line must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at line 5"), std::string::npos)
        << e.what();
  }
}

TEST(PartitionIo, RejectsWordMidFileNamingItsLine) {
  std::istringstream in("0\n1\nx\n0\n");
  try {
    read_partition(in, 4, 2);
    FAIL() << "a non-integer entry must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at line 3"), std::string::npos) << what;
    EXPECT_EQ(what.find("entries"), std::string::npos) << what;
  }
}

TEST(PartitionIo, RejectsExtraTokensAndSkipsBlankLines) {
  std::istringstream two("0\n1 1\n");
  EXPECT_THROW(read_partition(two), std::runtime_error);
  std::istringstream blanks("0\n\n  \n1\r\n");
  EXPECT_EQ(read_partition(blanks), (std::vector<idx_t>{0, 1}));
}

TEST(PartitionIo, ValidatingFileReadRejectsBadFile) {
  const std::vector<idx_t> part = {1, 0, 5};
  const std::string path = testing::TempDir() + "/mcgp_part_bad.part";
  write_partition_file(path, part);
  EXPECT_THROW(read_partition_file(path, 3, 4), std::runtime_error);
  EXPECT_EQ(read_partition_file(path, 3, 6), part);
}

}  // namespace
}  // namespace mcgp
