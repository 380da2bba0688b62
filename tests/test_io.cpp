// Edge-list / DIMACS parsing: format auto-detection, comment handling,
// 1-based id recovery and the quality of the error messages.
#include "src/graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace qplec {
namespace {

void expect_triangle(const Graph& g) {
  ASSERT_EQ(g.num_nodes(), 3);
  ASSERT_EQ(g.num_edges(), 3);
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_NE(g.find_edge(1, 2), kInvalidEdge);
  EXPECT_NE(g.find_edge(0, 2), kInvalidEdge);
}

TEST(GraphIo, PlainZeroBased) {
  expect_triangle(parse_edge_list("3 3\n0 1\n1 2\n0 2\n"));
}

TEST(GraphIo, HashAndDimacsCommentsSkippedEverywhere) {
  expect_triangle(parse_edge_list("# leading comment\nc DIMACS-style comment\n"
                                  "3 3\n# between\n0 1\n1 2\nc\n0 2\n"));
}

TEST(GraphIo, OneBasedPlainFileDetectedAndShifted) {
  // Ids reach n and never hit 0 — only a 1-based reading is valid.
  expect_triangle(parse_edge_list("3 3\n1 2\n2 3\n1 3\n"));
}

TEST(GraphIo, AmbiguousIdsStayZeroBased) {
  // Valid both ways (ids never reach n): the documented convention is 0-based.
  const Graph g = parse_edge_list("4 2\n0 1\n1 2\n");
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_NE(g.find_edge(0, 1), kInvalidEdge);
  EXPECT_NE(g.find_edge(1, 2), kInvalidEdge);
}

TEST(GraphIo, CrlfLineEndings) {
  expect_triangle(parse_edge_list("c\r\np edge 3 3\r\ne 1 2\r\ne 2 3\r\ne 1 3\r\n"));
}

TEST(GraphIo, DimacsEdgeFormat) {
  expect_triangle(parse_edge_list("c a classic DIMACS file\np edge 3 3\n"
                                  "e 1 2\ne 2 3\ne 1 3\n"));
}

TEST(GraphIo, DimacsColVariantAccepted) {
  expect_triangle(parse_edge_list("p col 3 3\ne 1 2\ne 2 3\ne 1 3\n"));
}

TEST(GraphIo, RoundTripThroughWriter) {
  const Graph g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n");
  std::ostringstream os;
  write_edge_list(g, os);
  const Graph h = parse_edge_list(os.str());
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    parse_edge_list(text);
    FAIL() << "expected std::invalid_argument for: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" lacks \"" << needle << "\"";
  }
}

TEST(GraphIo, MalformedInputsNameTheProblem) {
  expect_parse_error("", "missing header");
  expect_parse_error("x y\n", "malformed header");
  expect_parse_error("3 3\n0 1\n", "promised 3 edges, found 1");
  expect_parse_error("3 1\n0 1\n1 2\n", "promised 1 edges, found 2");
  expect_parse_error("3 1\nzero one\n", "malformed edge line");
  expect_parse_error("3 1\n0 1 7\n", "trailing token");
  expect_parse_error("3 1\n0 4\n", "out of range");
  expect_parse_error("3 2\n0 1\n1 3\n", "mix 0 and 3");
  expect_parse_error("p edge 3 1\ne 0 1\n", "out of range [1, 3]");
  expect_parse_error("p edge 3 1\ne 1 4\n", "out of range [1, 3]");
  expect_parse_error("p edge 3 1\n1 2\n", "expected 'e <u> <v>'");
  expect_parse_error("p edge 3 1\ne1 2 3\n", "malformed DIMACS edge line");
  expect_parse_error("e 1 2\n", "before a 'p edge' header");
  expect_parse_error("p matrix 3 1\ne 1 2\n", "unsupported DIMACS problem line");
  expect_parse_error("3 1\np edge 3 1\n", "duplicate header");
  // A self-loop is the input's fault: it names its line, not a builder
  // precondition and its source file.
  expect_parse_error("p edge 3 1\ne 1 1\n", "line 2: self-loop at node 1: \"e 1 1\"");
  expect_parse_error("3 1\n0 0\n", "line 2: self-loop at node 0: \"0 0\"");
  expect_parse_error("# one-based\n3 1\n3 3\n", "line 3: self-loop at node 3");
}

TEST(GraphIo, HostileNodeCountRejectedBeforeAllocation) {
  // Past INT_MAX (would narrow negative) and just under it (would allocate
  // gigabytes before failing): both headers fail fast, naming their line.
  for (const char* n : {"3000000000", "2000000000"}) {
    expect_parse_error(std::string("p edge ") + n + " 1\ne 1 2\n", "exceeds the limit");
    expect_parse_error(std::string("c comment\np edge ") + n + " 1\n", "line 2");
    expect_parse_error(std::string(n) + " 1\n0 1\n", "exceeds the limit");
    expect_parse_error(std::string("# comment\n") + n + " 1\n0 1\n", "line 2");
  }
  const std::string over = std::to_string(kMaxEdgeListNodes + 1);
  expect_parse_error("p edge " + over + " 0\n", "exceeds the limit");
  expect_parse_error(over + " 0\n", "exceeds the limit");
}

TEST(GraphIo, ErrorsReportLineNumbers) {
  expect_parse_error("3 3\n0 1\n0 x\n", "line 3");
}

}  // namespace
}  // namespace qplec
