// Differential oracle for the edge-list parser: the per-line
// std::getline + std::istringstream parser that src/graph/io.cpp replaced
// with a one-pass from_chars scan, kept verbatim (helpers made inline, entry
// point renamed).  Test-only: ParseFuzz runs both parsers on the same texts
// and requires the same verdict, the same graph and the same error line.
// Its one known difference: it leaves self-loops to GraphBuilder's
// precondition, which names no input line.
#pragma once

#include <algorithm>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/builder.hpp"
#include "src/graph/io.hpp"

namespace qplec {
namespace test_support {

namespace oracle_detail {

[[noreturn]] inline void fail(int line_no, const std::string& what, const std::string& line) {
  throw std::invalid_argument("edge list, line " + std::to_string(line_no) + ": " + what +
                              ": \"" + line + "\"");
}

/// Rejects trailing garbage after the parsed fields ("0 1 x" is malformed,
/// not an edge with a comment).
inline void expect_line_end(std::istringstream& ls, int line_no, const std::string& line) {
  std::string rest;
  if (ls >> rest) fail(line_no, "unexpected trailing token '" + rest + "'", line);
}

/// Caps the header's node count before anything is sized by it.
inline void expect_node_cap(long long n, int line_no, const std::string& line) {
  if (n > kMaxEdgeListNodes) {
    fail(line_no, "node count " + std::to_string(n) + " exceeds the limit of " +
                      std::to_string(kMaxEdgeListNodes),
         line);
  }
}

}  // namespace oracle_detail

inline Graph oracle_read_edge_list(std::istream& in) {
  using namespace oracle_detail;
  std::string line;
  long long n = -1, m = -1;
  bool dimacs = false;
  std::vector<std::pair<long long, long long>> edges;
  long long min_id = std::numeric_limits<long long>::max();
  long long max_id = -1;
  int line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    // DIMACS comment lines start with 'c' (as a token, so a plain edge list
    // is never shadowed: its data lines start with digits).
    if (line[first] == 'c' &&
        (first + 1 == line.size() || line[first + 1] == ' ' || line[first + 1] == '\t' ||
         line[first + 1] == '\r')) {
      continue;
    }
    std::istringstream ls(line);

    if (line[first] == 'p') {
      // DIMACS header: "p edge <n> <m>" (also "p col"); node ids are 1-based.
      if (n >= 0) fail(line_no, "duplicate header", line);
      std::string tag, format;
      ls >> tag >> format;
      if (tag != "p" || (format != "edge" && format != "col")) {
        fail(line_no, "unsupported DIMACS problem line (want 'p edge <n> <m>')", line);
      }
      if (!(ls >> n >> m) || n < 0 || m < 0) fail(line_no, "malformed DIMACS header", line);
      expect_line_end(ls, line_no, line);
      expect_node_cap(n, line_no, line);
      dimacs = true;
      edges.reserve(static_cast<std::size_t>(std::min<long long>(m, 1 << 20)));
      continue;
    }
    if (line[first] == 'e') {
      // DIMACS edge: "e <u> <v>", 1-based.
      if (!dimacs) fail(line_no, "DIMACS edge line before a 'p edge' header", line);
      std::string tag;
      long long u, v;
      ls >> tag;
      if (tag != "e") fail(line_no, "malformed DIMACS edge line (want 'e <u> <v>')", line);
      if (!(ls >> u >> v)) fail(line_no, "malformed DIMACS edge line", line);
      expect_line_end(ls, line_no, line);
      if (u < 1 || u > n || v < 1 || v > n) {
        fail(line_no, "DIMACS node id out of range [1, " + std::to_string(n) + "]", line);
      }
      edges.emplace_back(u - 1, v - 1);
      continue;
    }

    if (n < 0) {
      // Plain header: "n m".
      if (!(ls >> n >> m) || n < 0 || m < 0) {
        fail(line_no, "malformed header (want 'n m' or 'p edge n m')", line);
      }
      expect_line_end(ls, line_no, line);
      expect_node_cap(n, line_no, line);
      // Reserve is capped: a hostile header ("3 999999999999") must fall out
      // of the edge-count check as invalid_argument, not as bad_alloc here.
      edges.reserve(static_cast<std::size_t>(std::min<long long>(m, 1 << 20)));
      continue;
    }
    if (dimacs) fail(line_no, "expected 'e <u> <v>' in a DIMACS file", line);
    long long u, v;
    if (!(ls >> u >> v)) fail(line_no, "malformed edge line (want 'u v')", line);
    expect_line_end(ls, line_no, line);
    if (u < 0 || v < 0 || u > n || v > n) {
      fail(line_no, "node id out of range for n=" + std::to_string(n), line);
    }
    min_id = std::min({min_id, u, v});
    max_id = std::max({max_id, u, v});
    edges.emplace_back(u, v);
  }
  if (n < 0) throw std::invalid_argument("edge list: missing header ('n m' or 'p edge n m')");
  if (static_cast<long long>(edges.size()) != m) {
    throw std::invalid_argument("edge list: header promised " + std::to_string(m) +
                                " edges, found " + std::to_string(edges.size()));
  }

  // Plain files are 0-based by convention, but 1-based exports are common:
  // when an endpoint equals n (impossible 0-based) and none is 0, the file
  // can only be 1-based — shift it.  Ambiguous files (ids within both
  // ranges) stay 0-based.
  if (!dimacs && !edges.empty() && max_id == n) {
    if (min_id < 1) {
      throw std::invalid_argument(
          "edge list: node ids mix 0 and " + std::to_string(n) +
          " — neither a 0-based nor a 1-based file can contain both");
    }
    for (auto& [u, v] : edges) {
      --u;
      --v;
    }
  }

  GraphBuilder builder(static_cast<int>(n));
  for (const auto& [u, v] : edges) {
    builder.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return builder.build();
}

/// The oracle on in-memory text.
inline Graph oracle_parse_edge_list(const std::string& text) {
  std::istringstream in(text);
  return oracle_read_edge_list(in);
}

}  // namespace test_support
}  // namespace qplec
