// Plain-text edge-list I/O.
//
// Two formats are accepted, auto-detected per file:
//   * plain: header "n m", then m lines "u v", 0-based (a file whose ids
//     reach n while staying >= 1 can only be a 1-based export and is shifted
//     down automatically);
//   * DIMACS: "p edge n m" header and "e u v" edge lines, 1-based ids.
// '#' lines and DIMACS 'c' comment lines are ignored everywhere.  Malformed
// input, including a self-loop and a header declaring more than
// kMaxEdgeListNodes nodes, raises std::invalid_argument naming the offending
// line.  This is the interchange format the examples use to load custom
// topologies.
//
// Parsing is one forward pass over one buffer: lines split at '\n' with
// memchr, numbers read with std::from_chars.  Fields follow `std::istream >>`
// in the classic locale: any isspace byte separates (so CRLF, \t, \v and \f
// do), a number takes an optional '+' or '-' sign and leading zeros and ends
// at its first non-digit byte.  Only ' ', \t and \r count as blank when
// deciding whether a line is empty or a comment.
#pragma once

#include <iosfwd>
#include <string>

#include "src/graph/graph.hpp"

namespace qplec {

/// Largest node count a header may declare (2^24).  read_edge_list rejects a
/// larger n before allocating anything sized by it, so a hostile header
/// cannot narrow into a negative int or exhaust memory.
inline constexpr long long kMaxEdgeListNodes = 1LL << 24;

/// Reads the rest of `in` into one string (empty when `in` is not good).
std::string read_all(std::istream& in);

/// Parses a graph from an edge-list stream: read_all, then parse_edge_list.
/// Throws std::invalid_argument on malformed input.
Graph read_edge_list(std::istream& in);

/// Writes g in the edge-list format.
void write_edge_list(const Graph& g, std::ostream& out);

/// Parses a graph from edge-list text held in memory.
Graph parse_edge_list(const std::string& text);

}  // namespace qplec
