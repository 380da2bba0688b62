#include "src/graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/builder.hpp"

namespace qplec {

namespace {

[[noreturn]] void fail(long long line_no, const std::string& what, std::string_view line) {
  throw std::invalid_argument("edge list, line " + std::to_string(line_no) + ": " + what +
                              ": \"" + std::string(line) + "\"");
}

/// The classic locale's isspace: ' ', \t, \n, \v, \f, \r.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Reads one line's fields the way `std::istream::operator>>` does in the
/// classic locale: every read first skips isspace bytes; a token runs to the
/// next isspace byte; a number is an optional sign and decimal digits, and
/// ends at the first byte that is not a digit (so "1+2" reads as 1, then 2).
class Fields {
 public:
  explicit Fields(std::string_view line) : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next token; empty at the end of the line.
  std::string_view token() {
    skip_space();
    const char* begin = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  /// The next number; false when no digits follow the optional sign or the
  /// value does not fit a long long.
  bool number(long long& out) {
    skip_space();
    bool negative = false;
    if (p_ != end_ && (*p_ == '+' || *p_ == '-')) negative = *p_++ == '-';
    unsigned long long magnitude = 0;
    const auto [next, ec] = std::from_chars(p_, end_, magnitude);
    if (next == p_) return false;
    p_ = next;
    // A negative value may reach 2^63 in magnitude (LLONG_MIN), a positive one 2^63 - 1.
    constexpr auto kMax = static_cast<unsigned long long>(std::numeric_limits<long long>::max());
    if (ec != std::errc() || magnitude > kMax + (negative ? 1U : 0U)) return false;
    out = negative ? static_cast<long long>(0ULL - magnitude) : static_cast<long long>(magnitude);
    return true;
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  const char* p_;
  const char* end_;
};

/// Rejects trailing garbage after the parsed fields ("0 1 x" is malformed,
/// not an edge with a comment).
void expect_line_end(Fields& fields, long long line_no, std::string_view line) {
  const std::string_view rest = fields.token();
  if (!rest.empty()) fail(line_no, "unexpected trailing token '" + std::string(rest) + "'", line);
}

/// Caps the header's node count before anything is sized by it.
void expect_node_cap(long long n, long long line_no, std::string_view line) {
  if (n > kMaxEdgeListNodes) {
    fail(line_no, "node count " + std::to_string(n) + " exceeds the limit of " +
                      std::to_string(kMaxEdgeListNodes),
         line);
  }
}

/// Blank-line and comment-marker whitespace: the bytes skipped to find a
/// line's first field (\v and \f are not among them, so a line starting
/// with one is read as data).
bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

Graph parse_text(std::string_view text) {
  long long n = -1, m = -1;
  bool dimacs = false;
  std::vector<EdgeEndpoints> edges;  // file ids, range-checked against n <= 2^24
  long long min_id = std::numeric_limits<long long>::max();
  long long max_id = -1;
  long long line_no = 0;

  const char* const end = text.data() + text.size();
  for (const char* pos = text.data(); pos != end;) {
    const auto* newline =
        static_cast<const char*>(std::memchr(pos, '\n', static_cast<std::size_t>(end - pos)));
    const char* line_end = newline != nullptr ? newline : end;
    const std::string_view line(pos, static_cast<std::size_t>(line_end - pos));
    pos = newline != nullptr ? newline + 1 : end;
    ++line_no;

    std::size_t first = 0;
    while (first < line.size() && is_blank(line[first])) ++first;
    if (first == line.size() || line[first] == '#') continue;
    // DIMACS comment lines start with 'c' (as a token, so a plain edge list
    // is never shadowed: its data lines start with digits).
    if (line[first] == 'c' && (first + 1 == line.size() || is_blank(line[first + 1]))) continue;
    Fields fields(line);

    if (line[first] == 'p') {
      // DIMACS header: "p edge <n> <m>" (also "p col"); node ids are 1-based.
      if (n >= 0) fail(line_no, "duplicate header", line);
      const std::string_view tag = fields.token();
      const std::string_view format = fields.token();
      if (tag != "p" || (format != "edge" && format != "col")) {
        fail(line_no, "unsupported DIMACS problem line (want 'p edge <n> <m>')", line);
      }
      if (!(fields.number(n) && fields.number(m)) || n < 0 || m < 0) {
        fail(line_no, "malformed DIMACS header", line);
      }
      expect_line_end(fields, line_no, line);
      expect_node_cap(n, line_no, line);
      dimacs = true;
      edges.reserve(static_cast<std::size_t>(std::min<long long>(m, 1 << 20)));
      continue;
    }
    if (line[first] == 'e') {
      // DIMACS edge: "e <u> <v>", 1-based.
      if (!dimacs) fail(line_no, "DIMACS edge line before a 'p edge' header", line);
      long long u, v;
      if (fields.token() != "e") {
        fail(line_no, "malformed DIMACS edge line (want 'e <u> <v>')", line);
      }
      if (!(fields.number(u) && fields.number(v))) {
        fail(line_no, "malformed DIMACS edge line", line);
      }
      expect_line_end(fields, line_no, line);
      if (u < 1 || u > n || v < 1 || v > n) {
        fail(line_no, "DIMACS node id out of range [1, " + std::to_string(n) + "]", line);
      }
      if (u == v) fail(line_no, "self-loop at node " + std::to_string(u), line);
      edges.push_back({static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1)});
      continue;
    }

    if (n < 0) {
      // Plain header: "n m".
      if (!(fields.number(n) && fields.number(m)) || n < 0 || m < 0) {
        fail(line_no, "malformed header (want 'n m' or 'p edge n m')", line);
      }
      expect_line_end(fields, line_no, line);
      expect_node_cap(n, line_no, line);
      // Reserve is capped: a hostile header ("3 999999999999") must fall out
      // of the edge-count check as invalid_argument, not as bad_alloc here.
      edges.reserve(static_cast<std::size_t>(std::min<long long>(m, 1 << 20)));
      continue;
    }
    if (dimacs) fail(line_no, "expected 'e <u> <v>' in a DIMACS file", line);
    long long u, v;
    if (!(fields.number(u) && fields.number(v))) {
      fail(line_no, "malformed edge line (want 'u v')", line);
    }
    expect_line_end(fields, line_no, line);
    if (u < 0 || v < 0 || u > n || v > n) {
      fail(line_no, "node id out of range for n=" + std::to_string(n), line);
    }
    if (u == v) fail(line_no, "self-loop at node " + std::to_string(u), line);
    min_id = std::min({min_id, u, v});
    max_id = std::max({max_id, u, v});
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
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
  const bool one_based = !dimacs && !edges.empty() && max_id == n;
  if (one_based && min_id < 1) {
    throw std::invalid_argument("edge list: node ids mix 0 and " + std::to_string(n) +
                                " — neither a 0-based nor a 1-based file can contain both");
  }
  const NodeId shift = one_based ? 1 : 0;

  GraphBuilder builder(static_cast<int>(n));
  builder.reserve(edges.size());
  for (const EdgeEndpoints& e : edges) builder.add_edge(e.u - shift, e.v - shift);
  return builder.build();
}

}  // namespace

std::string read_all(std::istream& in) {
  std::string text;
  const std::istream::sentry ok(in, /*noskipws=*/true);
  if (!ok) return text;
  constexpr std::size_t kChunk = 1 << 16;
  for (;;) {
    const std::size_t filled = text.size();
    text.resize(filled + kChunk);
    const auto got = in.rdbuf()->sgetn(text.data() + filled, static_cast<std::streamsize>(kChunk));
    text.resize(filled + static_cast<std::size_t>(got));
    if (static_cast<std::size_t>(got) < kChunk) break;
  }
  in.setstate(std::ios::eofbit);
  return text;
}

Graph read_edge_list(std::istream& in) { return parse_text(read_all(in)); }

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ep = g.endpoints(e);
    out << ep.u << ' ' << ep.v << '\n';
  }
}

Graph parse_edge_list(const std::string& text) { return parse_text(text); }

}  // namespace qplec
