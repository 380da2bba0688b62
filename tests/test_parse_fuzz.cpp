// Parser fuzz tier: deterministic mutations of small valid edge-list, DIMACS
// and churn texts.
//
// Every mutant is fed to parse_edge_list / parse_churn_stream, which must
// either return or throw std::invalid_argument — no other exception, no
// crash (the sanitizer legs run this file too).  The same mutants then go
// through SolveService (from_dimacs, and update() for churn batches), whose
// outcome must be kOk exactly when the text parses and the batch is
// consistent, and kInvalidInstance otherwise.
//
// Mutations: truncation at every byte, a digit bumped or maxed, a minus
// sign before a number, a number widened to 20 digits (past int64 and
// uint64), a NUL inserted or overwritten at every byte, and a header whose
// edge count m lies.
//
// The same mutants, plus hand-written field-rule cases and chains of two to
// four random mutations over few-hundred-line texts, also run through the
// per-line istringstream parser the one-pass parser replaced
// (tests/support/edge_list_oracle.hpp): both must agree on every text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/coloring/problem.hpp"
#include "src/common/rng.hpp"
#include "src/graph/io.hpp"
#include "src/service/churn.hpp"
#include "src/service/solve_service.hpp"
#include "tests/support/edge_list_oracle.hpp"

namespace qplec {
namespace {

// A 5-node graph (edges 01 12 23 34 04 02) in both edge-list formats, and a
// churn batch that is consistent with it.
std::string plain_text(const std::string& m = "6") {
  return "# plain\n5 " + m + "\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n";
}
std::string dimacs_text(const std::string& m = "6") {
  return "c dimacs\np edge 5 " + m + "\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 1 3\n";
}
const char kChurnText[] = "# churn\ni 1 3\nr 0 1\ni 2 4  # comment\nr 3 4\n";

/// The deterministic mutants of `text` (the text itself first).
std::vector<std::string> mutants(const std::string& text) {
  std::vector<std::string> out{text};
  for (std::size_t i = 0; i < text.size(); ++i) out.push_back(text.substr(0, i));
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string with_nul = text;
    with_nul.insert(i, 1, '\0');
    out.push_back(with_nul);
    std::string nul_byte = text;
    nul_byte[i] = '\0';
    out.push_back(nul_byte);
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) continue;
    std::string bumped = text;
    bumped[i] = static_cast<char>('0' + (text[i] - '0' + 1) % 10);
    out.push_back(bumped);
    std::string maxed = text;
    maxed[i] = '9';
    out.push_back(maxed);
    if (i > 0 && std::isdigit(static_cast<unsigned char>(text[i - 1])) != 0) continue;
    // i starts a number: negate it, and widen it past every integer type.
    std::size_t end = i;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end])) != 0) ++end;
    std::string negated = text;
    negated.insert(i, 1, '-');
    out.push_back(negated);
    for (const char* wide : {"99999999999999999999", "18446744073709551616"}) {
      std::string widened = text;
      widened.replace(i, end - i, wide);
      out.push_back(widened);
    }
  }
  return out;
}

/// `text` with control bytes escaped, for failure messages.
std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (std::isprint(static_cast<unsigned char>(c)) != 0) {
      out += c;
    } else {
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    }
  }
  return out;
}

/// Runs `parse`; true when it returned, false when it threw
/// std::invalid_argument.  Any other exception fails the test.
bool parses(const std::function<void()>& parse, const std::string& text) {
  try {
    parse();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-invalid_argument exception '" << e.what() << "' on \""
                  << printable(text) << "\"";
    return false;
  }
}

/// Every mutant of every edge-list text, plus headers that lie about m.
std::vector<std::string> edge_list_mutants() {
  std::vector<std::string> texts;
  for (const std::string& base : {plain_text(), dimacs_text()}) {
    for (std::string& m : mutants(base)) texts.push_back(std::move(m));
  }
  for (const char* m : {"0", "5", "7", "1048577", "4294967296", "-6"}) {
    texts.push_back(plain_text(m));
    texts.push_back(dimacs_text(m));
  }
  return texts;
}

TEST(ParseFuzz, EdgeListMutantsParseOrThrowInvalidArgument) {
  int accepted = 0;
  int rejected = 0;
  for (const std::string& text : edge_list_mutants()) {
    if (parses([&] { parse_edge_list(text); }, text)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both outcomes occur: the unmutated texts parse, the lying headers do not.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// Hand-written edge cases of the field rules: signs, leading zeros, 20-digit
/// ids, every isspace separator, CRLF, a missing final newline, NUL bytes,
/// every comment form, whitespace-only lines and self-loops.
std::vector<std::string> field_rule_texts() {
  using namespace std::string_literals;
  std::vector<std::string> texts = {
      "3 2\n+0 +1\n001 0002\n", "+3 1\n0 1\n", "003 001\n0 1\n", "3 1\n-0 1\n", "-0 0\n",
      "3 1\n0 +-1\n", "3 1\n0 -+1\n", "3 1\n+ 1 2\n", "3 1\n0 - 1\n", "3 1\n1+2\n", "3 1\n0-1\n",
      "3 1\n0 1.5\n", "3 1\n0x1 2\n", "p edge 3 2\ne +1 2\ne 002 +03\n", "p edge +3 1\ne 1 2\n",
      "p edge 3 1\ne -1 2\n", "p edge 3 1\ne 1+2\n",
      // 20-digit ids and the edges of long long.
      "3 1\n00000000000000000001 2\n", "3 1\n99999999999999999999 1\n",
      "3 1\n18446744073709551616 1\n", "3 1\n9223372036854775807 1\n",
      "3 1\n9223372036854775808 1\n", "3 1\n-9223372036854775808 1\n",
      "3 1\n-9223372036854775809 1\n", "9223372036854775807 1\n0 1\n",
      "p edge 3 00000000000000000001\ne 1 2\n", "p edge 3 1\ne 1 99999999999999999999\n",
      // Separators and line ends.
      "3\t2\n0\t1\n1\v2\n", "3 2\n0\f1\r\n1 2\r\n", "3 2\r\n0 1\r\n1 2\r\n",
      "p\tedge\t3\t1\ne\v1\f2\r\n", "p edge 3 1\r\ne 1 2\r\n", "\v3 1\n0 1\n", "3 1\n\f0 1\n",
      "3 1\n0 1\r\r\n", "3 1\n0 1\v\n", "3 1\n0\r1\n",
      // No final newline.
      "3 1\n0 1", "p edge 3 1\ne 1 2", "3 1\n0 1\n#", "3 1\n0 1\n ", "3 1", "3 0",
      // NUL bytes.
      "3 1\n0 1\0\n"s, "3 1\n0\0 1\n"s, "\0\n3 1\n0 1\n"s, "3 1\n0 1\n\0"s, "3 1\0\n0 1\n"s,
      "p edge 3 1\ne\0 1 2\n"s, "c\0\n3 1\n0 1\n"s, "#\0\n3 1\n0 1\n"s,
      // Comment forms.
      "#\n3 1\n0 1\n", "# x\n3 1\n# y\n0 1\n#\n", "  # x\n3 1\n\t#x\n0 1\n", "c\n3 1\n0 1\n",
      "c x\n3 1\nc\ty\n0 1\n", "c\r\np edge 3 1\nc\ne 1 2\n", " c x\n\tc\n3 1\n0 1\n",
      "cx\n3 1\n0 1\n", "3 1\ncx\n0 1\n", "\vc x\n3 1\n0 1\n", "c\vx\n3 1\n0 1\n",
      "c\fx\n3 1\n0 1\n", "3 1\n0 1 # x\n", "3 1\n0 1# x\n", "p edge 3 1 c\ne 1 2\n",
      "p edge 3 1\ne 1 2 c\n", "#c\np edge 3 1\ne 1 2\n",
      // Whitespace-only lines.
      "\n3 1\n\n0 1\n\n", " \n3 1\n \n0 1\n", "\t\n3 1\n\t\n0 1\n", "\r\n3 1\n\r\n0 1\n",
      "\v\n3 1\n0 1\n", "3 1\n\v\n0 1\n", "3 1\n\f\n0 1\n", " \t\r\n3 1\n0 1\n \t\r",
      "3 1\n0 1\n\v", "",
      // Self-loops, alone and before a later error.
      "3 1\n0 0\n", "3 1\n3 3\n", "p edge 3 1\ne 1 1\n", "3 2\n0 0\n0 x\n", "3 2\n1 1\n1 3\n",
      "p edge 3 2\ne 2 2\ne 1 4\n",
      // Headers and tags.
      "p\n", "p edge\n", "p edge 3\n", "pedge 3 1\n", "p edges 3 1\n", "p col 3 1\ne 1 2\n",
      "p edge 3 1 1\n", "e 1 2\n", "3 1\ne 1 2\n", "p edge 3 1\ne1 2\n", "p edge 3 1\nee 1 2\n",
      "p edge 3 1\n1 2\n", "3 1\np edge 3 1\n", "3 1 1\n0 1\n", "3 -1\n"};
  return texts;
}

/// The line number an edge-list error names, or -1.
long long error_line(const std::string& what) {
  const std::string tag = "edge list, line ";
  if (what.rfind(tag, 0) != 0) return -1;
  return std::stoll(what.substr(tag.size()));
}

/// Verdict counts of expect_parsers_agree over a corpus.
struct Agreement {
  int accepted = 0;
  int self_loops = 0;
};

// The one-pass from_chars parser against the per-line istringstream parser it
// replaced, on one text: the same verdict; the same graph (edge ids,
// incidence order, local ids) when both accept; the same error when both
// reject, except that the new parser rejects a self-loop at its own line,
// where the oracle leaves it to GraphBuilder's precondition.
void expect_parsers_agree(const std::string& text, Agreement& seen) {
  std::string got_error;
  std::string want_error;
  Graph got;
  Graph want;
  try {
    got = parse_edge_list(text);
  } catch (const std::invalid_argument& e) {
    got_error = e.what();
  }
  try {
    want = test_support::oracle_parse_edge_list(text);
  } catch (const std::invalid_argument& e) {
    want_error = e.what();
  }
  ASSERT_EQ(got_error.empty(), want_error.empty())
      << "on \"" << printable(text) << "\": new \"" << printable(got_error) << "\", oracle \""
      << printable(want_error) << "\"";
  if (got_error.empty()) {
    ++seen.accepted;
    ASSERT_EQ(got.num_nodes(), want.num_nodes()) << printable(text);
    ASSERT_EQ(got.num_edges(), want.num_edges()) << printable(text);
    for (EdgeId e = 0; e < got.num_edges(); ++e) {
      EXPECT_EQ(got.endpoints(e), want.endpoints(e)) << printable(text);
    }
    for (NodeId v = 0; v < got.num_nodes(); ++v) {
      const auto a = got.incident(v);
      const auto b = want.incident(v);
      ASSERT_EQ(a.size(), b.size()) << printable(text);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].neighbor, b[i].neighbor) << printable(text);
        EXPECT_EQ(a[i].edge, b[i].edge) << printable(text);
      }
      EXPECT_EQ(got.local_id(v), want.local_id(v)) << printable(text);
    }
    EXPECT_EQ(got.max_local_id(), want.max_local_id()) << printable(text);
  } else if (got_error.find(": self-loop at node ") != std::string::npos) {
    ++seen.self_loops;
    // The oracle fails later: at a later line, or after the last one.
    const long long line = error_line(want_error);
    EXPECT_TRUE(line < 0 || line > error_line(got_error))
        << "on \"" << printable(text) << "\": new \"" << printable(got_error)
        << "\", oracle \"" << printable(want_error) << "\"";
  } else {
    EXPECT_EQ(printable(got_error), printable(want_error)) << "on \"" << printable(text) << "\"";
  }
}

TEST(ParseFuzz, OnePassParserMatchesLineStreamOracle) {
  std::vector<std::string> texts = edge_list_mutants();
  for (std::string& text : field_rule_texts()) texts.push_back(std::move(text));
  Agreement seen;
  for (const std::string& text : texts) {
    expect_parsers_agree(text, seen);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(seen.accepted, 0);
  EXPECT_GT(seen.self_loops, 0);
}

/// A few-hundred-line edge-list text: a random simple graph on 90 nodes
/// with 300 edges, in DIMACS or plain form, with comment and blank lines,
/// CRLF endings and tab separators sprinkled through it.
std::string long_text(bool dimacs, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> edges;
  std::vector<std::uint8_t> seen(90 * 90, 0);
  while (edges.size() < 300) {
    const int u = static_cast<int>(rng.next_below(90));
    const int v = static_cast<int>(rng.next_below(90));
    if (u == v || seen[static_cast<std::size_t>(std::min(u, v) * 90 + std::max(u, v))]) continue;
    seen[static_cast<std::size_t>(std::min(u, v) * 90 + std::max(u, v))] = 1;
    edges.emplace_back(u, v);
  }
  std::string text = dimacs ? "c long text\np edge 90 300\n" : "# long text\n90 300\n";
  const int shift = dimacs ? 1 : 0;
  for (const auto& [u, v] : edges) {
    switch (rng.next_below(12)) {
      case 0: text += dimacs ? "c note\n" : "# note\n"; break;
      case 1: text += "\n"; break;
      default: break;
    }
    const char* sep = rng.next_bool(0.1) ? "\t" : " ";
    text += (dimacs ? "e " : "") + std::to_string(u + shift) + sep + std::to_string(v + shift);
    text += rng.next_bool(0.1) ? "\r\n" : "\n";
  }
  return text;
}

/// One random mutation of `text`: a truncation, a NUL inserted or
/// overwritten, a digit bumped or maxed, a number negated or widened past
/// every integer type, a separator swapped for another isspace byte, a byte
/// deleted, a line duplicated or dropped, or a comment line inserted.
void mutate(std::string& text, Rng& rng) {
  if (text.empty()) {
    text = "0 1\n";
    return;
  }
  const std::size_t i = rng.next_below(text.size());
  const auto line_start = [&](std::size_t at) {
    const std::size_t nl = text.rfind('\n', at == 0 ? 0 : at - 1);
    return at == 0 || nl == std::string::npos ? 0 : nl + 1;
  };
  const auto line_end = [&](std::size_t at) {
    const std::size_t nl = text.find('\n', at);
    return nl == std::string::npos ? text.size() : nl + 1;
  };
  switch (rng.next_below(10)) {
    case 0:
      text.resize(i);
      break;
    case 1:
      text.insert(i, 1, '\0');
      break;
    case 2:
      text[i] = '\0';
      break;
    case 3:
      if (std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
        text[i] = rng.next_bool(0.5) ? '9' : static_cast<char>('0' + (text[i] - '0' + 1) % 10);
      }
      break;
    case 4:
    case 5: {
      // The number at or after i: negate it or widen it.
      std::size_t b = i;
      while (b < text.size() && std::isdigit(static_cast<unsigned char>(text[b])) == 0) ++b;
      std::size_t e = b;
      while (e < text.size() && std::isdigit(static_cast<unsigned char>(text[e])) != 0) ++e;
      if (b == e) break;
      if (rng.next_bool(0.5)) {
        text.insert(b, 1, '-');
      } else {
        text.replace(b, e - b, rng.next_bool(0.5) ? "99999999999999999999" : "16777216");
      }
      break;
    }
    case 6:
      if (text[i] == ' ' || text[i] == '\t') text[i] = "\t\v\f\r "[rng.next_below(5)];
      break;
    case 7:
      text.erase(i, 1);
      break;
    case 8: {
      const std::size_t b = line_start(i);
      const std::size_t e = line_end(i);
      if (rng.next_bool(0.5)) {
        text.insert(e, text.substr(b, e - b));
      } else {
        text.erase(b, e - b);
      }
      break;
    }
    default:
      text.insert(line_start(i), rng.next_bool(0.5) ? "c x\n" : "# x\n");
      break;
  }
}

// Longer texts under chains of two to four mutations: the two parsers still
// agree on every verdict, graph and error.
TEST(ParseFuzz, MutationChainsOnLongTextsMatchLineStreamOracle) {
  Agreement seen;
  int chains = 0;
  for (const bool dimacs : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string base = long_text(dimacs, seed);
      expect_parsers_agree(base, seen);
      Rng rng(seed * 1000 + (dimacs ? 1 : 0));
      for (int chain = 0; chain < 150; ++chain) {
        std::string text = base;
        for (int k = 2 + static_cast<int>(rng.next_below(3)); k > 0; --k) mutate(text, rng);
        expect_parsers_agree(text, seen);
        if (HasFatalFailure()) return;
        ++chains;
      }
    }
  }
  EXPECT_EQ(chains, 2 * 3 * 150);
  EXPECT_GT(seen.accepted, 0);
}

TEST(ParseFuzz, ChurnMutantsParseOrThrowInvalidArgument) {
  int accepted = 0;
  int rejected = 0;
  for (const std::string& text : mutants(kChurnText)) {
    std::istringstream in(text);
    if (parses([&] { parse_churn_stream(in); }, text)) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// Through the service, a file that parses solves Ok and one that does not
// comes back kInvalidInstance.  no_cache: every mutant is written to the same
// path, and a same-size rewrite inside one mtime tick would key equal.
TEST(ParseFuzz, ServiceAnswersEdgeListMutantsOkOrInvalid) {
  const std::string path = testing::TempDir() + "/qplec_parse_fuzz.dimacs";
  SolveService service(ExecConfig{.workers = 1});
  for (const std::string& text : edge_list_mutants()) {
    const bool parsed = parses([&] { parse_edge_list(text); }, text);
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    const SolveOutcome out = service.solve(SolveRequest::from_dimacs(path).no_cache());
    EXPECT_EQ(out.status, parsed ? SolveStatus::kOk : SolveStatus::kInvalidInstance)
        << status_name(out.status) << ": " << out.error << " on \"" << printable(text) << "\"";
    if (out.ok()) {
      EXPECT_TRUE(out.valid) << printable(text);
    }
  }
  std::remove(path.c_str());
}

// Churn mutants that parse go to update() against a solved base: a batch
// consistent with the base graph repairs Ok, any other is kInvalidInstance.
TEST(ParseFuzz, ServiceAnswersChurnMutantsOkOrInvalid) {
  const ListEdgeColoringInstance base = make_two_delta_instance(parse_edge_list(plain_text()));
  ExecConfig config{.workers = 1};
  config.max_cache_entries = 4096;  // the snapshot registry must keep the base
  SolveService service(config);
  const SolveOutcome solved = service.solve(SolveRequest::from_instance(base));
  ASSERT_TRUE(solved.ok()) << solved.error;
  int repaired = 0;
  for (const std::string& text : mutants(kChurnText)) {
    ChurnBatch batch;
    std::istringstream in(text);
    if (!parses([&] { batch = parse_churn_stream(in); }, text)) continue;
    const bool consistent = parses([&] { validate_deltas(base.graph, batch.ops); }, text);
    const SolveOutcome out = service.update(solved.fingerprint, batch).wait();
    EXPECT_EQ(out.status, consistent ? SolveStatus::kOk : SolveStatus::kInvalidInstance)
        << status_name(out.status) << ": " << out.error << " on \"" << printable(text) << "\"";
    if (out.ok()) {
      EXPECT_TRUE(out.valid) << printable(text);
      ++repaired;
    }
  }
  EXPECT_GT(repaired, 0);
}

}  // namespace
}  // namespace qplec
