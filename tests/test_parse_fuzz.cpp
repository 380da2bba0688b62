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
#include <gtest/gtest.h>

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
#include "src/graph/io.hpp"
#include "src/service/churn.hpp"
#include "src/service/solve_service.hpp"

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
    const bool consistent = parses([&] { validate_churn(base, batch); }, text);
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
