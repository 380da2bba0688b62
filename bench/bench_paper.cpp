// bench_paper: the paper's lemma-level claims, each gated by its own exit code.
//
//   usage: bench_paper [--out BENCH_paper.json]
//
// Measures the statements of Balliu-Kuhn-Olivetti (arXiv 2002.10780) on small
// seeded instances.  Nothing reads a clock: the JSON report holds integers and
// ratios at four decimals, byte-identical across runs and compilers, and is
// byte-compared against the committed root BENCH_paper.json.  Each failing
// claim is named on stderr and the lowest failing code is returned: 3 a
// coloring is invalid, 4 Lemma 4.2, 5 the defect bound, 6 Equation (2),
// 7 Lemma 4.4, 8 O(log* X), 9 O(log* n); 2 is a usage or write error
// (docs/BENCHMARKS.md spells out each gate).  EXP-T1 (rounds vs Dbar, and the
// first Dbar at which BKO needs no more rounds than greedy-by-class) is
// reported, not gated.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench/support.hpp"
#include "src/coloring/baselines.hpp"
#include "src/coloring/defective.hpp"
#include "src/coloring/initial.hpp"
#include "src/coloring/linial.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/math.hpp"
#include "src/common/rng.hpp"
#include "src/core/engine.hpp"
#include "src/core/lemma44.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/scenarios.hpp"

namespace {

using namespace qplec;
using bench::fmt;

enum Claim : int { kValid = 3, kLemma42, kDefect, kEq2, kLemma44, kLogStarX, kLogStarN };
constexpr const char* kClaimNames[] = {"valid",   "lemma42",    "defect_bound", "eq2",
                                       "lemma44", "log_star_x", "log_star_n"};

/// The first failure of each claim, keyed by its exit code.
class Gates {
 public:
  void require(Claim claim, bool holds, const std::string& why) {
    if (!holds) failures_.emplace(claim, why);  // keeps the first
  }

  /// Runs `fn`; an exception it throws (a failed invariant assert included)
  /// fails `claim`.
  template <typename Fn>
  void guarded(Claim claim, const std::string& where, Fn&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      require(claim, false, where + ": " + e.what());
    }
  }

  void valid(const std::string& where, const ListEdgeColoringInstance& inst,
             const EdgeColoring& colors) {
    require(kValid, is_valid_list_coloring(inst, colors), where + ": invalid coloring");
  }

  int exit_code() const { return failures_.empty() ? 0 : failures_.begin()->first; }

  /// Prints the verdicts (each failure's reason to stderr) and returns them
  /// as a JSON object.
  std::string report() const {
    std::string json;
    for (int c = kValid; c <= kLogStarN; ++c) {
      const char* name = kClaimNames[c - kValid];
      const auto it = failures_.find(c);
      const bool holds = it == failures_.end();
      std::printf("  exit %d %-13s %s\n", c, name, holds ? "holds" : "FAILS");
      if (!holds) std::fprintf(stderr, "bench_paper: %s fails: %s\n", name, it->second.c_str());
      json += (json.empty() ? "{\"" : ", \"") + std::string(name) + "\": ";
      json += holds ? "true" : "false";
    }
    return json + "}";
  }

 private:
  std::map<int, std::string> failures_;
};

/// One experiment: printed as a table, written as a JSON array of objects
/// keyed by the column names.  A cell of digits, '.' and '-' (an integer, or a
/// ratio at four decimals) is a JSON number, anything else a JSON string.
class Section {
 public:
  Section(const char* key, const char* title, std::vector<std::string> columns)
      : title_(title),
        columns_(columns),
        table_(std::move(columns)),
        json_("\"" + std::string(key) + "\": [") {}

  void row(const std::vector<std::string>& cells) {
    json_ += json_.back() == '[' ? "\n    {" : ",\n    {";
    for (std::size_t j = 0; j < cells.size(); ++j) {
      const bool number = cells[j].find_first_not_of("0123456789.-") == std::string::npos;
      json_ += (j == 0 ? "\"" : ", \"") + columns_[j] + "\": ";
      json_ += number ? cells[j] : "\"" + cells[j] + "\"";
    }
    json_ += "}";
    table_.row(cells);
  }

  void print() const {
    std::printf("%s\n\n", title_);
    table_.print();
  }
  std::string json() const { return json_ + "\n  ]"; }

 private:
  const char* title_;
  std::vector<std::string> columns_;
  bench::Table table_;
  std::string json_;
};

/// Largest minus smallest value of a non-empty series.
std::int64_t spread(const std::vector<std::int64_t>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *hi - *lo;
}

/// Every solve runs the demoted invariant walks (slack, halving, entry
/// properness, defect tightness) on every round; outputs match any tier.
const ExecConfig kEveryRound{.validation_tier = ValidationTier::kEveryRound};

/// LOCAL ids scrambled into an n^2 id space.
Graph scrambled(const Graph& g, std::uint64_t seed) {
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  return g.with_scrambled_ids(n * n, seed);
}

struct Rounds {
  std::int64_t dbar = 0, bko = 0, initial = 0, greedy = 0;
};

/// The (2 Delta - 1) instance on a random d-regular graph of n nodes.
Scenario regular(int n, int d, std::uint64_t seed) {
  return {GraphFamily::kRegular, n, ListFlavor::kTwoDelta, PolicyKind::kPractical, seed, d};
}

/// BKO and the three runnable baselines on each scenario, one row each; every
/// coloring is checked.
std::vector<Rounds> head_to_head(Gates& gates, Section& s, const std::vector<Scenario>& sweep) {
  std::vector<Rounds> out;
  for (const Scenario& sc : sweep) {
    const auto inst = build_instance(sc);
    Rounds r{inst.graph.max_edge_degree()};
    gates.guarded(kValid, sc.name(), [&] {
      const SolveResult bko = Solver(Policy::practical(), kEveryRound).solve(inst);
      RoundLedger l1, l2, l3;
      const BaselineResult greedy = baseline_greedy_by_class(inst, l1);
      const BaselineResult kw = baseline_kuhn_wattenhofer(inst, l2);
      const BaselineResult luby = baseline_luby(inst, sc.seed + 5, l3);
      gates.valid(sc.name() + " bko", inst, bko.colors);
      gates.valid(sc.name() + " greedy-by-class", inst, greedy.colors);
      gates.valid(sc.name() + " kw06", inst, kw.colors);
      gates.valid(sc.name() + " luby", inst, luby.colors);
      r = {r.dbar, bko.rounds, bko.initial_rounds, greedy.rounds};
      s.row({fmt(sc.size), fmt(sc.aux), fmt(r.dbar), fmt(bko.rounds), fmt(bko.initial_rounds),
             fmt(greedy.rounds), fmt(kw.rounds), fmt(luby.rounds)});
    });
    out.push_back(r);
  }
  return out;
}

const std::vector<std::string> kSweepColumns = {
    "n", "d", "dbar", "bko_rounds", "initial_rounds", "greedy_rounds", "kw_rounds", "luby_rounds"};

// EXP-L42: the no-slack loop of Lemma 4.2 at every_round validation, where the
// slack and degree-halving asserts run on every class and outer iteration; the
// base-case threshold sits below Dbar, so the defective split runs.  At the
// practical beta = 50 every class is an independent set (defect 0); the
// beta = 1 and 2 rows give classes with edges, where the asserts can bite.
Section lemma42(Gates& gates) {
  Section s("lemma42", "EXP-L42: Lemma 4.2 (slack, degree halving) at every_round validation",
            {"graph", "threshold", "dbar", "beta", "defective_calls", "classes_total",
             "classes_nonempty", "max_depth", "max_defect_ratio", "rounds"});
  const Graph regular256 = scrambled(make_random_regular(256, 16, 3), 5);
  const std::tuple<std::string, Graph, int, int> cases[] = {
      {"K_24", scrambled(make_complete(24), 5), 8, 50},
      {"regular n=256 d=16", regular256, 8, 50},
      {"regular n=256 d=16", regular256, 8, 1},
      {"regular n=256 d=16", regular256, 8, 2},
      {"gnp n=300 p=0.05", scrambled(make_gnp(300, 0.05, 4), 5), 8, 50},
      {"regular n=200 d=24", make_random_regular(200, 24, 9).with_scrambled_ids(40000, 2), 4, 50},
  };
  for (const auto& [name, g, threshold, beta_fixed] : cases) {
    gates.guarded(kLemma42, name, [&] {
      const auto inst = make_two_delta_instance(g);
      Policy policy = Policy::practical();
      policy.base_degree_threshold = threshold;
      policy.beta_fixed = beta_fixed;
      const SolveResult res = Solver(policy, kEveryRound).solve(inst);
      const SolverStats& st = res.stats;
      gates.valid(name, inst, res.colors);
      gates.require(kLemma42, st.defective_calls >= 1, name + ": no defective split ran");
      gates.require(kLemma42, st.max_defect_ratio <= 1.0,
                    name + ": max defect ratio " + fmt(st.max_defect_ratio, 4));
      const int dbar = g.max_edge_degree();
      s.row({name, fmt(threshold), fmt(dbar), fmt(policy.beta(dbar)),
             fmt(st.defective_calls), fmt(st.classes_total), fmt(st.classes_nonempty),
             fmt(st.max_depth), fmt(st.max_defect_ratio, 4), fmt(res.rounds)});
    });
  }
  return s;
}

// EXP-DEF: Section 4.1's defective edge coloring, defect(e) <= deg(e)/(2 beta).
Section defect_bound(Gates& gates) {
  Section s("defect_bound", "EXP-DEF: defective edge coloring, max defect / (deg / 2 beta) <= 1",
            {"graph", "dbar", "beta", "classes", "max_defect", "max_defect_ratio", "rounds"});
  const std::pair<std::string, Graph> cases[] = {
      {"K_28", scrambled(make_complete(28), 7)},
      {"regular n=300 d=20", scrambled(make_random_regular(300, 20, 5), 7)},
      {"power-law n=400", scrambled(make_power_law(400, 2.5, 40.0, 6), 7)},
  };
  for (const auto& [name, g] : cases) {
    const EdgeSubset all = EdgeSubset::all(g);
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    for (const int beta : {1, 2, 4, 8, 16, 32}) {
      const std::string where = name + " beta=" + fmt(beta);
      gates.guarded(kDefect, where, [&] {
        RoundLedger ledger;
        const DefectiveColoring dc =
            defective_edge_coloring(g, all, beta, init.colors, init.palette, ledger);
        int max_defect = 0;
        double max_ratio = 0.0;
        all.for_each([&](EdgeId e) {
          const int defect = edge_defect(g, all, dc.cls, e);
          max_defect = std::max(max_defect, defect);
          const int deg = all.induced_edge_degree(g, e);
          if (deg > 0) max_ratio = std::max(max_ratio, defect * 2.0 * beta / deg);
        });
        gates.require(kDefect, max_ratio <= 1.0, where + ": max ratio " + fmt(max_ratio, 4));
        s.row({name, fmt(g.max_edge_degree()), fmt(beta), fmt(dc.num_classes),
               fmt(max_defect), fmt(max_ratio, 4), fmt(dc.rounds)});
      });
    }
  }
  return s;
}

// EXP-L43: one color-space reduction step (Lemmas 4.3/4.4) at each swept p,
// called directly (so the engine's space_reductions counter stays 0), then
// one relaxed-entry solve P(dbar, 60, 4096) whose policy chooses p at every
// node.  Equation (2) is asserted on every edge inside the engine.
Section eq2(Gates& gates) {
  Section s("eq2", "EXP-L43: color-space reduction, Equation (2) ratio <= 1 (p = 0: the policy's)",
            {"graph", "p", "space_reductions", "phases", "virtual_instances", "e2_instances",
             "max_eq2_ratio"});
  std::int64_t reductions = 0, virtuals = 0, e2 = 0;
  const auto record = [&](const std::string& name, int p, const SolverStats& st) {
    gates.require(kEq2, st.max_eq2_ratio <= 1.0, name + ": max ratio " + fmt(st.max_eq2_ratio, 4));
    reductions += st.space_reductions;
    virtuals += st.virtual_instances;
    e2 += st.e2_instances;
    s.row({name, fmt(p), fmt(st.space_reductions), fmt(st.phases_executed),
           fmt(st.virtual_instances), fmt(st.e2_instances), fmt(st.max_eq2_ratio, 4)});
  };
  const auto reduce_once = [&](const std::string& name, const Graph& g, int p, Color palette,
                               std::uint64_t seed) {
    gates.guarded(kEq2, name, [&] {
      const auto inst = make_slack_instance(g, Policy::space_cost(p) + 1, palette, seed);
      RoundLedger ledger;
      SolverStats stats;
      const InitialColoring init = initial_edge_coloring_from_ids(inst.graph);
      const LineGraphConflict view(inst.graph, EdgeSubset::all(inst.graph));
      const LinialResult lin = linial_reduce(view, init.colors, init.palette,
                                             inst.graph.max_edge_degree(), ledger);
      SolverEngine engine(inst.graph, inst.lists, inst.palette_size, lin.colors, lin.palette,
                          Policy::practical(), ledger, stats, 0, nullptr, kEveryRound);
      engine.assign_subspaces(EdgeSubset::all(inst.graph), 0, palette, p, 0);
      record(name, p, stats);
    });
  };
  for (const int p : {2, 4, 8, 16, 64, 128}) {
    // Palettes large enough for the slack the cost formula demands.
    const double slack = Policy::space_cost(p) + 1;
    reduce_once("regular d=6", make_random_regular(40, 6, 11).with_scrambled_ids(1600, 12), p,
                static_cast<Color>(slack * (2 * 6 - 2) * 2 + 64), 13);
    if (p >= 64) {  // dense graph, large p: the phased E(1) path
      reduce_once("K_18", make_complete(18).with_scrambled_ids(324, 14), p,
                  static_cast<Color>(slack * 32 * 2 + 1024), 15);
    }
  }
  const std::string relaxed = "relaxed regular n=256 d=8 S=60 C=4096";
  gates.guarded(kEq2, relaxed, [&] {
    const auto inst =
        make_slack_instance(scrambled(make_random_regular(256, 8, 21), 22), 60.0, 4096, 23);
    Policy policy = Policy::practical();
    policy.base_degree_threshold = 4;
    const SolveResult res = Solver(policy, kEveryRound).solve_relaxed(inst, 60.0);
    gates.valid(relaxed, inst, res.colors);
    record(relaxed, 0, res.stats);
  });
  gates.require(kEq2, reductions >= 1 && virtuals >= 1 && e2 >= 1,
                "space reductions / virtual / E(2) instances: " + fmt(reductions) + " / " +
                    fmt(virtuals) + " / " + fmt(e2));
  return s;
}

/// Part sizes of one list of `total` colors over q parts.
std::vector<int> list_shape(const std::string& shape, int q, int total, Rng& rng) {
  std::vector<int> sizes(static_cast<std::size_t>(q), 0);
  if (shape == "uniform") {
    for (int i = 0; i < total; ++i) {
      ++sizes[static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(q)))];
    }
  } else if (shape == "concentrated") {
    sizes[0] = total;
  } else if (shape == "geometric") {  // halves of the rest; the remainder joins part 0
    int rest = total;
    for (std::size_t i = 0; i < sizes.size() && rest > 0; ++i) {
      sizes[i] = std::max(1, rest / 2);
      rest -= sizes[i];
    }
    sizes[0] += rest;
  } else {  // two blocks
    sizes[0] = total / 2;
    sizes[static_cast<std::size_t>(q / 2)] = total - total / 2;
  }
  return sizes;
}

// EXP-L44: for every list and partition some k parts each hold >= |L|/(k H_q)
// of the list; tightness is the k-th largest part over that threshold.
Section lemma44(Gates& gates) {
  Section s("lemma44", "EXP-L44: Lemma 4.4 witness, tightness >= 1 (200 lists per row)",
            {"shape", "q", "list_size", "median_k", "max_k", "min_tightness"});
  Rng rng(2024);
  for (const char* shape : {"uniform", "concentrated", "geometric", "two-blocks"}) {
    for (const int q : {8, 32, 128}) {
      const int total = 40 * q;
      std::vector<int> ks;
      double min_tight = 1e18;
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<int> sizes = list_shape(shape, q, total, rng);
        const LevelResult r = compute_level(sizes, total);
        ks.push_back(r.k);
        std::sort(sizes.begin(), sizes.end(), std::greater<int>());
        const double threshold =
            static_cast<double>(total) / (r.k * harmonic(static_cast<std::uint64_t>(q)));
        min_tight = std::min(min_tight, sizes[static_cast<std::size_t>(r.k - 1)] / threshold);
      }
      std::sort(ks.begin(), ks.end());
      gates.require(kLemma44, min_tight >= 1.0,
                    std::string(shape) + " q=" + fmt(q) + ": tightness " + fmt(min_tight, 4));
      s.row({shape, fmt(q), fmt(total), fmt(ks[ks.size() / 2]), fmt(ks.back()),
             fmt(min_tight, 4)});
    }
  }
  return s;
}

// EXP-LIN: Linial's reduction reaches its O(Dbar^2) fixpoint in O(log* X)
// steps; multiplying the id space by 2^20 may add at most one step.
Section linial_ids(Gates& gates) {
  Section s("linial_ids", "EXP-LIN: Linial steps to the fixpoint vs id space (regular n=128 d=8)",
            {"id_space", "initial_palette", "steps", "final_palette"});
  std::vector<std::int64_t> steps;
  for (int bits = 8; bits <= 28; bits += 4) {
    const auto space = std::int64_t{1} << bits;
    const Graph g = make_random_regular(128, 8, 5).with_scrambled_ids(space, 6);
    const LineGraphConflict view(g, EdgeSubset::all(g));
    const InitialColoring init = initial_edge_coloring_from_ids(g);
    RoundLedger ledger;
    const LinialResult res =
        linial_reduce(view, init.colors, init.palette, g.max_edge_degree(), ledger);
    steps.push_back(res.rounds);
    s.row({fmt(space), fmt(init.palette), fmt(res.rounds), fmt(res.palette)});
  }
  gates.require(kLogStarX, spread(steps) <= 1, "steps spread " + fmt(spread(steps)));
  return s;
}

// EXP-N: at fixed d the rounds are f(Delta) + O(log* n), so across n they may
// move only as much as the initial Linial rounds do.
Section scaling_n(Gates& gates) {
  Section s("scaling_n", "EXP-N: rounds vs n at d = 8 (random regular)", kSweepColumns);
  std::vector<Scenario> sweep;
  for (int n = 64; n <= 4096; n *= 2) sweep.push_back(regular(n, 8, n));
  std::vector<std::int64_t> bko, initial;
  for (const Rounds& r : head_to_head(gates, s, sweep)) {
    bko.push_back(r.bko);
    initial.push_back(r.initial);
  }
  gates.require(kLogStarN, spread(bko) <= spread(initial),
                "BKO spread " + fmt(spread(bko)) + " > initial spread " + fmt(spread(initial)));
  return s;
}

// EXP-T1: rounds vs Dbar at n = 512 (Theorem 1.1's f(Delta) term); ungated.
// `crossover` becomes the first Dbar at which BKO <= greedy-by-class.
Section rounds_vs_delta(Gates& gates, std::string& crossover) {
  Section s("rounds_vs_delta", "EXP-T1: rounds vs Dbar at n = 512 (random regular); not gated",
            kSweepColumns);
  std::vector<Scenario> sweep;
  for (const int d : {4, 8, 16, 32, 64}) sweep.push_back(regular(512, d, 1000 + d));
  crossover = "null";
  for (const Rounds& r : head_to_head(gates, s, sweep)) {
    if (crossover == "null" && r.bko <= r.greedy) crossover = fmt(r.dbar);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_paper.json";
  if (argc == 3 && std::string(argv[1]) == "--out") {
    out_path = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: bench_paper [--out BENCH_paper.json]\n");
    return 2;
  }

  Gates gates;
  std::string crossover;
  const Section sections[] = {
      lemma42(gates),
      defect_bound(gates),
      eq2(gates),
      lemma44(gates),
      linial_ids(gates),
      scaling_n(gates),
      rounds_vs_delta(gates, crossover),
  };
  for (const Section& section : sections) section.print();
  std::printf("EXP-T1 crossover: BKO <= greedy-by-class from Dbar = %s\n\nclaims:\n",
              crossover == "null" ? "none" : crossover.c_str());

  const int code = gates.exit_code();
  std::string json = "{\n  \"bench\": \"paper\",\n  \"exit_code\": " + fmt(code) +
                     ",\n  \"claims\": " + gates.report() + ",\n  \"crossover_dbar\": " + crossover;
  for (const Section& section : sections) json += ",\n  " + section.json();
  std::ofstream out(out_path);
  out << json << "\n}\n";
  if (!out) {
    std::fprintf(stderr, "bench_paper: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return code;
}
