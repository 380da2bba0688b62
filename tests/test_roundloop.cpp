// The round-loop schedule tier (ctest label `roundloop`): everything the
// superstep/validation work is allowed to change is wall time, and
// everything else is pinned here.
//
//   * RoundLedger's incremental totals (raw_total O(1), total O(open-depth))
//     equal the O(tree) reference walks after EVERY operation of randomized
//     scope/charge sequences — the contract that makes progress checkpoints
//     O(1) instead of a per-round ledger-tree walk.
//   * The LOCAL engine never clears inboxes: a program whose neighbors go
//     silent on some rounds reads no message on those rounds although the
//     slot still holds the previous round's, and reads the fresh message on
//     every round after a send.
//   * The full Solver is bit-identical (colors, rounds, raw rounds, the
//     whole ledger report) across validation tier {off, sampled,
//     every_round} x shards {1, 2, 7} — the complete knob cube of
//     ExecConfig's round-loop surface.
//   * The Lemma 4.2 class loop reaches the same solve whether a class takes
//     the trivial pick off its mark-active walk or the slack-beta recursion:
//     outputs and schedule counters pinned across the same knob cube.
//   * RoundProfile's deterministic counters report the schedule faithfully:
//     the gate draw count is tier-invariant, and each tier runs/skips
//     exactly as specified.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/exec_config.hpp"
#include "src/common/rng.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/local/engine.hpp"
#include "src/local/ledger.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/scenarios.hpp"

namespace qplec {
namespace {

// ------------------------------------------------------------ the ledger ---

// Drives randomized open/charge/close sequences against the ledger and pins
// the incremental totals to the reference tree walks after every single
// operation — not just at the end, so a transient corruption of closed_agg /
// raw_running_ cannot cancel itself out before being observed.
TEST(RoundLoopLedger, IncrementalTotalsMatchReferenceWalkAfterEveryOperation) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    RoundLedger ledger;
    std::vector<RoundLedger::Scope> open;  // destruction order = close order
    int checks = 0;
    auto check = [&] {
      ++checks;
      ASSERT_EQ(ledger.total(), ledger.walked_total()) << "seed=" << seed;
      ASSERT_EQ(ledger.raw_total(), ledger.walked_raw_total()) << "seed=" << seed;
    };
    check();
    for (int op = 0; op < 300; ++op) {
      const std::uint64_t pick = rng.next_below(10);
      if (pick < 4) {
        // Charge 0..4 rounds — zero charges must also leave the totals
        // consistent (parallel scopes fold max over children either way).
        ledger.charge(static_cast<std::int64_t>(rng.next_below(5)),
                      pick % 2 == 0 ? "phase-a" : "phase-b");
      } else if (pick < 7 && open.size() < 12) {
        if (pick % 2 == 0) {
          open.push_back(ledger.sequential("seq"));
        } else {
          open.push_back(ledger.parallel("par"));
        }
      } else if (!open.empty()) {
        open.pop_back();  // closes the deepest open scope
      } else {
        ledger.charge(1, "root");
      }
      check();
    }
    while (!open.empty()) {
      open.pop_back();
      check();
    }
    EXPECT_LE(ledger.total(), ledger.raw_total());
    EXPECT_GT(checks, 300);
  }
}

// Deep nesting: total() folds along the whole open stack correctly, and the
// totals stay pinned while scopes unwind one by one.
TEST(RoundLoopLedger, DeepAlternatingNestStaysPinnedWhileUnwinding) {
  RoundLedger ledger;
  std::vector<RoundLedger::Scope> open;
  for (int depth = 0; depth < 24; ++depth) {
    if (depth % 2 == 0) {
      open.push_back(ledger.parallel("p"));
    } else {
      open.push_back(ledger.sequential("s"));
    }
    ledger.charge(depth % 3, "nest");
    ASSERT_EQ(ledger.total(), ledger.walked_total()) << "depth=" << depth;
    ASSERT_EQ(ledger.raw_total(), ledger.walked_raw_total()) << "depth=" << depth;
  }
  while (!open.empty()) {
    open.pop_back();
    ASSERT_EQ(ledger.total(), ledger.walked_total());
    ASSERT_EQ(ledger.raw_total(), ledger.walked_raw_total());
  }
}

// -------------------------------------------------------- the LOCAL engine ---

/// What one port showed a node in one round.
struct PortView {
  int round = 0;
  int port = 0;
  bool received = false;
  std::uint64_t sender = 0;      // words[0] of the message
  std::uint64_t sent_round = 0;  // words[1] of the message
};

/// Sends (id, round) on every port on odd rounds only (init is silent), so
/// a neighbor's message lands on every even round and the slot it filled is
/// stale on the odd round after.  Logs every port of every round.
class OddRoundSender final : public NodeProgram {
 public:
  OddRoundSender(int rounds, std::vector<PortView>* log) : rounds_(rounds), log_(log) {}

  void init(NodeContext&) override {}

  void round(NodeContext& ctx) override {
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message* msg = ctx.received(p);
      PortView seen{ctx.round(), p, msg != nullptr, 0, 0};
      if (msg != nullptr) {
        seen.sender = msg->words.at(0);
        seen.sent_round = msg->words.at(1);
      }
      log_->push_back(seen);
    }
    if (ctx.round() >= rounds_) {
      ctx.finish();
      return;
    }
    if (ctx.round() % 2 == 1) {
      ctx.broadcast(Message{{ctx.my_id(), static_cast<std::uint64_t>(ctx.round())}});
    }
  }

 private:
  int rounds_;
  std::vector<PortView>* log_;
};

void expect_silent_rounds_read_nothing_on(const Graph& g) {
  constexpr int kRounds = 6;
  std::vector<std::vector<PortView>> logs(static_cast<std::size_t>(g.num_nodes()));
  Engine engine(g);
  const EngineStats stats = engine.run(
      [&](NodeId v) {
        return std::make_unique<OddRoundSender>(kRounds, &logs[static_cast<std::size_t>(v)]);
      },
      1000);
  EXPECT_EQ(stats.rounds, kRounds);
  // Rounds 1, 3 and 5 send one message per (node, port).
  EXPECT_EQ(stats.messages, 3 * 2 * static_cast<std::int64_t>(g.num_edges()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& log = logs[static_cast<std::size_t>(v)];
    ASSERT_EQ(log.size(), static_cast<std::size_t>(kRounds * g.degree(v))) << "node " << v;
    for (const PortView& seen : log) {
      const std::string tag = "node " + std::to_string(v) + " round " +
                              std::to_string(seen.round) + " port " + std::to_string(seen.port);
      if (seen.round % 2 == 1) {
        EXPECT_FALSE(seen.received) << tag;
        continue;
      }
      ASSERT_TRUE(seen.received) << tag;
      EXPECT_EQ(seen.sender, g.local_id(engine.port_neighbor(v, seen.port))) << tag;
      EXPECT_EQ(seen.sent_round, static_cast<std::uint64_t>(seen.round - 1)) << tag;
    }
  }
}

// The engine never runs a clear sweep over the inboxes; the round stamps
// must make that invisible to a program whose neighbors go silent.
TEST(RoundLoopEngine, SkippedClearSweepIsInvisibleToSilentRoundPrograms) {
  expect_silent_rounds_read_nothing_on(make_cycle(31));
  expect_silent_rounds_read_nothing_on(make_complete(12));
  expect_silent_rounds_read_nothing_on(make_random_regular(40, 8, 42));
  expect_silent_rounds_read_nothing_on(make_power_law(60, 2.5, 12.0, 7));
}

// --------------------------------------------------- the solver knob cube ---

// The full differential: validation tier x shard count, every combination
// pinned to one reference fingerprint — colors, effective rounds, raw
// rounds, and the entire per-scope ledger report.
TEST(RoundLoopSolver, KnobCubeBitIdenticalOnSmallInstances) {
  const Scenario scenarios[] = {
      {GraphFamily::kComplete, 12, ListFlavor::kTwoDelta, PolicyKind::kPractical, 42, 0},
      {GraphFamily::kRegular, 40, ListFlavor::kRandomDegPlusOne, PolicyKind::kPractical,
       42, 6},
  };
  for (const Scenario& scenario : scenarios) {
    const ListEdgeColoringInstance instance = build_instance(scenario);

    ExecConfig reference_config;
    reference_config.validation_tier = ValidationTier::kEveryRound;
    const SolveResult reference =
        Solver(Policy::practical(), reference_config).solve(instance);

    for (const ValidationTier tier :
         {ValidationTier::kOff, ValidationTier::kSampled, ValidationTier::kEveryRound}) {
      for (const int shards : {1, 2, 7}) {
        ExecConfig config;
        config.validation_tier = tier;
        config.shards = shards;
        config.min_sharded_edges = 0;  // force sharding on tiny graphs
        const SolveResult res = Solver(Policy::practical(), config).solve(instance);
        const std::string tag = scenario.name() + " tier=" + validation_tier_name(tier) +
                                " shards=" + std::to_string(shards);
        EXPECT_EQ(res.colors, reference.colors) << tag;
        EXPECT_EQ(res.rounds, reference.rounds) << tag;
        EXPECT_EQ(res.raw_rounds, reference.raw_rounds) << tag;
        EXPECT_EQ(res.round_report, reference.round_report) << tag;
      }
    }
  }
}

// ------------------------------------------------------- the class pass ---

// One pinned fingerprint of a solve: the outputs plus the deterministic
// schedule counters the class loop must reproduce (its ledger charges, gate
// draws, checkpoints and supersteps), whichever way it reaches a class's
// coloring.
struct ClassPassPin {
  std::uint64_t colors_hash;
  std::int64_t rounds, raw_rounds;
  std::int64_t trivial_picks, classes_nonempty, supersteps, checkpoints, draws;
  std::int64_t basecase_calls, noslack_fallbacks;
};

ClassPassPin class_pass_pin(const SolveResult& res) {
  const SolverStats& st = res.stats;
  return {hash_coloring(res.colors),
          res.rounds,
          res.raw_rounds,
          st.trivial_picks,
          st.classes_nonempty,
          st.profile.supersteps,
          st.profile.checkpoints,
          st.profile.validation_walks_run + st.profile.validation_walks_skipped,
          st.basecase_calls,
          st.noslack_fallbacks};
}

void expect_pin(const ClassPassPin& got, const ClassPassPin& want, const std::string& tag) {
  EXPECT_EQ(got.colors_hash, want.colors_hash) << tag;
  EXPECT_EQ(got.rounds, want.rounds) << tag;
  EXPECT_EQ(got.raw_rounds, want.raw_rounds) << tag;
  EXPECT_EQ(got.trivial_picks, want.trivial_picks) << tag;
  EXPECT_EQ(got.classes_nonempty, want.classes_nonempty) << tag;
  EXPECT_EQ(got.supersteps, want.supersteps) << tag;
  EXPECT_EQ(got.checkpoints, want.checkpoints) << tag;
  EXPECT_EQ(got.draws, want.draws) << tag;
  EXPECT_EQ(got.basecase_calls, want.basecase_calls) << tag;
  EXPECT_EQ(got.noslack_fallbacks, want.noslack_fallbacks) << tag;
}

// The Lemma 4.2 class loop colors a class whose active edges are
// independent with one trivial pick read off its mark-active walk, and any
// other class through the slack-beta recursion.  Both ways must leave the
// same solve: colors, rounds, the ledger report and every schedule counter,
// across validation tier x shard count, pinned to recorded values.  beta = 1
// gives classes with edges (the recursion path); beta = 50 and the hub-heavy
// practical solve give independent classes only; beta = 2 mixes them.
TEST(RoundLoopSolver, ClassPassPinnedAcrossTiersAndShards) {
  struct Case {
    std::string name;
    Graph graph;
    Policy policy;
    bool recursion;  ///< some class is colored through the slack-beta recursion
    ClassPassPin pin;
  };
  // bench_paper's EXP-L42 graph: regular n=256 d=16, ids scrambled into n^2,
  // base-case threshold 8 so the defective split runs.
  const Graph regular256 = make_random_regular(256, 16, 3).with_scrambled_ids(256 * 256, 5);
  const auto l42 = [](int beta) {
    Policy policy = Policy::practical();
    policy.base_degree_threshold = 8;
    policy.beta_fixed = beta;
    return policy;
  };
  const Case cases[] = {
      {"L42 beta=1", regular256, l42(1), true,
       {2126498189993988766u, 1948, 1948, 1, 17, 36, 53, 57, 17, 0}},
      {"L42 beta=2", regular256, l42(2), true,
       {7724403593913653739u, 1330, 1330, 41, 82, 125, 207, 212, 41, 0}},
      {"L42 beta=50", regular256, l42(50), false,
       {9736502563356845649u, 120864, 120864, 204, 206, 206, 412, 415, 0, 0}},
      {"power-law practical", make_power_law(600, 2.2, 60.0, 11), Policy::practical(), false,
       {8713759441719137618u, 60404, 60404, 74, 74, 75, 149, 152, 0, 0}},
  };
  for (const Case& c : cases) {
    const ListEdgeColoringInstance instance = make_two_delta_instance(c.graph);
    SolveControl control;  // polled only: counts the checkpoints
    ExecConfig reference_config;
    reference_config.validation_tier = ValidationTier::kEveryRound;
    const SolveResult reference =
        Solver(c.policy, reference_config).solve(instance, &control);
    const ClassPassPin ref = class_pass_pin(reference);
    expect_pin(ref, c.pin, c.name + " reference");
    EXPECT_GE(reference.stats.defective_calls, 1) << c.name;
    // Each no-slack chain (the top one and every no-slack fallback) ends on
    // at most one base case, and no child engine runs without a space
    // reduction: any further base case colored a class whose active edges
    // were not independent.
    EXPECT_EQ(reference.stats.space_reductions, 0) << c.name;
    EXPECT_EQ(reference.stats.basecase_calls > 1 + reference.stats.noslack_fallbacks,
              c.recursion)
        << c.name;

    for (const ValidationTier tier :
         {ValidationTier::kOff, ValidationTier::kSampled, ValidationTier::kEveryRound}) {
      for (const int shards : {1, 2, 7}) {
        ExecConfig config;
        config.validation_tier = tier;
        config.shards = shards;
        config.min_sharded_edges = 0;  // force sharding
        SolveControl cell_control;
        const SolveResult res = Solver(c.policy, config).solve(instance, &cell_control);
        const std::string tag = c.name + " tier=" + validation_tier_name(tier) +
                                " shards=" + std::to_string(shards);
        expect_pin(class_pass_pin(res), ref, tag);
        EXPECT_EQ(res.colors, reference.colors) << tag;
        EXPECT_EQ(res.round_report, reference.round_report) << tag;
      }
    }
  }
}

// ------------------------------------------------------------ the profile ---

SolveResult solve_with(const ListEdgeColoringInstance& instance, ValidationTier tier) {
  ExecConfig config;
  config.validation_tier = tier;
  return Solver(Policy::practical(), config).solve(instance);
}

TEST(RoundLoopProfile, CountersReportTheScheduleFaithfully) {
  const Scenario scenario{GraphFamily::kRegular, 40, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 6};
  const ListEdgeColoringInstance instance = build_instance(scenario);

  const SolveResult full = solve_with(instance, ValidationTier::kEveryRound);
  const RoundProfile& fp = full.stats.profile;
  EXPECT_GT(fp.supersteps, 0);
  EXPECT_GT(fp.validation_walks_run, 0);
  EXPECT_EQ(fp.validation_walks_skipped, 0);

  const SolveResult off = solve_with(instance, ValidationTier::kOff);
  EXPECT_EQ(off.stats.profile.validation_walks_run, 0);
  EXPECT_GT(off.stats.profile.validation_walks_skipped, 0);
  // Supersteps follow the serial control flow, not the tier.
  EXPECT_EQ(off.stats.profile.supersteps, fp.supersteps);

  const SolveResult sampled = solve_with(instance, ValidationTier::kSampled);
  EXPECT_GT(sampled.stats.profile.validation_walks_run, 0);

  // The gate is drawn at the same sites whatever the tier answers: the draw
  // count (run + skipped) is tier-invariant.
  const std::int64_t draws = fp.validation_walks_run + fp.validation_walks_skipped;
  EXPECT_EQ(off.stats.profile.validation_walks_run +
                off.stats.profile.validation_walks_skipped,
            draws);
  EXPECT_EQ(sampled.stats.profile.validation_walks_run +
                sampled.stats.profile.validation_walks_skipped,
            draws);
  // And the sampled tier runs a strict subset of every_round's walks.
  EXPECT_LT(sampled.stats.profile.validation_walks_run, draws);
}

// ------------------------------------------------------ validation gate ---

// A fresh gate's first draw fires under every tier but kOff.  Gates are made
// per engine and per churn repair, so a walk drawn once per gate (the
// engine's validate-entry walk, the repair's survivor walk) runs on every
// call; sampling thins only a gate's later draws.
TEST(ValidationGate, FirstDrawOfEveryGateFires) {
  ExecConfig config;
  config.validation_tier = ValidationTier::kSampled;
  for (int gate = 0; gate < 3; ++gate) {
    ValidationGate sampled = config.make_validation_gate();
    EXPECT_TRUE(sampled.due()) << "gate " << gate;
    for (int draw = 1; draw < ValidationGate::kSamplePeriod; ++draw) {
      EXPECT_FALSE(sampled.due()) << "gate " << gate << " draw " << draw;
    }
    EXPECT_TRUE(sampled.due()) << "gate " << gate << " wraps";
  }
  ValidationGate every(ValidationTier::kEveryRound);
  EXPECT_TRUE(every.due());
  EXPECT_TRUE(every.due());
  ValidationGate off(ValidationTier::kOff);
  EXPECT_FALSE(off.due());
}

}  // namespace
}  // namespace qplec
