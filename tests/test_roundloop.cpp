// The round-loop schedule tier (ctest label `roundloop`): everything the
// superstep/validation work is allowed to change is wall time, and
// everything else is pinned here.
//
//   * RoundLedger's incremental totals (raw_total O(1), total O(open-depth))
//     equal the O(tree) reference walks after EVERY operation of randomized
//     scope/charge sequences — the contract that makes progress checkpoints
//     O(1) instead of a per-round ledger-tree walk.
//   * The LOCAL engine runs node programs to identical outputs and
//     EngineStats with superstep fusion on and off — including programs that go silent on some rounds, the case where a
//     stale inbox slot would leak if the round stamps were wrong.
//   * The full Solver is bit-identical (colors, rounds, raw rounds, the
//     whole ledger report) across fusion {on, off} x validation tier
//     {off, sampled, every_round} x shards {1, 2, 7} x neighbor cache
//     {on, off} — the complete knob cube of ExecConfig's round-loop surface.
//   * RoundProfile's deterministic counters report the schedule faithfully:
//     fusion-only counters are zero on the split schedule, the gate draw
//     count is tier-invariant, and each tier runs/skips exactly as specified.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/local/engine.hpp"
#include "src/local/ledger.hpp"
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

/// Goes silent on odd rounds: sends (id * 64 + round) on every port in init
/// and on even rounds only, and every round folds what it received — with a
/// distinct sentinel for silent ports — into a running hash.  If superstep
/// fusion ever let a stale inbox slot from an earlier round show through
/// (the clear pass it skips), the silent-round sentinel turns into the stale
/// payload and the hash diverges.
class IntermittentProgram final : public NodeProgram {
 public:
  IntermittentProgram(int rounds, std::uint64_t* out) : rounds_(rounds), out_(out) {}

  void init(NodeContext& ctx) override {
    acc_ = ctx.my_id() * 2654435761u;
    ctx.broadcast(Message{{ctx.my_id() * 64}});
  }

  void round(NodeContext& ctx) override {
    for (int p = 0; p < ctx.degree(); ++p) {
      const Message* msg = ctx.received(p);
      acc_ = acc_ * 31 + (msg != nullptr ? msg->words.at(0) : 7);
    }
    if (ctx.round() >= rounds_) {
      *out_ = acc_;
      ctx.finish();
      return;
    }
    if (ctx.round() % 2 == 0) {
      ctx.broadcast(
          Message{{ctx.my_id() * 64 + static_cast<std::uint64_t>(ctx.round())}});
    }
  }

 private:
  int rounds_;
  std::uint64_t* out_;
  std::uint64_t acc_ = 0;
};

void expect_fusion_invisible_on(const Graph& g) {
  auto run_serial = [&](bool fuse, std::vector<std::uint64_t>& out) {
    Engine engine(g, fuse);
    return engine.run(
        [&](NodeId v) {
          return std::make_unique<IntermittentProgram>(
              6, &out[static_cast<std::size_t>(v)]);
        },
        1000);
  };
  std::vector<std::uint64_t> reference(static_cast<std::size_t>(g.num_nodes()), 0);
  const EngineStats ref_stats = run_serial(/*fuse=*/false, reference);

  std::vector<std::uint64_t> fused(static_cast<std::size_t>(g.num_nodes()), 0);
  const EngineStats fused_stats = run_serial(/*fuse=*/true, fused);
  EXPECT_EQ(fused, reference);
  EXPECT_EQ(fused_stats.rounds, ref_stats.rounds);
  EXPECT_EQ(fused_stats.messages, ref_stats.messages);
  EXPECT_EQ(fused_stats.words, ref_stats.words);
  EXPECT_EQ(fused_stats.max_message_words, ref_stats.max_message_words);
}

TEST(RoundLoopEngine, SkippedClearSweepIsInvisibleToSilentRoundPrograms) {
  expect_fusion_invisible_on(make_cycle(31));
  expect_fusion_invisible_on(make_complete(12));
  expect_fusion_invisible_on(make_random_regular(40, 8, 42));
  expect_fusion_invisible_on(make_power_law(60, 2.5, 12.0, 7));
}

// --------------------------------------------------- the solver knob cube ---

// The full differential: fusion x validation tier x shard count x neighbor
// cache, every combination pinned to one reference fingerprint — colors,
// effective rounds, raw rounds, and the entire per-scope ledger report.
TEST(RoundLoopSolver, KnobCubeBitIdenticalOnSmallInstances) {
  const Scenario scenarios[] = {
      {GraphFamily::kComplete, 12, ListFlavor::kTwoDelta, PolicyKind::kPractical, 42, 0},
      {GraphFamily::kRegular, 40, ListFlavor::kRandomDegPlusOne, PolicyKind::kPractical,
       42, 6},
  };
  for (const Scenario& scenario : scenarios) {
    const ListEdgeColoringInstance instance = build_instance(scenario);

    ExecConfig reference_config;
    reference_config.fuse_supersteps = false;
    reference_config.validation_tier = ValidationTier::kEveryRound;
    const SolveResult reference =
        Solver(Policy::practical(), reference_config).solve(instance);

    for (const bool fuse : {true, false}) {
      for (const ValidationTier tier :
           {ValidationTier::kOff, ValidationTier::kSampled, ValidationTier::kEveryRound}) {
        for (const int shards : {1, 2, 7}) {
          for (const bool cache : {true, false}) {
            ExecConfig config;
            config.fuse_supersteps = fuse;
            config.validation_tier = tier;
            config.shards = shards;
            config.min_sharded_edges = 0;  // force sharding on tiny graphs
            config.use_neighbor_cache = cache;
            const SolveResult res = Solver(Policy::practical(), config).solve(instance);
            const std::string tag = scenario.name() + (fuse ? " fused" : " split") +
                                    " tier=" + validation_tier_name(tier) +
                                    " shards=" + std::to_string(shards) +
                                    (cache ? " cached" : " uncached");
            EXPECT_EQ(res.colors, reference.colors) << tag;
            EXPECT_EQ(res.rounds, reference.rounds) << tag;
            EXPECT_EQ(res.raw_rounds, reference.raw_rounds) << tag;
            EXPECT_EQ(res.round_report, reference.round_report) << tag;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ the profile ---

SolveResult solve_with(const ListEdgeColoringInstance& instance, bool fuse,
                       ValidationTier tier) {
  ExecConfig config;
  config.fuse_supersteps = fuse;
  config.validation_tier = tier;
  return Solver(Policy::practical(), config).solve(instance);
}

TEST(RoundLoopProfile, CountersReportTheScheduleFaithfully) {
  const Scenario scenario{GraphFamily::kRegular, 40, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 6};
  const ListEdgeColoringInstance instance = build_instance(scenario);

  const SolveResult fused =
      solve_with(instance, /*fuse=*/true, ValidationTier::kEveryRound);
  const RoundProfile& fp = fused.stats.profile;
  EXPECT_GT(fp.supersteps, 0);
  EXPECT_GT(fp.fused_sweeps_saved, 0);
  EXPECT_GT(fp.validation_walks_run, 0);
  EXPECT_EQ(fp.validation_walks_skipped, 0);

  const SolveResult split =
      solve_with(instance, /*fuse=*/false, ValidationTier::kEveryRound);
  const RoundProfile& sp = split.stats.profile;
  // The fusion-only counters are the fused schedule's signature; the split
  // schedule must not claim them.
  EXPECT_EQ(sp.supersteps, 0);
  EXPECT_EQ(sp.fused_sweeps_saved, 0);
  EXPECT_EQ(sp.validation_walks_run, fp.validation_walks_run);

  const SolveResult off = solve_with(instance, /*fuse=*/true, ValidationTier::kOff);
  EXPECT_EQ(off.stats.profile.validation_walks_run, 0);
  EXPECT_GT(off.stats.profile.validation_walks_skipped, 0);

  const SolveResult sampled =
      solve_with(instance, /*fuse=*/true, ValidationTier::kSampled);
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

}  // namespace
}  // namespace qplec
