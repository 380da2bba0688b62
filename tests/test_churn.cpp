// Edge-churn tests (ctest label `service`): the recolor engine's contract
// and the SolveService::update front door.
//
// The pins, in order of importance:
//   1. Differential: a repaired coloring is a proper list coloring of the
//      mutated instance, every survivor keeps its pre-churn color verbatim
//      (the bounded-drift invariant), and the repair is bit-identical across
//      shards {1,2,7}.
//   2. The budget fallback is bit-identical to a from-scratch solve of the
//      mutated instance; pure-removal batches never fall back at all.
//   3. update() never throws: missing/evicted/invalidated snapshots, bases
//      that kept no snapshot, in-flight bases and inconsistent batches all
//      come back as kInvalidInstance outcomes.
//   4. The derived-fingerprint rule: a repeated identical update is a result
//      cache hit, and an update's outcome fingerprint seeds the next update.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <sstream>
#include <vector>

#include "src/coloring/validate.hpp"
#include "src/core/recolor.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/service/churn.hpp"
#include "src/service/solve_service.hpp"

namespace qplec {
namespace {

/// Checks the bounded-drift invariant: every mutated edge with a carried
/// color kept it verbatim.
void expect_no_drift(const RecolorPlan& plan, const EdgeColoring& repaired,
                     const std::string& tag) {
  ASSERT_EQ(repaired.size(), plan.carried.size()) << tag;
  for (std::size_t e = 0; e < plan.carried.size(); ++e) {
    if (plan.carried[e] != kUncolored) {
      EXPECT_EQ(repaired[e], plan.carried[e]) << tag << " edge " << e;
    }
  }
}

/// The standard base for the core tests: a scrambled-id random regular graph
/// solved serially.
struct Base {
  ListEdgeColoringInstance instance;
  SolveResult solved;
};

Base make_base(int nodes = 64, int degree = 6, std::uint64_t seed = 9) {
  Base base;
  const Graph g = make_random_regular(nodes, degree, seed)
                      .with_scrambled_ids(nodes * nodes, seed + 1);
  base.instance = make_two_delta_instance(g);
  base.solved = Solver(Policy::practical()).solve(base.instance);
  return base;
}

// A gate a blocker job parks on (same idiom as test_service.cpp): its
// on_round callback blocks until release(), giving tests a deterministic
// "base still in flight" window.
class BlockerGate {
 public:
  std::function<void(const RoundProgress&)> callback() {
    return [this](const RoundProgress&) {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    };
  }

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }

  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// ------------------------------------------------------------ core engine ---

TEST(Recolor, RemovalOnlyBatchKeepsEveryColorAndNeverFallsBack) {
  const Base base = make_base();
  ChurnBatch batch;
  const auto e0 = base.instance.graph.endpoints(0);
  const auto e1 = base.instance.graph.endpoints(base.instance.graph.num_edges() / 2);
  batch.remove(e0.u, e0.v).remove(e1.u, e1.v);

  const RecolorPlan plan = plan_recolor(base.instance, base.solved.colors, batch.ops);
  EXPECT_EQ(plan.inserts, 0);
  EXPECT_EQ(plan.removes, 2);
  EXPECT_TRUE(plan.region.empty());
  EXPECT_EQ(plan.mutated.graph.num_edges(), base.instance.graph.num_edges() - 2);

  // Removals only relax constraints: even a disabled budget (<= 0 means
  // "always fall back") must not trigger a re-solve for an empty region.
  ExecConfig no_budget;
  no_budget.recolor_budget = 0;
  const RecolorOutcome rec = repair_recolor(plan, Policy::practical(), no_budget);
  EXPECT_FALSE(rec.fallback);
  EXPECT_EQ(rec.region_edges, 0);
  EXPECT_TRUE(is_valid_list_coloring(plan.mutated, rec.result.colors));
  expect_no_drift(plan, rec.result.colors, "removal-only");
  // With an empty region there are no inserts: every color is carried.
  for (const Color c : rec.result.colors) EXPECT_NE(c, kUncolored);
}

TEST(Recolor, RegionIsExactlyTheInsertedEdges) {
  const Base base = make_base();
  const ChurnBatch batch = make_random_churn(base.instance.graph, 5, 3, 123);

  const RecolorPlan plan = plan_recolor(base.instance, base.solved.colors, batch.ops);
  EXPECT_EQ(plan.inserts, 5);
  EXPECT_EQ(plan.removes, 3);
  ASSERT_EQ(static_cast<int>(plan.region.size()), 5);
  for (const EdgeId e : plan.region) {
    EXPECT_EQ(plan.carried[static_cast<std::size_t>(e)], kUncolored);
  }

  const RecolorOutcome rec = repair_recolor(plan, Policy::practical(), ExecConfig{});
  EXPECT_FALSE(rec.fallback);
  EXPECT_EQ(rec.region_edges, 5);
  EXPECT_TRUE(is_valid_list_coloring(plan.mutated, rec.result.colors));
  expect_no_drift(plan, rec.result.colors, "insert-region");
}

TEST(Recolor, RepairBitIdenticalAcrossShardCounts) {
  const Base base = make_base(96, 6, 17);
  const ChurnBatch batch = make_random_churn(base.instance.graph, 6, 6, 456);
  const RecolorPlan plan = plan_recolor(base.instance, base.solved.colors, batch.ops);

  const RecolorOutcome reference = repair_recolor(plan, Policy::practical(), ExecConfig{});
  ASSERT_FALSE(reference.fallback);
  ASSERT_TRUE(is_valid_list_coloring(plan.mutated, reference.result.colors));
  expect_no_drift(plan, reference.result.colors, "reference");

  for (const int shards : {1, 2, 7}) {
    ExecConfig config;
    config.shards = shards;
    if (shards > 1) config.min_sharded_edges = 0;
    const RecolorOutcome rec = repair_recolor(plan, Policy::practical(), config);
    const std::string tag = "shards=" + std::to_string(shards);
    EXPECT_FALSE(rec.fallback) << tag;
    EXPECT_EQ(rec.result.colors, reference.result.colors) << tag;
    EXPECT_EQ(rec.result.rounds, reference.result.rounds) << tag;
    EXPECT_EQ(hash_coloring(rec.result.colors), hash_coloring(reference.result.colors)) << tag;
  }
}

TEST(Recolor, BudgetFallbackBitIdenticalToFromScratchSolve) {
  const Base base = make_base();
  const ChurnBatch batch = make_random_churn(base.instance.graph, 4, 2, 789);
  const RecolorPlan plan = plan_recolor(base.instance, base.solved.colors, batch.ops);
  ASSERT_GT(plan.region_payload, 0);

  ExecConfig tiny_budget;
  tiny_budget.recolor_budget = 1;  // any inserted edge's line-graph degree beats this
  const RecolorOutcome rec = repair_recolor(plan, Policy::practical(), tiny_budget);
  EXPECT_TRUE(rec.fallback);
  EXPECT_EQ(rec.region_edges, 0);

  const SolveResult scratch = Solver(Policy::practical(), tiny_budget).solve(plan.mutated);
  EXPECT_EQ(rec.result.colors, scratch.colors);
  EXPECT_EQ(rec.result.rounds, scratch.rounds);
  EXPECT_EQ(rec.result.round_report, scratch.round_report);
}

// The survivor walk runs on every repair: the repair's gate is fresh and a
// fresh gate's first draw fires.  Two survivors at one node with the same
// carried color are caught there under kSampled; under kOff the walk is
// skipped and the always-on final check refuses the answer instead.
TEST(Recolor, SurvivorWalkRunsOnEveryRepairUnderSampled) {
  const Base base = make_base();
  RecolorPlan plan = plan_recolor(base.instance, base.solved.colors,
                                  make_random_churn(base.instance.graph, 1, 0, 321).ops);
  ASSERT_EQ(plan.region.size(), 1u);
  const Graph& g2 = plan.mutated.graph;
  const auto carried = [&](EdgeId e) { return plan.carried[static_cast<std::size_t>(e)]; };
  std::vector<EdgeId> survivors;  // carried edges at node 0
  for (const Incidence& inc : g2.incident(0)) {
    if (carried(inc.edge) != kUncolored) survivors.push_back(inc.edge);
  }
  ASSERT_GE(survivors.size(), 2u);
  plan.carried[static_cast<std::size_t>(survivors[1])] = carried(survivors[0]);

  const auto message = [&](ValidationTier tier, auto expected) {
    ExecConfig config;
    config.validation_tier = tier;
    try {
      repair_recolor(plan, Policy::practical(), config);
    } catch (const decltype(expected)& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string sampled = message(ValidationTier::kSampled, std::invalid_argument(""));
  EXPECT_NE(sampled.find("carried churn colors conflict"), std::string::npos) << sampled;
  const std::string off = message(ValidationTier::kOff, InvariantViolation(""));
  EXPECT_NE(off.find("invalid solution"), std::string::npos) << off;
}

// The plan maps survivors to their base ids with one merge over the two
// graphs' (u, v)-ordered edge arrays.  Pinned here against the per-edge
// find_edge derivation it replaced, on batches that touch both ends of the
// id range, crowd one node and remove/insert adjacent pairs.
TEST(Recolor, PlanMapsEdgesLikeFindEdge) {
  // Nodes 0 and n-1 stay isolated, so {0, 1} sorts before every base edge
  // and {n-2, n-1} after every one.
  constexpr int kNodes = 66;
  const Graph inner = make_random_regular(kNodes - 2, 6, 31);
  GraphBuilder builder(kNodes);
  for (const EdgeEndpoints& ep : inner.all_endpoints()) builder.add_edge(ep.u + 1, ep.v + 1);
  const ListEdgeColoringInstance instance =
      make_random_list_instance(builder.build(), 2 * 6 + 8, 5);
  const Graph& g = instance.graph;
  const EdgeColoring colors = Solver(Policy::practical()).solve(instance).colors;
  const int m = g.num_edges();

  const auto expect_matches = [&](const ChurnBatch& batch, const std::string& tag) {
    const RecolorPlan plan = plan_recolor(instance, colors, batch.ops);
    const Graph& g2 = plan.mutated.graph;
    std::vector<char> removed(static_cast<std::size_t>(m), 0);
    for (const EdgeDelta& op : batch.ops) {
      if (!op.insert) removed[static_cast<std::size_t>(g.find_edge(op.u, op.v))] = 1;
    }
    const Color palette = plan.mutated.palette_size;
    EdgeColoring carried(static_cast<std::size_t>(g2.num_edges()), kUncolored);
    std::vector<EdgeId> region;
    std::int64_t payload = 0;
    for (EdgeId e2 = 0; e2 < g2.num_edges(); ++e2) {
      const EdgeEndpoints& ep = g2.endpoints(e2);
      const EdgeId old = g.find_edge(ep.u, ep.v);
      const ColorList& list = plan.mutated.lists[static_cast<std::size_t>(e2)];
      if (old == kInvalidEdge || removed[static_cast<std::size_t>(old)]) {
        region.push_back(e2);
        payload += g2.edge_degree(e2);
        EXPECT_EQ(list, ColorList::range(0, palette)) << tag << " edge " << e2;
        continue;
      }
      carried[static_cast<std::size_t>(e2)] = colors[static_cast<std::size_t>(old)];
      // The base list, padded with the smallest absent palette colors up to
      // deg(e) + 1.
      std::vector<Color> expected = instance.lists[static_cast<std::size_t>(old)].colors();
      for (Color c = 0; static_cast<int>(expected.size()) < g2.edge_degree(e2) + 1; ++c) {
        if (std::find(expected.begin(), expected.end(), c) == expected.end()) {
          expected.push_back(c);
        }
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(list.colors(), expected) << tag << " edge " << e2;
    }
    EXPECT_EQ(plan.carried, carried) << tag;
    EXPECT_EQ(plan.region, region) << tag;
    EXPECT_EQ(plan.region_payload, payload) << tag;
  };

  const EdgeEndpoints first = g.endpoints(0);
  const EdgeEndpoints last = g.endpoints(m - 1);
  ChurnBatch ends_removed;
  ends_removed.remove(first.u, first.v).remove(last.v, last.u);
  expect_matches(ends_removed, "ends removed");
  ChurnBatch outside_inserts;
  outside_inserts.insert(1, 0).insert(kNodes - 1, kNodes - 2);
  expect_matches(outside_inserts, "outside inserts");
  ChurnBatch both_ends;
  both_ends.insert(0, 1).remove(first.u, first.v);
  both_ends.insert(kNodes - 2, kNodes - 1).remove(last.u, last.v);
  expect_matches(both_ends, "both ends");

  // Several inserts at one node (its survivors' lists get padded).
  ChurnBatch crowd;
  for (NodeId v = 1; v < kNodes && crowd.size() < 5; ++v) {
    if (v != 7 && g.find_edge(7, v) == kInvalidEdge) crowd.insert(v, 7);
  }
  ASSERT_EQ(crowd.size(), 5u);
  expect_matches(crowd, "crowded node");

  // Remove an edge and insert the absent pairs just before and after it.
  for (const EdgeId e : {1, m / 3, m / 2, m - 2}) {
    const EdgeEndpoints ep = g.endpoints(e);
    ChurnBatch adjacent;
    adjacent.remove(ep.u, ep.v);
    for (const NodeId v : {ep.v - 1, ep.v + 1}) {
      if (v != ep.u && v >= 0 && v < kNodes && g.find_edge(ep.u, v) == kInvalidEdge) {
        adjacent.insert(ep.u, v);
      }
    }
    const EdgeEndpoints next = g.endpoints(e + 1);
    adjacent.remove(next.v, next.u);
    expect_matches(adjacent, "adjacent pairs at edge " + std::to_string(e));
  }
}

TEST(Recolor, ValidateDeltasRejectsEveryInconsistency) {
  const Graph g = make_random_regular(16, 3, 4);
  const auto existing = g.endpoints(0);
  // A pair that is genuinely absent (regular degree 3 on 16 nodes leaves
  // plenty); find one by scanning.
  NodeId au = -1;
  NodeId av = -1;
  for (NodeId u = 0; u < g.num_nodes() && au < 0; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (g.find_edge(u, v) == kInvalidEdge) {
        au = u;
        av = v;
        break;
      }
    }
  }
  ASSERT_GE(au, 0);

  const auto expect_rejected = [&](const ChurnBatch& batch) {
    EXPECT_THROW(validate_deltas(g, batch.ops), std::invalid_argument);
  };
  expect_rejected(ChurnBatch{}.insert(0, g.num_nodes()));     // out of range
  expect_rejected(ChurnBatch{}.insert(-1, 1));                // out of range
  expect_rejected(ChurnBatch{}.insert(3, 3));                 // self-loop
  expect_rejected(ChurnBatch{}.insert(existing.u, existing.v));  // already present
  expect_rejected(ChurnBatch{}.remove(au, av));               // not present
  expect_rejected(ChurnBatch{}.insert(au, av).remove(av, au));   // duplicate pair
  // And the good ones pass.
  validate_deltas(g, ChurnBatch{}.insert(au, av).remove(existing.u, existing.v).ops);
}

// A 300k-op batch validates in linear time, and the first error it reports
// follows the per-op order range, self-loop, duplicate, insert-existing,
// remove-missing, with the earliest bad op winning.  (A duplicate check
// that scans the ops seen so far makes the valid batch alone ~4.5e10
// compares.)
TEST(Recolor, ValidateDeltasIsLinearAndKeepsTheFirstErrorOrder) {
  constexpr NodeId kNodes = 1000;
  constexpr std::size_t kOps = 300000;
  const Graph g = make_cycle(kNodes);
  // 500 removes of cycle edges {u, u + 1}, then inserts of absent pairs in
  // (u, v) order, all with reversed endpoints: {0, 2}, {0, 3}, ...  Pairs
  // with u >= 400 are never touched.
  std::vector<EdgeDelta> ops;
  ops.reserve(kOps);
  for (NodeId u = 0; u < 500; ++u) ops.push_back(EdgeDelta{false, u + 1, u});
  for (NodeId u = 0; u < kNodes && ops.size() < kOps; ++u) {
    for (NodeId v = u + 2; v < kNodes && ops.size() < kOps; ++v) {
      if (g.find_edge(u, v) == kInvalidEdge) ops.push_back(EdgeDelta{true, v, u});
    }
  }
  ASSERT_EQ(ops.size(), kOps);
  ASSERT_LT(ops.back().v, 400);
  validate_deltas(g, ops);  // the valid batch passes

  const auto first_error = [&](const std::vector<EdgeDelta>& tail) {
    std::vector<EdgeDelta> batch = ops;
    batch.insert(batch.end(), tail.begin(), tail.end());
    try {
      validate_deltas(g, batch);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const EdgeDelta out_of_range{true, 0, kNodes};
  const EdgeDelta self_loop{true, 7, 7};
  const EdgeDelta dup_insert{true, 0, 2};
  const EdgeDelta insert_existing{true, 601, 600};
  const EdgeDelta remove_missing{false, 900, 800};
  // Ops that break two rules at once: out of range and a self-loop; a
  // duplicate that also removes a missing edge; a duplicate (of a remove)
  // that also inserts an existing edge.
  const EdgeDelta both_out_of_range{true, -1, -1};
  const EdgeDelta dup_remove_missing{false, 2, 0};
  const EdgeDelta dup_insert_existing{true, 0, 1};

  // One error of each kind, last in the batch.
  EXPECT_EQ(first_error({out_of_range}), "churn batch: endpoint out of range in {0, 1000}");
  EXPECT_EQ(first_error({self_loop}), "churn batch: self-loop at node 7");
  EXPECT_EQ(first_error({dup_insert}), "churn batch: duplicate op on edge {0, 2}");
  EXPECT_EQ(first_error({insert_existing}), "churn batch: insert of existing edge {600, 601}");
  EXPECT_EQ(first_error({remove_missing}), "churn batch: remove of missing edge {800, 900}");
  // Within one op: range before self-loop, duplicate before existence.
  EXPECT_EQ(first_error({both_out_of_range}), "churn batch: endpoint out of range in {-1, -1}");
  EXPECT_EQ(first_error({dup_remove_missing}), "churn batch: duplicate op on edge {0, 2}");
  EXPECT_EQ(first_error({dup_insert_existing}), "churn batch: duplicate op on edge {0, 1}");
  // Across ops: the earliest bad op wins, whatever its kind.
  EXPECT_EQ(first_error({remove_missing, dup_insert}),
            "churn batch: remove of missing edge {800, 900}");
  EXPECT_EQ(first_error({dup_insert, out_of_range}), "churn batch: duplicate op on edge {0, 2}");
  EXPECT_EQ(first_error({insert_existing, self_loop}),
            "churn batch: insert of existing edge {600, 601}");
}

// -------------------------------------------------- batch parsing + keys ---

TEST(Churn, ParseChurnStreamFormat) {
  std::istringstream in(
      "# churn ops\n"
      "i 3 7\n"
      "\n"
      "r 1 2\n"
      "i 0 5  # trailing comment\n");
  const ChurnBatch batch = parse_churn_stream(in);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch.ops[0].insert);
  EXPECT_EQ(batch.ops[0].u, 3);
  EXPECT_EQ(batch.ops[0].v, 7);
  EXPECT_FALSE(batch.ops[1].insert);
  EXPECT_TRUE(batch.ops[2].insert);

  std::istringstream bad_op("x 1 2\n");
  EXPECT_THROW(parse_churn_stream(bad_op), std::invalid_argument);
  std::istringstream missing("i 1\n");
  EXPECT_THROW(parse_churn_stream(missing), std::invalid_argument);
  std::istringstream trailing("r 1 2 3\n");
  EXPECT_THROW(parse_churn_stream(trailing), std::invalid_argument);
  EXPECT_THROW(parse_churn_file("/nonexistent/churn.txt"), std::invalid_argument);
}

TEST(Churn, ChainFingerprintIsOrderAndBaseSensitive) {
  const ChurnBatch ab = ChurnBatch{}.insert(1, 2).remove(3, 4);
  const ChurnBatch ba = ChurnBatch{}.remove(3, 4).insert(1, 2);
  EXPECT_EQ(chain_fingerprint(99, ab), chain_fingerprint(99, ab));
  EXPECT_NE(chain_fingerprint(99, ab), chain_fingerprint(99, ba));
  EXPECT_NE(chain_fingerprint(99, ab), chain_fingerprint(100, ab));
  EXPECT_NE(chain_fingerprint(99, ab), chain_fingerprint(99, ChurnBatch{}.insert(1, 2)));
}

TEST(Churn, RandomChurnIsDeterministicAndConsistent) {
  const Graph g = make_random_regular(40, 4, 11);
  const ChurnBatch a = make_random_churn(g, 5, 5, 77);
  const ChurnBatch b = make_random_churn(g, 5, 5, 77);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.ops[i].insert, b.ops[i].insert);
    EXPECT_EQ(a.ops[i].u, b.ops[i].u);
    EXPECT_EQ(a.ops[i].v, b.ops[i].v);
  }
  validate_deltas(g, a.ops);  // must not throw
}

// -------------------------------------------------------- service update ---

/// The scenario the service tests churn against, and a batch valid for it.
Scenario service_scenario(std::uint64_t seed = 7) {
  return Scenario{GraphFamily::kRegular, 64, ListFlavor::kTwoDelta,
                  PolicyKind::kPractical, seed, 6};
}

ChurnBatch service_batch(const Scenario& s, std::uint64_t seed = 1234) {
  // build_instance is pure, so this graph is bit-identical to the snapshot's.
  return make_random_churn(build_instance(s).graph, 4, 4, seed);
}

/// An Ok update's outcome is shaped like any other solve's: its metadata
/// describes plan_recolor's mutated instance, it reports the shard count
/// its config gives that instance, and it carries the update label, a build
/// time (the plan) and the final check's verdict.
void expect_update_shape(const SolveOutcome& out, const RecolorPlan& plan,
                         const ExecConfig& config) {
  EXPECT_EQ(out.num_nodes, plan.mutated.graph.num_nodes());
  EXPECT_EQ(out.num_edges, plan.mutated.graph.num_edges());
  EXPECT_EQ(out.max_degree, plan.mutated.graph.max_degree());
  EXPECT_EQ(out.max_edge_degree, plan.mutated.graph.max_edge_degree());
  EXPECT_EQ(out.palette_size, plan.mutated.palette_size);
  EXPECT_EQ(out.shards, config.effective_shards(out.num_edges));
  EXPECT_EQ(out.label, "churn-update");
  EXPECT_GT(out.build_ms, 0.0);
  EXPECT_TRUE(out.valid);
}

TEST(ServiceChurn, UpdateRepairsAndMatchesDirectRepair) {
  const Scenario s = service_scenario();
  const ChurnBatch batch = service_batch(s);

  const ExecConfig config{.workers = 2};
  SolveService service(config);
  const auto before = service.metrics_snapshot();
  const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
  const SolveOutcome& base_out = base.wait();
  ASSERT_TRUE(base_out.ok()) << base_out.error;
  ASSERT_NE(base_out.fingerprint, 0u);

  const SolveTicket updated = service.update(base, batch);
  const SolveOutcome& out = updated.wait();
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_TRUE(out.churn_update);
  EXPECT_TRUE(out.repaired);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_GT(out.repair_region_edges, 0);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.base_fingerprint, base_out.fingerprint);
  EXPECT_NE(out.fingerprint, 0u);
  EXPECT_NE(out.fingerprint, base_out.fingerprint);

  // Differential: the same repair through the core API, from the same base.
  const ListEdgeColoringInstance instance = build_instance(s);
  const SolveResult direct = Solver(Policy::practical()).solve(instance);
  const RecolorPlan plan = plan_recolor(instance, direct.colors, batch.ops);
  const RecolorOutcome rec = repair_recolor(plan, Policy::practical(), ExecConfig{});
  EXPECT_EQ(out.colors_hash, hash_coloring(rec.result.colors));
  EXPECT_EQ(out.result.colors, rec.result.colors);
  EXPECT_TRUE(is_valid_list_coloring(plan.mutated, out.result.colors));
  expect_update_shape(out, plan, config);

  const auto after = service.metrics_snapshot();
  EXPECT_EQ(after.updates, before.updates + 1);
  EXPECT_EQ(after.updates_repaired, before.updates_repaired + 1);
  EXPECT_EQ(after.updates_fallback, before.updates_fallback);
}

// An instance request's snapshot shares the request's instance: update()
// still works after the request and its ticket are gone, and matches the
// same repair through the core API.
TEST(ServiceChurn, UpdateOnInstanceSourceOutlivesRequestAndTicket) {
  const Scenario s = service_scenario(13);
  const ListEdgeColoringInstance instance = build_instance(s);
  const ChurnBatch batch = service_batch(s, 4321);

  SolveService service(ExecConfig{.workers = 2});
  std::uint64_t base_fingerprint = 0;
  {
    SolveRequest request = SolveRequest::from_instance(instance);
    const SolveTicket base = service.submit(request);
    const SolveOutcome& base_out = base.wait();
    ASSERT_TRUE(base_out.ok()) << base_out.error;
    base_fingerprint = base_out.fingerprint;
  }
  ASSERT_NE(base_fingerprint, 0u);

  const SolveOutcome out = service.update(base_fingerprint, batch).wait();
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_TRUE(out.repaired);
  EXPECT_TRUE(out.valid);

  const SolveResult direct = Solver(Policy::practical()).solve(instance);
  const RecolorPlan plan = plan_recolor(instance, direct.colors, batch.ops);
  const RecolorOutcome rec = repair_recolor(plan, Policy::practical(), ExecConfig{});
  EXPECT_EQ(out.result.colors, rec.result.colors);
  EXPECT_EQ(out.colors_hash, hash_coloring(rec.result.colors));
}

TEST(ServiceChurn, UpdateBitIdenticalAcrossServiceConfigs) {
  const Scenario s = service_scenario(21);
  const ChurnBatch batch = service_batch(s, 555);

  std::uint64_t reference_hash = 0;
  bool have_reference = false;
  for (const int shards : {1, 2, 7}) {
    for (const bool result_cache : {true, false}) {
      ExecConfig config;
      config.workers = 2;
      config.shards = shards;
      if (shards > 1) config.min_sharded_edges = 0;
      if (!result_cache) config.max_cache_entries = 0;
      SolveService service(config);
      const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
      ASSERT_TRUE(base.wait().ok()) << base.wait().error;
      const SolveOutcome out = service.update(base, batch).wait();
      const std::string tag = "shards=" + std::to_string(shards) +
                              (result_cache ? " cache" : " no-cache");
      ASSERT_EQ(out.status, SolveStatus::kOk) << tag << ": " << out.error;
      EXPECT_TRUE(out.repaired) << tag;
      EXPECT_TRUE(out.valid) << tag;
      if (!have_reference) {
        reference_hash = out.colors_hash;
        have_reference = true;
      } else {
        EXPECT_EQ(out.colors_hash, reference_hash) << tag;
      }
    }
  }
}

TEST(ServiceChurn, RepeatedUpdateIsACacheHitAndChainsFurther) {
  const Scenario s = service_scenario(33);
  const ChurnBatch batch = service_batch(s, 888);

  SolveService service(ExecConfig{.workers = 1});
  const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
  ASSERT_TRUE(base.wait().ok());

  const SolveOutcome first = service.update(base, batch).wait();
  ASSERT_EQ(first.status, SolveStatus::kOk) << first.error;
  EXPECT_FALSE(first.cache_hit);

  // Identical update: the derived key matches, so the result cache answers.
  const SolveOutcome second = service.update(base, batch).wait();
  ASSERT_EQ(second.status, SolveStatus::kOk) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.colors_hash, first.colors_hash);
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // The outcome's own fingerprint seeds the next link of the chain.
  ChurnBatch next;
  // Remove one of the edges the first update inserted: guaranteed present in
  // the mutated graph and absent from the base.
  for (const EdgeDelta& op : batch.ops) {
    if (op.insert) {
      next.remove(op.u, op.v);
      break;
    }
  }
  ASSERT_FALSE(next.empty());
  const SolveOutcome chained = service.update(first.fingerprint, next).wait();
  ASSERT_EQ(chained.status, SolveStatus::kOk) << chained.error;
  EXPECT_TRUE(chained.churn_update);
  EXPECT_EQ(chained.base_fingerprint, first.fingerprint);
  EXPECT_TRUE(chained.valid);
}

TEST(ServiceChurn, UpdateOnCacheHitTicketWorks) {
  const Scenario s = service_scenario(44);
  SolveService service(ExecConfig{.workers = 1});
  ASSERT_TRUE(service.submit(SolveRequest::from_scenario(s)).wait().ok());
  const SolveTicket hit = service.submit(SolveRequest::from_scenario(s));
  ASSERT_TRUE(hit.wait().ok());
  ASSERT_TRUE(hit.wait().cache_hit);

  const SolveOutcome out = service.update(hit, service_batch(s, 999)).wait();
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_TRUE(out.repaired);
  EXPECT_TRUE(out.valid);
}

TEST(ServiceChurn, UpdateBeforeBaseCompletesIsRejectedThenWorks) {
  const Scenario s = service_scenario(55);
  SolveService service(ExecConfig{.workers = 1});

  BlockerGate gate;
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(service_scenario(56)).on_round(gate.callback()));
  gate.wait_entered();

  // The base sits queued behind the blocker: no snapshot exists yet, so an
  // update against its (known, public) fingerprint must be rejected now...
  const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
  const std::uint64_t fp = service.fingerprint(SolveRequest::from_scenario(s));
  const SolveOutcome early = service.update(fp, service_batch(s)).wait();
  EXPECT_EQ(early.status, SolveStatus::kInvalidInstance);
  EXPECT_TRUE(early.churn_update);
  EXPECT_NE(early.error.find("snapshot"), std::string::npos) << early.error;

  // ... and succeed once the base completed Ok.
  gate.release();
  ASSERT_TRUE(base.wait().ok()) << base.wait().error;
  ASSERT_TRUE(blocker.wait().ok());
  const SolveOutcome late = service.update(fp, service_batch(s)).wait();
  ASSERT_EQ(late.status, SolveStatus::kOk) << late.error;
  EXPECT_TRUE(late.repaired);
}

TEST(ServiceChurn, UpdateAfterInvalidateIsRejected) {
  const Scenario s = service_scenario(66);
  SolveService service(ExecConfig{.workers = 1});
  const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
  ASSERT_TRUE(base.wait().ok());
  const std::uint64_t fp = base.wait().fingerprint;

  EXPECT_TRUE(service.invalidate(fp));
  const SolveOutcome out = service.update(fp, service_batch(s)).wait();
  EXPECT_EQ(out.status, SolveStatus::kInvalidInstance);
  EXPECT_NE(out.error.find("snapshot"), std::string::npos) << out.error;
}

TEST(ServiceChurn, NonUpdatableBasesAreRejectedWithReason) {
  const Scenario s = service_scenario(77);
  SolveService service(ExecConfig{.workers = 1});

  const SolveTicket no_cache =
      service.submit(SolveRequest::from_scenario(s).no_cache());
  ASSERT_TRUE(no_cache.wait().ok());
  const SolveTicket no_colors =
      service.submit(SolveRequest::from_scenario(s).discard_colors());
  ASSERT_TRUE(no_colors.wait().ok());
  const SolveTicket relaxed =
      service.submit(SolveRequest::from_scenario(s).relaxed(1.05));
  ASSERT_TRUE(relaxed.wait().ok());

  for (const SolveTicket* ticket : {&no_cache, &no_colors, &relaxed}) {
    const SolveOutcome out = service.update(*ticket, service_batch(s)).wait();
    EXPECT_EQ(out.status, SolveStatus::kInvalidInstance);
    EXPECT_TRUE(out.churn_update);
    EXPECT_NE(out.error.find("snapshot"), std::string::npos) << out.error;
  }
}

TEST(ServiceChurn, InconsistentBatchIsRejectedAtSubmit) {
  const Scenario s = service_scenario(88);
  SolveService service(ExecConfig{.workers = 1});
  const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
  ASSERT_TRUE(base.wait().ok());

  // Removing an absent pair: validate_deltas rejects before any job runs.
  const Graph& g = build_instance(s).graph;
  NodeId au = -1;
  NodeId av = -1;
  for (NodeId u = 0; u < g.num_nodes() && au < 0; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (g.find_edge(u, v) == kInvalidEdge) {
        au = u;
        av = v;
        break;
      }
    }
  }
  ASSERT_GE(au, 0);
  const SolveOutcome out = service.update(base, ChurnBatch{}.remove(au, av)).wait();
  EXPECT_EQ(out.status, SolveStatus::kInvalidInstance);
  EXPECT_TRUE(out.churn_update);
  EXPECT_NE(out.error.find("churn batch"), std::string::npos) << out.error;
}

// An update resolved on the queue side -- shed at max_queue_depth, or
// cancelled before a worker claims it -- still names itself an update of
// its base, like one a worker ran or update() rejected.
TEST(ServiceChurn, QueueSideResolutionsKeepTheChurnFields) {
  const Scenario s = service_scenario(111);
  ExecConfig config;
  config.workers = 1;
  config.max_queue_depth = 1;
  SolveService service(config);
  const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
  ASSERT_TRUE(base.wait().ok()) << base.wait().error;
  const std::uint64_t base_fp = base.wait().fingerprint;
  ASSERT_NE(base_fp, 0u);

  BlockerGate gate;
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(service_scenario(112)).on_round(gate.callback()));
  gate.wait_entered();

  // The one worker is parked: the first update takes the one queue slot and
  // is cancelled there; the second finds the queue full and is shed.
  const SolveTicket queued = service.update(base, service_batch(s, 1));
  const SolveTicket shed = service.update(base, service_batch(s, 2));
  queued.cancel();

  const auto expect_update = [&](const SolveOutcome& out, SolveStatus status) {
    EXPECT_EQ(out.status, status) << status_name(status);
    EXPECT_TRUE(out.churn_update) << status_name(status);
    EXPECT_EQ(out.base_fingerprint, base_fp) << status_name(status);
    EXPECT_EQ(out.label, "churn-update") << status_name(status);
  };
  expect_update(shed.wait(), SolveStatus::kQueueFull);
  expect_update(queued.wait(), SolveStatus::kCancelled);

  gate.release();
  ASSERT_TRUE(blocker.wait().ok()) << blocker.wait().error;
}

TEST(ServiceChurn, BudgetFallbackThroughServiceMatchesFromScratch) {
  const Scenario s = service_scenario(101);
  const ChurnBatch batch = service_batch(s, 2024);

  ExecConfig config;
  config.workers = 1;
  config.recolor_budget = 1;  // force the fallback path
  SolveService service(config);
  const SolveTicket base = service.submit(SolveRequest::from_scenario(s));
  ASSERT_TRUE(base.wait().ok());

  const SolveOutcome out = service.update(base, batch).wait();
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_TRUE(out.churn_update);
  EXPECT_FALSE(out.repaired);
  EXPECT_EQ(out.repair_region_edges, 0);
  EXPECT_TRUE(out.valid);

  const ListEdgeColoringInstance instance = build_instance(s);
  const SolveResult direct = Solver(Policy::practical()).solve(instance);
  const RecolorPlan plan = plan_recolor(instance, direct.colors, batch.ops);
  const SolveResult scratch = Solver(Policy::practical(), config).solve(plan.mutated);
  EXPECT_EQ(out.colors_hash, hash_coloring(scratch.colors));
  expect_update_shape(out, plan, config);

  const auto metrics = service.metrics_snapshot();
  EXPECT_GE(metrics.updates_fallback, 1u);
}

}  // namespace
}  // namespace qplec
