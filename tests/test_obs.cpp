// The observability tier (ctest label `obs`): the telemetry spine must
// measure without perturbing.
//
//   * Instrument math is exact where it can be: counters fold their padded
//     lane cells to the same total for any lane layout, gauges report the
//     last write, histogram buckets/count/sum/min/max are exact, and the
//     percentile estimator is pinned to its rank-interpolation contract
//     (clamped to [min, max], exact at the extremes).
//   * The trace ring drops the OLDEST events on overflow and accounts every
//     drop — a long solve keeps its most recent window.
//   * The deterministic solver counters (solves, rounds, cache telemetry)
//     fold to identical per-solve deltas across shard counts {1, 2, 7} —
//     the registry-level echo of the knob-cube fingerprint pin.
//   * Metrics on/off and tracing on/off are invisible to the solver:
//     colors, rounds, raw rounds and the ledger report are bit-identical —
//     the contract that lets ExecConfig::metrics default to on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/scenarios.hpp"
#include "src/service/solve_service.hpp"

namespace qplec {
namespace {

using obs::HistogramSnapshot;
using obs::MetricsRegistry;

// Restores the global registry's enabled flag (tests flip it; the suite
// must not leak a disabled registry into later tests).
struct EnabledGuard {
  ~EnabledGuard() { MetricsRegistry::global().set_enabled(true); }
};

// ------------------------------------------------------------ instruments ---

TEST(ObsCounter, LaneCellsFoldToOneTotal) {
  // A local registry: instrument math without global-state interference.
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("t_lanes_total");
  for (int lane = 0; lane < 40; ++lane) c.inc(lane, static_cast<std::uint64_t>(lane));
  c.inc();      // serial call site = lane 0
  c.inc(3, 7);  // revisit a cell
  EXPECT_EQ(c.value(), 40u * 39u / 2u + 1u + 7u);
  EXPECT_EQ(reg.counter_value("t_lanes_total"), c.value());
  EXPECT_EQ(reg.counter_value("no_such_series"), 0u);
}

TEST(ObsCounter, DisabledRegistryDropsWrites) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("t_gated_total");
  obs::Gauge& g = reg.gauge("t_gated_level");
  c.inc(5);
  g.set(11);
  reg.set_enabled(false);
  c.inc(100);
  g.set(99);
  g.add(99);
  EXPECT_EQ(c.value(), 5u);  // reads still see what was recorded while on
  EXPECT_EQ(g.value(), 11);
  reg.set_enabled(true);
  c.inc(1);
  EXPECT_EQ(c.value(), 6u);
}

TEST(ObsHistogram, BucketAssignmentAndMomentsAreExact) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("t_ms", {1.0, 10.0, 100.0});
  // Bucket bounds are inclusive upper bounds; 1000 lands in the overflow.
  for (const double v : {0.5, 1.0, 2.0, 10.0, 50.0, 1000.0}) h.observe(v);
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.counts.size(), 4u);  // finite buckets + overflow
  EXPECT_EQ(s.counts[0], 2u);      // 0.5, 1.0
  EXPECT_EQ(s.counts[1], 2u);      // 2.0, 10.0
  EXPECT_EQ(s.counts[2], 1u);      // 50.0
  EXPECT_EQ(s.counts[3], 1u);      // 1000.0
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 2.0 + 10.0 + 50.0 + 1000.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(ObsHistogram, QuantilesFollowTheRankInterpolationContract) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("t_q_ms", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile(0.0), s.min);
  EXPECT_EQ(s.quantile(1.0), s.max);
  // Each decile bucket holds 10 uniform observations, so the estimate must
  // land inside (or on) the bucket containing the rank.
  EXPECT_GE(s.p50(), 40.0);
  EXPECT_LE(s.p50(), 60.0);
  EXPECT_GE(s.p95(), 90.0);
  EXPECT_LE(s.p95(), 100.0);
  EXPECT_GE(s.p99(), 90.0);
  EXPECT_LE(s.p99(), 100.0);
  // Estimates are clamped to the observed range and never cross.
  EXPECT_LE(s.p50(), s.p95());
  EXPECT_LE(s.p95(), s.p99());

  obs::Histogram& empty = reg.histogram("t_empty_ms", {1.0});
  EXPECT_EQ(empty.snapshot().quantile(0.5), 0.0);
}

TEST(ObsHistogram, OverflowBucketInterpolatesTowardTheObservedMax) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("t_over_ms", {1.0});
  h.observe(100.0);
  h.observe(200.0);
  h.observe(300.0);  // all in the overflow bucket
  const HistogramSnapshot s = h.snapshot();
  EXPECT_GE(s.quantile(0.5), 100.0);
  EXPECT_LE(s.quantile(0.5), 300.0);
  EXPECT_EQ(s.quantile(1.0), 300.0);
}

TEST(ObsRegistry, PrometheusTextIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("t_export_total").inc(3);
  reg.counter("t_labeled_total{status=\"ok\"}").inc(2);
  reg.counter("t_labeled_total{status=\"bad\"}").inc(1);
  reg.gauge("t_export_level").set(-4);
  reg.histogram("t_export_ms", {1.0, 2.0}).observe(1.5);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE t_export_total counter"), std::string::npos);
  EXPECT_NE(text.find("t_export_total 3"), std::string::npos);
  EXPECT_NE(text.find("t_labeled_total{status=\"ok\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_export_level -4"), std::string::npos);
  // Cumulative buckets: le="2" includes the le="1" count; +Inf == _count.
  EXPECT_NE(text.find("t_export_ms_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("t_export_ms_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_export_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_export_ms_count 1"), std::string::npos);
  // One TYPE line per base name, even with two labeled samples.
  const auto first = text.find("# TYPE t_labeled_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE t_labeled_total", first + 1), std::string::npos);
}

// -------------------------------------------------------------- the rings ---

TEST(ObsTrace, RingOverflowDropsTheOldestAndAccountsEveryDrop) {
  trace::start(16);  // the documented capacity floor
  // Synthetic timestamps: event i is the span [i, i+1).
  for (int i = 0; i < 50; ++i) trace::complete("ev", "test", i, 1);
  trace::stop();
  const std::vector<trace::TraceEvent> events = trace::snapshot_events();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(trace::dropped(), 34u);
  // The survivors are exactly the NEWEST window, still in timestamp order.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].ts_us, 34 + i);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].dur_us, 1);
  }
}

TEST(ObsTrace, SessionsAreIndependentAndInstantsAreMarked) {
  trace::start(64);
  trace::instant("first-session", "test");
  trace::stop();
  ASSERT_EQ(trace::snapshot_events().size(), 1u);

  trace::start(64);  // a new session drops the previous buffers
  EXPECT_EQ(trace::snapshot_events().size(), 0u);
  trace::complete("span", "test", 0, 5);
  trace::instant("mark", "test");
  trace::stop();
  EXPECT_FALSE(trace::enabled());
  trace::instant("after-stop", "test");  // must be a no-op
  const auto events = trace::snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].dur_us, 5);
  EXPECT_LT(events[1].dur_us, 0);  // instant marker
}

// A traced cache hit explains its time: the request key it paid for shows
// up as a `fingerprint` span of the service category.
TEST(ObsTrace, CachedRepeatEmitsTheFingerprintSpan) {
  const Scenario scenario{GraphFamily::kComplete, 12, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 0};
  SolveService service(ExecConfig{.workers = 1});
  ASSERT_EQ(service.solve(SolveRequest::from_scenario(scenario)).status, SolveStatus::kOk);

  trace::start(256);
  const SolveOutcome cached = service.solve(SolveRequest::from_scenario(scenario));
  trace::stop();
  ASSERT_TRUE(cached.cache_hit);
  int spans = 0;
  for (const trace::TraceEvent& ev : trace::snapshot_events()) {
    if (std::string(ev.name) == "fingerprint") {
      EXPECT_EQ(std::string(ev.cat), "service");
      EXPECT_GE(ev.dur_us, 0);
      ++spans;
    }
  }
  EXPECT_EQ(spans, 1);
}

// A prebuilt instance is hashed once per shared holder: a store plus three
// hits, each submitting a copy of one request, key four times (four
// "fingerprint" spans) but hash the instance once (one "instance-key").
TEST(ObsTrace, InstanceKeyIsHashedOncePerSharedInstance) {
  const Scenario scenario{GraphFamily::kRegular, 40, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 6};
  const SolveRequest request = SolveRequest::from_instance(build_instance(scenario));
  SolveService service(ExecConfig{.workers = 1});

  trace::start(1024);
  const SolveOutcome stored = service.solve(request);
  std::vector<SolveOutcome> hits;
  for (int i = 0; i < 3; ++i) hits.push_back(service.solve(request));
  trace::stop();
  ASSERT_TRUE(stored.ok()) << stored.error;
  EXPECT_FALSE(stored.cache_hit);
  for (const SolveOutcome& hit : hits) {
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.fingerprint, stored.fingerprint);
    EXPECT_EQ(hit.colors_hash, stored.colors_hash);
  }
  int key_spans = 0;
  int fingerprint_spans = 0;
  for (const trace::TraceEvent& ev : trace::snapshot_events()) {
    const std::string name(ev.name);
    if (name == "instance-key") {
      EXPECT_EQ(std::string(ev.cat), "service");
      ++key_spans;
    }
    if (name == "fingerprint") ++fingerprint_spans;
  }
  EXPECT_EQ(key_spans, 1);
  EXPECT_EQ(fingerprint_spans, 4);
}

// A DIMACS build explains itself: one `build` span holds, in order, `read`
// (file to buffer), `parse` (buffer to Graph), `scramble` (only when the
// request scrambles its ids) and `lists`, each once and none overlapping.
TEST(ObsTrace, DimacsBuildSplitsIntoReadParseScrambleLists) {
  const std::string path = testing::TempDir() + "/qplec_obs_build.dimacs";
  {
    std::ofstream file(path, std::ios::trunc);
    write_edge_list(make_random_regular(40, 6, 3), file);
  }
  SolveService service(ExecConfig{.workers = 1});
  for (const bool scramble : {false, true}) {
    SolveRequest request = SolveRequest::from_dimacs(path).no_cache();
    if (scramble) request.scramble_ids(7);
    trace::start(4096);
    const SolveOutcome out = service.solve(std::move(request));
    trace::stop();
    ASSERT_TRUE(out.ok()) << out.error;
    std::map<std::string, std::vector<trace::TraceEvent>> spans;
    for (const trace::TraceEvent& ev : trace::snapshot_events()) {
      if (std::string(ev.cat) == "service") spans[ev.name].push_back(ev);
    }
    ASSERT_EQ(spans["build"].size(), 1u);
    EXPECT_EQ(spans["scramble"].size(), scramble ? 1u : 0u);
    const trace::TraceEvent build = spans["build"][0];
    std::int64_t end_of_previous = build.ts_us;
    for (const char* name : {"read", "parse", "scramble", "lists"}) {
      if (!scramble && std::string(name) == "scramble") continue;
      ASSERT_EQ(spans[name].size(), 1u) << name;
      const trace::TraceEvent& child = spans[name][0];
      EXPECT_GE(child.ts_us, end_of_previous) << name;
      end_of_previous = child.ts_us + child.dur_us;
    }
    EXPECT_LE(end_of_previous, build.ts_us + build.dur_us);
  }
  std::remove(path.c_str());
}

// One line graph per solve: Solver::run builds the full graph's adjacency
// once (Linial reads it, then the engine's cache adopts it), and every other
// "line-graph" span is the one view a base case builds of its own subset.
// So outside the base cases there is exactly one build, the first span.
TEST(ObsTrace, OneFullLineGraphBuildPerSolve) {
  for (const Graph& g : {make_random_regular(64, 12, 5), make_cycle(40)}) {
    const ListEdgeColoringInstance instance = make_two_delta_instance(g);
    trace::start(4096);
    const SolveResult res = Solver().solve(instance);
    trace::stop();
    ASSERT_EQ(res.stats.virtual_instances, 0);  // child engines build their own
    std::vector<trace::TraceEvent> basecases;
    std::vector<trace::TraceEvent> builds;
    for (const trace::TraceEvent& ev : trace::snapshot_events()) {
      const std::string name(ev.name);
      if (name == "basecase") basecases.push_back(ev);
      if (name == "line-graph") {
        EXPECT_EQ(std::string(ev.cat), "engine");
        builds.push_back(ev);
      }
    }
    EXPECT_EQ(static_cast<std::int64_t>(builds.size()), 1 + res.stats.basecase_calls);
    int outside = 0;
    for (const trace::TraceEvent& b : builds) {
      bool inside = false;
      for (const trace::TraceEvent& c : basecases) {
        inside = inside || (c.ts_us <= b.ts_us && b.ts_us + b.dur_us <= c.ts_us + c.dur_us);
      }
      outside += inside ? 0 : 1;
    }
    EXPECT_EQ(outside, 1) << g.num_edges() << " edges";
  }
}

// Every engine builds its ListStore once, under one "engine-lists" span: the
// top-level engine between the initial coloring and the list coloring, and
// each child engine of a Lemma 4.3 phase or E(2) instance inside it.
TEST(ObsTrace, OneEngineListsSpanPerEngine) {
  {
    const ListEdgeColoringInstance instance =
        make_two_delta_instance(make_random_regular(64, 12, 5));
    trace::start(4096);
    const SolveResult res = Solver().solve(instance);
    trace::stop();
    ASSERT_EQ(res.stats.virtual_instances + res.stats.e2_instances, 0);
    std::int64_t initial_end = -1;
    std::int64_t coloring_start = -1;
    std::vector<trace::TraceEvent> lists;
    for (const trace::TraceEvent& ev : trace::snapshot_events()) {
      const std::string name(ev.name);
      if (name == "initial-coloring") initial_end = ev.ts_us + ev.dur_us;
      if (name == "list-edge-coloring") coloring_start = ev.ts_us;
      if (name == "engine-lists") lists.push_back(ev);
    }
    ASSERT_EQ(lists.size(), 1u);
    EXPECT_EQ(std::string(lists[0].cat), "engine");
    EXPECT_LE(initial_end, lists[0].ts_us);
    EXPECT_LE(lists[0].ts_us + lists[0].dur_us, coloring_start);
  }
  {
    // Slack for a 128-way color-space reduction: uniform lists sit at
    // Lemma 4.4 level 4, and a cycle's degree-2 edges form E(2), solved by
    // a child engine.
    Policy policy = Policy::practical();
    policy.base_degree_threshold = 1;
    const double slack = Policy::space_cost(128) + 1;
    const ListEdgeColoringInstance instance =
        make_slack_instance(make_cycle(40).with_scrambled_ids(1600, 6), slack, 1 << 14, 17);
    trace::start(1 << 16);
    const SolveResult res = Solver(policy).solve_relaxed(instance, slack);
    trace::stop();
    ASSERT_EQ(trace::dropped(), 0u);
    ASSERT_GT(res.stats.virtual_instances + res.stats.e2_instances, 0);
    std::int64_t spans = 0;
    for (const trace::TraceEvent& ev : trace::snapshot_events()) {
      spans += std::string(ev.name) == "engine-lists" ? 1 : 0;
    }
    EXPECT_EQ(spans, 1 + res.stats.virtual_instances + res.stats.e2_instances);
  }
}

// ------------------------------------------- determinism of the registry ---

// The deterministic solver series — solve count, LOCAL rounds, neighbor-
// cache telemetry — must fold to identical per-solve deltas whatever the
// shard count, because every increment is algorithm-determined and the
// counter fold is lane-order addition.  (Latency histograms are wall-clock
// and deliberately not pinned.)
TEST(ObsDeterminism, SolverCounterDeltasAreShardInvariant) {
  const char* const kSeries[] = {
      "qplec_solves_total",
      "qplec_solve_rounds_total",
      "qplec_cache_deltas_total",
      "qplec_cache_flushes_total",
      "qplec_cache_colors_removed_total",
  };
  const Scenario scenario{GraphFamily::kRegular, 40, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 6};
  const ListEdgeColoringInstance instance = build_instance(scenario);
  MetricsRegistry& reg = MetricsRegistry::global();

  std::vector<std::uint64_t> reference;
  for (const int shards : {1, 2, 7}) {
    std::vector<std::uint64_t> before;
    for (const char* name : kSeries) before.push_back(reg.counter_value(name));
    ExecConfig config;
    config.shards = shards;
    config.min_sharded_edges = 0;
    const SolveResult res = Solver(Policy::practical(), config).solve(instance);
    ASSERT_GT(res.rounds, 0);
    std::vector<std::uint64_t> delta;
    for (std::size_t i = 0; i < std::size(kSeries); ++i) {
      delta.push_back(reg.counter_value(kSeries[i]) - before[i]);
    }
    EXPECT_GT(delta[0], 0u) << "qplec_solves_total never moved";
    if (reference.empty()) {
      reference = delta;
      continue;
    }
    for (std::size_t i = 0; i < delta.size(); ++i) {
      EXPECT_EQ(delta[i], reference[i])
          << kSeries[i] << " drifted at shards=" << shards;
    }
  }
}

// --------------------------------------- the observers-only differential ---

// ExecConfig::metrics and an open trace session must be invisible to the
// solve: same colors, rounds, raw rounds and ledger report as the reference.
TEST(ObsDeterminism, MetricsAndTracingNeverPerturbTheSolve) {
  EnabledGuard restore_enabled;
  const Scenario scenarios[] = {
      {GraphFamily::kComplete, 12, ListFlavor::kTwoDelta, PolicyKind::kPractical, 42, 0},
      {GraphFamily::kRegular, 40, ListFlavor::kRandomDegPlusOne, PolicyKind::kPractical,
       42, 6},
  };
  for (const Scenario& scenario : scenarios) {
    const ListEdgeColoringInstance instance = build_instance(scenario);

    MetricsRegistry::global().set_enabled(true);
    ExecConfig config;
    const SolveResult reference = Solver(Policy::practical(), config).solve(instance);

    // Metrics off (the ExecConfig::metrics = false registry state).
    MetricsRegistry::global().set_enabled(false);
    const SolveResult unmetered = Solver(Policy::practical(), config).solve(instance);
    MetricsRegistry::global().set_enabled(true);

    // Tracing on (a live span session around the whole solve).
    trace::start(4096);
    const SolveResult traced = Solver(Policy::practical(), config).solve(instance);
    trace::stop();
    EXPECT_GT(trace::snapshot_events().size(), 0u)
        << scenario.name() << ": the traced solve recorded no spans";

    for (const SolveResult* res : {&unmetered, &traced}) {
      EXPECT_EQ(res->colors, reference.colors) << scenario.name();
      EXPECT_EQ(res->rounds, reference.rounds) << scenario.name();
      EXPECT_EQ(res->raw_rounds, reference.raw_rounds) << scenario.name();
      EXPECT_EQ(res->round_report, reference.round_report) << scenario.name();
    }
  }
}

}  // namespace
}  // namespace qplec
