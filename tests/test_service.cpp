// SolveService contract tests (ctest label `service`).
//
// The pins, in order of importance:
//   1. Differential: every Ok outcome is bit-identical — colors hash, round
//      counts, ledger report — to a direct Solver::solve, for any worker
//      count x shard count {1,2,7}.
//   2. Cancellation semantics: cancel-before-start resolves kCancelled with
//      no work done; cancel-after-finish is a no-op (outcome stays Ok and
//      bit-identical); mid-solve cancel stops at a round boundary.
//   3. The outcome surface never throws: malformed files and infeasible
//      instances come back as statuses, deadlines as kDeadlineExceeded.
//   4. Scheduling: higher priority runs first on a single worker; the
//      destructor drains accepted work.
#include "src/service/solve_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/coloring/initial.hpp"
#include "src/coloring/validate.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"
#include "src/runtime/batch_solver.hpp"
#include "support/smoke_manifest.hpp"

namespace qplec {
namespace {

/// Direct-Solver reference for a scenario (the path the service must match).
SolveResult direct_solve(const Scenario& scenario, const ExecConfig& exec = {}) {
  const ListEdgeColoringInstance instance = build_instance(scenario);
  return Solver(make_policy(scenario.policy), exec).solve(instance);
}

/// A gate a blocker job parks on: its on_round callback blocks until
/// release() — giving tests a deterministic "worker is busy" window.
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

TEST(SolveServiceDifferential, BitIdenticalToDirectSolverAcrossConfigs) {
  const auto manifest = test_support::smoke_scenarios();

  // References: one direct Solver::solve per scenario (serial, cached).
  std::vector<SolveResult> reference;
  for (const Scenario& s : manifest) reference.push_back(direct_solve(s));

  for (const int workers : {1, 3}) {
    for (const int shards : {1, 2, 7}) {
      ExecConfig config;
      config.workers = workers;
      config.shards = shards;
      if (shards > 1) config.min_sharded_edges = 0;  // shard even tiny graphs
      SolveService service(config);

      std::vector<SolveTicket> tickets;
      for (const Scenario& s : manifest) {
        tickets.push_back(service.submit(SolveRequest::from_scenario(s)));
      }
      for (std::size_t i = 0; i < manifest.size(); ++i) {
        const SolveOutcome& out = tickets[i].wait();
        const std::string tag = manifest[i].name() + " workers=" + std::to_string(workers) +
                                " shards=" + std::to_string(shards);
        ASSERT_EQ(out.status, SolveStatus::kOk) << tag << ": " << out.error;
        EXPECT_TRUE(out.valid) << tag;
        EXPECT_EQ(out.colors_hash, hash_coloring(reference[i].colors)) << tag;
        EXPECT_EQ(out.result.colors, reference[i].colors) << tag;
        EXPECT_EQ(out.result.rounds, reference[i].rounds) << tag;
        EXPECT_EQ(out.result.raw_rounds, reference[i].raw_rounds) << tag;
        EXPECT_EQ(out.result.round_report, reference[i].round_report) << tag;
        EXPECT_EQ(out.shards, shards) << tag;
        EXPECT_GE(out.queue_ms, 0.0) << tag;
      }
    }
  }
}

TEST(SolveServiceCancel, BeforeStartResolvesCancelledWithNoWork) {
  ExecConfig config;
  config.workers = 1;  // the blocker occupies the only worker
  SolveService service(config);

  BlockerGate gate;
  const Scenario blocker_scenario{GraphFamily::kRegular, 60, ListFlavor::kTwoDelta,
                                  PolicyKind::kPractical, 42, 6};
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(blocker_scenario).on_round(gate.callback()));
  gate.wait_entered();  // the worker is now provably busy

  const Scenario victim_scenario{GraphFamily::kComplete, 12, ListFlavor::kTwoDelta,
                                 PolicyKind::kPractical, 42, 0};
  const SolveTicket victim = service.submit(SolveRequest::from_scenario(victim_scenario));
  EXPECT_EQ(victim.try_get(), nullptr);
  victim.cancel();
  // A cancelled queued job resolves immediately — wait() must not block
  // behind the still-running blocker.
  EXPECT_TRUE(victim.done());
  const SolveOutcome& out = victim.wait();
  gate.release();
  EXPECT_EQ(out.status, SolveStatus::kCancelled);
  // No work happened: the instance was never even built.
  EXPECT_EQ(out.num_edges, 0);
  EXPECT_EQ(out.build_ms, 0.0);
  EXPECT_EQ(out.solve_ms, 0.0);
  EXPECT_EQ(blocker.wait().status, SolveStatus::kOk);
}

TEST(SolveServiceCancel, AfterFinishIsANoOp) {
  const Scenario scenario{GraphFamily::kComplete, 12, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 0};
  SolveService service(ExecConfig{.workers = 2});
  const SolveTicket ticket = service.submit(SolveRequest::from_scenario(scenario));
  const SolveOutcome& done = ticket.wait();
  ASSERT_EQ(done.status, SolveStatus::kOk);

  ticket.cancel();  // must not perturb the completed outcome
  const SolveOutcome& after = ticket.wait();
  EXPECT_EQ(after.status, SolveStatus::kOk);
  const SolveResult reference = direct_solve(scenario);
  EXPECT_EQ(after.colors_hash, hash_coloring(reference.colors));
  EXPECT_EQ(after.result.rounds, reference.rounds);
  EXPECT_EQ(after.result.round_report, reference.round_report);
}

TEST(SolveServiceCancel, MidSolveStopsAtRoundBoundary) {
  // The callback parks the solve mid-flight (provably between rounds), the
  // test cancels, the callback resumes — the very next checkpoint must
  // observe the flag.  Deterministic: no sleeps, no completion race.
  ExecConfig config;
  config.workers = 1;
  SolveService service(config);

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool cancelled = false;
  const Scenario scenario{GraphFamily::kRegular, 120, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 8};
  const SolveTicket ticket = service.submit(
      SolveRequest::from_scenario(scenario).on_round([&](const RoundProgress& p) {
        if (p.rounds < 3) return;  // let the solve get genuinely under way
        std::unique_lock<std::mutex> lock(mu);
        parked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return cancelled; });
      }));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  ticket.cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    cancelled = true;
  }
  cv.notify_all();

  const SolveOutcome& out = ticket.wait();
  EXPECT_EQ(out.status, SolveStatus::kCancelled);
  EXPECT_GT(out.num_edges, 0);  // it was genuinely in flight
  EXPECT_FALSE(out.valid);
  EXPECT_TRUE(out.result.colors.empty());  // no partial output escapes
}

TEST(SolveServiceDeadline, ZeroBudgetExpiresBeforeAnyWork) {
  SolveService service(ExecConfig{.workers = 1});
  const Scenario scenario{GraphFamily::kRegular, 120, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 8};
  const SolveOutcome out =
      service.solve(SolveRequest::from_scenario(scenario).deadline_ms(0.0));
  EXPECT_EQ(out.status, SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(out.num_edges, 0);  // never built
}

TEST(SolveServiceDeadline, MidSolveDeadlineStopsAtRoundBoundary) {
  SolveService service(ExecConfig{.workers = 1});
  const Scenario scenario{GraphFamily::kRegular, 120, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 8};
  // The budget is generous, so a loaded host cannot spend it before the
  // solve starts; the hook then overshoots it by sleeping until well past
  // the deadline, measured from before the submit on the service's clock.
  constexpr auto kBudget = std::chrono::milliseconds(1000);
  constexpr auto kOvershoot = std::chrono::milliseconds(250);
  std::atomic<bool> slept{false};
  std::chrono::steady_clock::time_point submitted;
  SolveRequest request = SolveRequest::from_scenario(scenario)
                             .deadline_ms(static_cast<double>(kBudget.count()))
                             .on_round([&](const RoundProgress& p) {
                               // Overshoot the budget once, mid-solve: the
                               // next checkpoint must observe the expired
                               // deadline.
                               if (p.rounds >= 3 && !slept.exchange(true)) {
                                 std::this_thread::sleep_until(submitted + kBudget + kOvershoot);
                               }
                             });
  submitted = std::chrono::steady_clock::now();
  const SolveOutcome out = service.solve(std::move(request));
  EXPECT_EQ(out.status, SolveStatus::kDeadlineExceeded);
  EXPECT_GT(out.num_edges, 0);  // it was in flight when the budget ran out
}

TEST(SolveServiceDeadline, QueuedJobExpiresEagerlyWhileWorkerIsBusy) {
  // The regression this pins: a queued ticket whose deadline passes used to
  // be noticed only when a worker finally popped it — wait() blocked behind
  // every job ahead in the queue.  The deadline sweeper must resolve it
  // kDeadlineExceeded while the only worker is still provably busy.
  ExecConfig config;
  config.workers = 1;  // the blocker occupies the only worker
  SolveService service(config);

  BlockerGate gate;
  const Scenario blocker_scenario{GraphFamily::kRegular, 60, ListFlavor::kTwoDelta,
                                  PolicyKind::kPractical, 42, 6};
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(blocker_scenario).on_round(gate.callback()));
  gate.wait_entered();  // the worker is now provably busy

  const Scenario victim_scenario{GraphFamily::kComplete, 12, ListFlavor::kTwoDelta,
                                 PolicyKind::kPractical, 42, 0};
  const SolveTicket victim = service.submit(
      SolveRequest::from_scenario(victim_scenario).deadline_ms(20.0));
  // wait() must return via the sweeper — the blocker is still parked, so a
  // pop-time-only check would deadlock this line until gate.release().
  const SolveOutcome& out = victim.wait();
  EXPECT_EQ(out.status, SolveStatus::kDeadlineExceeded);
  EXPECT_NE(out.error.find("while queued"), std::string::npos) << out.error;
  EXPECT_GE(out.queue_ms, 20.0);  // it sat in the queue at least the budget
  EXPECT_EQ(out.num_edges, 0);    // no work was ever done for it
  EXPECT_EQ(out.solve_ms, 0.0);

  gate.release();
  EXPECT_EQ(blocker.wait().status, SolveStatus::kOk);
}

TEST(SolveServicePriority, HigherPriorityRunsFirstOnOneWorker) {
  ExecConfig config;
  config.workers = 1;
  SolveService service(config);

  BlockerGate gate;
  const Scenario small{GraphFamily::kComplete, 8, ListFlavor::kTwoDelta,
                       PolicyKind::kPractical, 42, 0};
  const SolveTicket blocker =
      service.submit(SolveRequest::from_scenario(small).on_round(gate.callback()));
  gate.wait_entered();

  // Queued while the worker is busy: "low" first, then "high" — the queue
  // must reorder them by priority.
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](std::string name) {
    return [&order_mu, &order, name](const RoundProgress&) {
      std::lock_guard<std::mutex> lock(order_mu);
      if (order.empty() || order.back() != name) order.push_back(name);
    };
  };
  const SolveTicket low =
      service.submit(SolveRequest::from_scenario(small).priority(0).on_round(record("low")));
  const SolveTicket high =
      service.submit(SolveRequest::from_scenario(small).priority(5).on_round(record("high")));
  gate.release();

  EXPECT_EQ(low.wait().status, SolveStatus::kOk);
  EXPECT_EQ(high.wait().status, SolveStatus::kOk);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "low");
  (void)blocker.wait();
}

TEST(SolveServiceSource, DimacsFileEndToEnd) {
  const std::string path = testing::TempDir() + "/qplec_service_smoke.dimacs";
  {
    std::ofstream out(path);
    out << "c tiny test graph\n"
        << "p edge 5 6\n"
        << "e 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 1 3\n";
  }

  // Local reference: identical read/scramble/build pipeline, direct solve.
  std::ifstream in(path);
  Graph g = read_edge_list(in);
  g = g.with_scrambled_ids(scrambled_id_space(static_cast<std::uint64_t>(g.num_nodes())), 7);
  const ListEdgeColoringInstance instance = make_two_delta_instance(g);
  const SolveResult reference = Solver().solve(instance);

  SolveService service;
  const SolveOutcome out =
      service.solve(SolveRequest::from_dimacs(path).scramble_ids(7));
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.num_edges, 6);
  EXPECT_EQ(out.colors_hash, hash_coloring(reference.colors));
  EXPECT_EQ(out.result.rounds, reference.rounds);
  std::remove(path.c_str());
}

// Past 65,535 nodes an n^2 id space no longer fits the initial palette; the
// scramble clamps to its limit, so a 70,000-node path still solves.
TEST(SolveServiceSource, ScrambledIdsPastSixteenBitsOfNodesSolve) {
  const std::string path = testing::TempDir() + "/qplec_service_long_path.dimacs";
  const int n = 70000;
  {
    std::ofstream out(path);
    out << "p edge " << n << " " << n - 1 << "\n";
    for (int v = 1; v < n; ++v) out << "e " << v << " " << v + 1 << "\n";
  }
  SolveService service;
  const SolveOutcome out = service.solve(SolveRequest::from_dimacs(path).scramble_ids(11));
  EXPECT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.num_edges, n - 1);
  std::remove(path.c_str());
}

TEST(SolveServiceSource, MissingFileIsAnOutcomeNotAThrow) {
  SolveService service;
  const SolveOutcome out =
      service.solve(SolveRequest::from_dimacs("/nonexistent/qplec/graph.txt"));
  EXPECT_EQ(out.status, SolveStatus::kInvalidInstance);
  EXPECT_NE(out.error.find("cannot open"), std::string::npos) << out.error;
}

TEST(SolveServiceSource, HostileHeaderNodeCountIsInvalidInstance) {
  // A 2-billion-node header must be rejected by the parser before it sizes
  // anything by n: an invalid_instance outcome, not an OOM or a crash.
  const std::string path = testing::TempDir() + "/qplec_service_hostile.dimacs";
  {
    std::ofstream out(path);
    out << "p edge 2000000000 1\ne 1 2\n";
  }
  SolveService service;
  const SolveOutcome out = service.solve(SolveRequest::from_dimacs(path));
  EXPECT_EQ(out.status, SolveStatus::kInvalidInstance);
  EXPECT_NE(out.error.find("line 1"), std::string::npos) << out.error;
  EXPECT_NE(out.error.find("exceeds the limit"), std::string::npos) << out.error;
  std::remove(path.c_str());
}

TEST(SolveServiceSource, InfeasibleInstanceIsAnOutcomeNotAThrow) {
  // A triangle where every edge is only allowed color 0: |L_e| < deg(e)+1,
  // rejected by Solver's precondition — surfaced as kInvalidInstance.
  ListEdgeColoringInstance bad;
  bad.graph = make_complete(3);
  bad.lists.assign(3, ColorList({0}));
  bad.palette_size = 1;
  SolveService service;
  const SolveOutcome out = service.solve(SolveRequest::from_instance(std::move(bad)));
  EXPECT_EQ(out.status, SolveStatus::kInvalidInstance);
  EXPECT_FALSE(out.error.empty());
}

TEST(SolveServiceSource, RelaxedSolveMatchesDirect) {
  const Graph g = make_random_regular(48, 6, 11).with_scrambled_ids(4096, 3);
  const double slack = 60.0;
  const ListEdgeColoringInstance instance =
      make_slack_instance(g, slack, /*palette_size=*/800, /*seed=*/5);
  const SolveResult reference = Solver().solve_relaxed(instance, slack);

  SolveService service;
  const SolveOutcome out =
      service.solve(SolveRequest::from_instance(instance).relaxed(slack));
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_EQ(out.colors_hash, hash_coloring(reference.colors));
  EXPECT_EQ(out.result.rounds, reference.rounds);
}

// backend = serial wins over shards everywhere: the solve and the churn
// repair run serial, report one shard, and the service starts no shard pool
// (its `qplec_pool_shard_workers` gauge stays unset).
TEST(SolveService, SerialBackendIgnoresShardsForSolveAndUpdate) {
  const Scenario scenario{GraphFamily::kRegular, 64, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 7, 6};
  const ChurnBatch batch = make_random_churn(build_instance(scenario).graph, 4, 4, 1234);

  struct Run {
    SolveOutcome solve;
    SolveOutcome update;
  };
  obs::Gauge& shard_workers = obs::MetricsRegistry::global().gauge("qplec_pool_shard_workers");
  const auto run = [&](const ExecConfig& config) {
    SolveService service(config);
    Run r;
    const SolveTicket base = service.submit(SolveRequest::from_scenario(scenario));
    r.solve = base.wait();
    r.update = service.update(base, batch).wait();
    return r;
  };

  ExecConfig config;
  config.workers = 1;
  const Run reference = run(config);
  config.shards = 4;
  config.min_sharded_edges = 0;
  config.backend = BackendKind::kSerial;
  obs::MetricsRegistry::global().set_enabled(true);
  shard_workers.set(0);
  const Run serial = run(config);
  EXPECT_EQ(shard_workers.value(), 0) << "a serial service started a shard pool";
  // The probe itself: the same config on the default backend does start one.
  config.backend = BackendKind::kAuto;
  const Run sharded = run(config);
  EXPECT_GT(shard_workers.value(), 0);

  for (const Run* r : {&reference, &serial, &sharded}) {
    ASSERT_EQ(r->solve.status, SolveStatus::kOk) << r->solve.error;
    ASSERT_EQ(r->update.status, SolveStatus::kOk) << r->update.error;
    EXPECT_TRUE(r->update.repaired);
  }
  EXPECT_EQ(serial.solve.shards, 1);
  EXPECT_EQ(serial.update.shards, 1);
  EXPECT_EQ(serial.solve.colors_hash, reference.solve.colors_hash);
  EXPECT_EQ(serial.update.colors_hash, reference.update.colors_hash);
  EXPECT_EQ(sharded.solve.shards, 4);
  EXPECT_EQ(sharded.solve.colors_hash, reference.solve.colors_hash);
  EXPECT_EQ(sharded.update.colors_hash, reference.update.colors_hash);
}

TEST(SolveService, EmptyDefaultRequestSolvesToEmptyColoring) {
  SolveService service;
  const SolveOutcome out = service.solve(SolveRequest());
  EXPECT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_EQ(out.num_edges, 0);
  EXPECT_TRUE(out.result.colors.empty());
}

TEST(SolveService, DiscardColorsKeepsHashAndValidity) {
  const Scenario scenario{GraphFamily::kComplete, 12, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 0};
  SolveService service;
  const SolveOutcome out =
      service.solve(SolveRequest::from_scenario(scenario).discard_colors());
  ASSERT_EQ(out.status, SolveStatus::kOk);
  EXPECT_TRUE(out.result.colors.empty());
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.colors_hash, hash_coloring(direct_solve(scenario).colors));
}

TEST(SolveService, DestructorDrainsAcceptedJobs) {
  const auto manifest = test_support::smoke_scenarios();
  std::vector<SolveTicket> tickets;
  {
    ExecConfig config;
    config.workers = 1;
    SolveService service(config);
    for (const Scenario& s : manifest) {
      tickets.push_back(service.submit(SolveRequest::from_scenario(s)));
    }
  }  // destructor must drain, not drop
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].done()) << manifest[i].name();
    EXPECT_EQ(tickets[i].wait().status, SolveStatus::kOk) << manifest[i].name();
  }
}

TEST(SolveService, CountersTrackLifecycle) {
  SolveService service(ExecConfig{.workers = 2});
  EXPECT_EQ(service.submitted(), 0u);
  const Scenario scenario{GraphFamily::kCycle, 31, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 0};
  const SolveTicket t = service.submit(SolveRequest::from_scenario(scenario));
  (void)t.wait();
  EXPECT_EQ(service.submitted(), 1u);
  EXPECT_EQ(service.completed(), 1u);
}

// kNumSolveStatuses sizes the per-status outcome counters: a count larger
// than the enum registers a qplec_service_outcomes_total{status="unknown"}
// series, a smaller one drops the last status from the telemetry.
TEST(SolveService, StatusCountMatchesTheEnum) {
  std::set<std::string> names;
  for (int s = 0; s < kNumSolveStatuses; ++s) {
    const std::string name = status_name(static_cast<SolveStatus>(s));
    EXPECT_NE(name, "unknown") << "status " << s;
    names.insert(name);
  }
  EXPECT_EQ(static_cast<int>(names.size()), kNumSolveStatuses);
  EXPECT_EQ(static_cast<int>(SolveStatus::kQueueFull), kNumSolveStatuses - 1);
  EXPECT_STREQ(status_name(static_cast<SolveStatus>(kNumSolveStatuses)), "unknown");
}

}  // namespace
}  // namespace qplec
