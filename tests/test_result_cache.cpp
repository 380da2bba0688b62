// Result cache + admission control tests (ctest label `service`).
//
// The pins, in order of importance:
//   1. Differential: a cached hit is bit-identical to a fresh solve — colors,
//      hash, rounds, ledger — at shards {1, 2, 7}.
//   2. Lease semantics: N concurrent identical submits trigger exactly ONE
//      underlying solve; the N-1 waiters receive the leader's outcome.  A
//      cancelled leader never decides a waiter's outcome — waiters fail over
//      to a fresh solve.
//   3. Boundedness: the LRU evicts at its entry and byte bounds;
//      invalidation forces a re-solve; failed solves never populate.
//   4. Admission control: with max_queue_depth set, an over-capacity submit
//      resolves kQueueFull immediately with queue_ms stamped.
#include "src/service/result_cache.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"  // hash_coloring
#include "src/service/solve_service.hpp"
#include "support/smoke_manifest.hpp"

namespace qplec {
namespace {

/// Direct-Solver reference for a scenario (the path cached hits must match).
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

const Scenario kScenarioA{GraphFamily::kComplete, 12, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 0};
const Scenario kScenarioB{GraphFamily::kCycle, 31, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 0};
const Scenario kScenarioC{GraphFamily::kTree, 70, ListFlavor::kTwoDelta,
                          PolicyKind::kPractical, 42, 0};
const Scenario kBlockerScenario{GraphFamily::kRegular, 60, ListFlavor::kTwoDelta,
                                PolicyKind::kPractical, 42, 6};

SolveOutcome make_ok_outcome(int tag, std::size_t colors = 8) {
  SolveOutcome out;
  out.status = SolveStatus::kOk;
  out.result.colors.assign(colors, static_cast<Color>(tag));
  out.result.rounds = tag;
  out.colors_hash = static_cast<std::uint64_t>(tag);
  out.valid = true;
  return out;
}

// --------------------------------------------------- ResultCache unit tier ---

// A cycle on `nodes` nodes whose edge e carries the `size` colors
// {100e, 100e + 2, ...}: lists are disjoint, increasing across edges and
// leave odd gaps, so tests can bump one color (c -> c + 1) or move a color
// between neighboring lists and still hold strictly increasing lists.
ListEdgeColoringInstance make_key_instance(int nodes = 8, int size = 40) {
  ListEdgeColoringInstance instance;
  instance.graph = make_cycle(nodes);
  for (EdgeId e = 0; e < instance.graph.num_edges(); ++e) {
    std::vector<Color> colors;
    for (int k = 0; k < size; ++k) colors.push_back(100 * e + 2 * k);
    instance.lists.emplace_back(std::move(colors));
  }
  instance.palette_size = 100 * instance.graph.num_edges();
  return instance;
}

/// `instance` with list e's color at position k bumped by one.
ListEdgeColoringInstance with_color_bumped(ListEdgeColoringInstance instance, EdgeId e, int k) {
  std::vector<Color> colors = instance.lists[static_cast<std::size_t>(e)].colors();
  ++colors[static_cast<std::size_t>(k)];
  instance.lists[static_cast<std::size_t>(e)] = ColorList(std::move(colors));
  return instance;
}

/// `instance` with the same lists over a rebuilt graph: one endpoint of
/// edge `moved` re-pointed at `new_v`, or one LOCAL id (or the id bound)
/// changed.
ListEdgeColoringInstance with_graph(ListEdgeColoringInstance instance, EdgeId moved, NodeId new_v,
                                    NodeId id_node, std::uint64_t id_bound_extra) {
  const Graph& g = instance.graph;
  GraphBuilder builder(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints& ep = g.endpoints(e);
    builder.add_edge(ep.u, e == moved ? new_v : ep.v);
  }
  std::vector<std::uint64_t> ids(g.all_local_ids().begin(), g.all_local_ids().end());
  std::uint64_t bound = g.max_local_id() + id_bound_extra;
  if (id_node >= 0) {
    ids[static_cast<std::size_t>(id_node)] = bound + 1;
    bound += 1;
  }
  builder.set_local_ids(std::move(ids), bound);
  instance.graph = builder.build();
  return instance;
}

TEST(ResultCacheUnit, AnySingleElementChangesTheInstanceKey) {
  const ListEdgeColoringInstance base = make_key_instance();
  const int last_list = base.graph.num_edges() - 1;
  const int last_pos = base.lists[0].size() - 1;
  std::set<std::uint64_t> keys{fingerprint_instance(base)};
  int variants = 0;
  const auto expect_new_key = [&](const ListEdgeColoringInstance& variant, const char* what,
                                  int a, int b) {
    ++variants;
    EXPECT_TRUE(keys.insert(fingerprint_instance(variant)).second)
        << what << " (" << a << ", " << b << ") did not change the key";
  };
  // One color, in the first and last list, at the lane and word boundaries
  // of a 160-byte list (positions 0/7/8/31/32/last).
  for (const EdgeId e : {0, last_list}) {
    for (const int k : {0, 7, 8, 31, 32, last_pos}) {
      expect_new_key(with_color_bumped(base, e, k), "color", e, k);
    }
  }
  // One endpoint (edge 3 = {2, 3} re-pointed at node 5: still simple).
  ASSERT_EQ(base.graph.endpoints(3), (EdgeEndpoints{2, 3}));
  expect_new_key(with_graph(base, 3, 5, -1, 0), "endpoint", 3, 5);
  // One local id, and the id-space bound alone.
  expect_new_key(with_graph(base, -1, 0, 5, 0), "local id", 5, 0);
  expect_new_key(with_graph(base, -1, 0, -1, 1), "id bound", 0, 1);
  // The palette size.
  ListEdgeColoringInstance wider = base;
  ++wider.palette_size;
  expect_new_key(wider, "palette_size", wider.palette_size, 0);
  EXPECT_EQ(keys.size(), static_cast<std::size_t>(variants) + 1);
  // The rebuild helper itself changes nothing when asked to change nothing.
  EXPECT_EQ(fingerprint_instance(with_graph(base, -1, 0, -1, 0)), fingerprint_instance(base));
}

TEST(ResultCacheUnit, InstanceKeySeesListBoundariesAndOrder) {
  const ListEdgeColoringInstance base = make_key_instance();
  const std::uint64_t key = fingerprint_instance(base);

  // Move list 2's last color to the front of list 3: the concatenated color
  // bytes are unchanged, only the two sizes differ.
  ListEdgeColoringInstance moved = base;
  std::vector<Color> left = moved.lists[2].colors();
  std::vector<Color> right = moved.lists[3].colors();
  right.insert(right.begin(), left.back());
  left.pop_back();
  moved.lists[2] = ColorList(std::move(left));
  moved.lists[3] = ColorList(std::move(right));
  EXPECT_NE(fingerprint_instance(moved), key);

  // Swap two equal-size lists: the same multiset of lists, permuted.
  ListEdgeColoringInstance swapped = base;
  std::swap(swapped.lists[1], swapped.lists[6]);
  EXPECT_NE(fingerprint_instance(swapped), key);

  // A deep copy keys equal: the key reads values, never addresses.
  const ListEdgeColoringInstance copy = base;
  EXPECT_EQ(fingerprint_instance(copy), key);
  EXPECT_EQ(fingerprint_instance(make_key_instance()), key);
}

TEST(ResultCacheUnit, MixBytesIsIndependentOfSourceAlignment) {
  // Loads go through memcpy, so the same bytes at any source offset hash
  // equal; every length in 0..100 (through the 32-byte block path, the word
  // path and the zero-padded tail) hashes distinct from the others, even
  // when the extra bytes are zero, and its last byte reaches the hash.
  for (const unsigned char fill : {0x00, 0xA5}) {
    std::vector<unsigned char> bytes(100);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = fill == 0 ? static_cast<unsigned char>(i % 3 == 0 ? 0 : i) : fill;
    }
    std::set<std::uint64_t> by_length;
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
      const std::uint64_t aligned = KeyHash{}.mix_bytes(bytes.data(), n).h;
      by_length.insert(aligned);
      if (n > 0) {
        std::vector<unsigned char> flipped(bytes.begin(), bytes.begin() + static_cast<long>(n));
        flipped.back() ^= 0x01;
        EXPECT_NE(KeyHash{}.mix_bytes(flipped.data(), n).h, aligned) << "length " << n;
      }
      for (std::size_t offset = 1; offset < 8; ++offset) {
        std::vector<unsigned char> buffer(bytes.size() + 8, 0xEE);
        std::memcpy(buffer.data() + offset, bytes.data(), bytes.size());
        EXPECT_EQ(KeyHash{}.mix_bytes(buffer.data() + offset, n).h, aligned)
            << "length " << n << " offset " << offset;
      }
    }
    EXPECT_EQ(by_length.size(), bytes.size() + 1);
  }
}


TEST(ResultCacheUnit, MissLeaseCompletePopulateHitRoundTrip) {
  ResultCache cache(4, 1 << 20);
  auto waiter = std::make_shared<int>(0);

  EXPECT_EQ(cache.probe(1, waiter).status, ResultCache::ProbeStatus::kAbsent);
  const ResultCache::Lease lease = cache.acquire(1, waiter);
  ASSERT_TRUE(lease.leader);

  const SolveOutcome solved = make_ok_outcome(7);
  const ResultCache::Completion done = cache.complete(1, lease.id, &solved);
  EXPECT_TRUE(done.populated);
  EXPECT_TRUE(done.waiters.empty());  // the leader itself is not a waiter
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);

  const ResultCache::Probe hit = cache.probe(1, waiter);
  ASSERT_EQ(hit.status, ResultCache::ProbeStatus::kHit);
  EXPECT_EQ(hit.outcome.result.colors, solved.result.colors);
  EXPECT_EQ(hit.outcome.colors_hash, solved.colors_hash);
  EXPECT_EQ(hit.outcome.result.rounds, solved.result.rounds);
}

TEST(ResultCacheUnit, OpenLeaseCollectsWaitersAndHandsThemBack) {
  ResultCache cache(4, 1 << 20);
  auto w1 = std::make_shared<int>(1);
  auto w2 = std::make_shared<int>(2);

  const ResultCache::Lease lease = cache.acquire(5, w1);
  ASSERT_TRUE(lease.leader);
  EXPECT_EQ(cache.probe(5, w1).status, ResultCache::ProbeStatus::kWait);
  EXPECT_EQ(cache.probe(5, w2).status, ResultCache::ProbeStatus::kWait);
  // A racer that acquires after losing the install race joins as a waiter.
  const ResultCache::Lease racer = cache.acquire(5, w2);
  EXPECT_FALSE(racer.leader);

  const SolveOutcome solved = make_ok_outcome(3);
  const ResultCache::Completion done = cache.complete(5, lease.id, &solved);
  EXPECT_TRUE(done.populated);
  EXPECT_EQ(done.waiters.size(), 3u);
}

TEST(ResultCacheUnit, FailedCompletionPopulatesNothingAndReturnsWaiters) {
  ResultCache cache(4, 1 << 20);
  auto w = std::make_shared<int>(0);
  const ResultCache::Lease lease = cache.acquire(9, w);
  EXPECT_EQ(cache.probe(9, w).status, ResultCache::ProbeStatus::kWait);

  const ResultCache::Completion done = cache.complete(9, lease.id, nullptr);
  EXPECT_FALSE(done.populated);
  EXPECT_EQ(done.waiters.size(), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  // The key is free again: the next acquire is a fresh leader.
  EXPECT_TRUE(cache.acquire(9, w).leader);
}

TEST(ResultCacheUnit, LruEvictsAtMaxEntriesInRecencyOrder) {
  ResultCache cache(2, 1 << 20);
  auto w = std::make_shared<int>(0);
  for (std::uint64_t key : {1, 2}) {
    const ResultCache::Lease lease = cache.acquire(key, w);
    const SolveOutcome solved = make_ok_outcome(static_cast<int>(key));
    EXPECT_TRUE(cache.complete(key, lease.id, &solved).populated);
  }
  EXPECT_EQ(cache.entries(), 2u);
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_EQ(cache.probe(1, w).status, ResultCache::ProbeStatus::kHit);

  const ResultCache::Lease lease = cache.acquire(3, w);
  const SolveOutcome solved = make_ok_outcome(3);
  EXPECT_TRUE(cache.complete(3, lease.id, &solved).populated);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.probe(1, w).status, ResultCache::ProbeStatus::kHit);
  EXPECT_EQ(cache.probe(3, w).status, ResultCache::ProbeStatus::kHit);
  EXPECT_EQ(cache.probe(2, w).status, ResultCache::ProbeStatus::kAbsent);
}

TEST(ResultCacheUnit, ByteBoundEvictsAndOversizedOutcomeIsNotStored) {
  auto w = std::make_shared<int>(0);
  const SolveOutcome small = make_ok_outcome(1, 8);
  const std::size_t unit = estimate_outcome_bytes(small);

  ResultCache cache(16, 2 * unit + unit / 2);  // room for two small outcomes
  for (std::uint64_t key : {1, 2, 3}) {
    const ResultCache::Lease lease = cache.acquire(key, w);
    EXPECT_TRUE(cache.complete(key, lease.id, &small).populated);
  }
  EXPECT_EQ(cache.entries(), 2u);  // byte bound, not entry bound
  EXPECT_LE(cache.bytes(), 2 * unit + unit / 2);

  // An outcome bigger than the whole budget is served but never stored.
  const SolveOutcome huge = make_ok_outcome(4, 100000);
  const ResultCache::Lease lease = cache.acquire(99, w);
  const ResultCache::Completion done = cache.complete(99, lease.id, &huge);
  EXPECT_FALSE(done.populated);
  EXPECT_EQ(cache.probe(99, w).status, ResultCache::ProbeStatus::kAbsent);
}

TEST(ResultCacheUnit, InvalidateDropsReadyEntryAndStalesOpenLease) {
  ResultCache cache(4, 1 << 20);
  auto w = std::make_shared<int>(0);

  // Ready entry: invalidate drops it.
  const ResultCache::Lease first = cache.acquire(1, w);
  const SolveOutcome solved = make_ok_outcome(1);
  EXPECT_TRUE(cache.complete(1, first.id, &solved).populated);
  EXPECT_TRUE(cache.invalidate(1));
  EXPECT_EQ(cache.probe(1, w).status, ResultCache::ProbeStatus::kAbsent);
  EXPECT_FALSE(cache.invalidate(1));  // nothing left to invalidate

  // Open lease: invalidate stales it — completion still hands the waiters
  // back but populates nothing.
  const ResultCache::Lease second = cache.acquire(2, w);
  EXPECT_EQ(cache.probe(2, w).status, ResultCache::ProbeStatus::kWait);
  EXPECT_TRUE(cache.invalidate(2));
  const ResultCache::Completion done = cache.complete(2, second.id, &solved);
  EXPECT_FALSE(done.populated);
  EXPECT_EQ(done.waiters.size(), 1u);
  EXPECT_EQ(cache.probe(2, w).status, ResultCache::ProbeStatus::kAbsent);
}

TEST(ResultCacheUnit, DisabledCacheNeverInstallsAnything) {
  ResultCache cache(0, 1 << 20);
  auto w = std::make_shared<int>(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.probe(1, w).status, ResultCache::ProbeStatus::kAbsent);
  EXPECT_FALSE(cache.acquire(1, w).leader);
  EXPECT_EQ(cache.entries(), 0u);
}

// ------------------------------------------------------- service-level tier ---

TEST(ResultCacheService, RepeatedIdenticalSubmitServedBitIdentically) {
  const SolveResult reference = direct_solve(kScenarioA);
  SolveService service(ExecConfig{.workers = 2});

  const SolveOutcome fresh = service.solve(SolveRequest::from_scenario(kScenarioA));
  ASSERT_EQ(fresh.status, SolveStatus::kOk) << fresh.error;
  EXPECT_FALSE(fresh.cache_hit);
  ASSERT_NE(fresh.fingerprint, 0u);

  const SolveOutcome cached = service.solve(SolveRequest::from_scenario(kScenarioA));
  ASSERT_EQ(cached.status, SolveStatus::kOk) << cached.error;
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.fingerprint, fresh.fingerprint);

  // Bit-identical to the fresh solve AND the direct Solver reference.
  EXPECT_EQ(cached.colors_hash, fresh.colors_hash);
  EXPECT_EQ(cached.colors_hash, hash_coloring(reference.colors));
  EXPECT_EQ(cached.result.colors, reference.colors);
  EXPECT_EQ(cached.result.rounds, reference.rounds);
  EXPECT_EQ(cached.result.raw_rounds, reference.raw_rounds);
  EXPECT_EQ(cached.result.round_report, reference.round_report);
  EXPECT_TRUE(cached.valid);
  EXPECT_EQ(cached.label, fresh.label);
}

TEST(ResultCacheService, RepeatedHitsKeepTheStoredColors) {
  // A hit moves its private copy into the ticket; the cache entry itself
  // must keep its colors for every later hit.
  SolveService service(ExecConfig{.workers = 1});
  const SolveOutcome fresh = service.solve(SolveRequest::from_scenario(kScenarioA));
  ASSERT_EQ(fresh.status, SolveStatus::kOk) << fresh.error;
  ASSERT_FALSE(fresh.result.colors.empty());
  for (int hit = 0; hit < 3; ++hit) {
    const SolveOutcome cached = service.solve(SolveRequest::from_scenario(kScenarioA));
    ASSERT_EQ(cached.status, SolveStatus::kOk) << cached.error;
    EXPECT_TRUE(cached.cache_hit) << "hit " << hit;
    EXPECT_EQ(cached.result.colors, fresh.result.colors) << "hit " << hit;
    EXPECT_EQ(cached.colors_hash, fresh.colors_hash) << "hit " << hit;
    EXPECT_EQ(hash_coloring(cached.result.colors), fresh.colors_hash) << "hit " << hit;
  }
}

TEST(ResultCacheService, CachedVsFreshDifferentialAcrossShards) {
  for (const int shards : {1, 2, 7}) {
    ExecConfig config;
    config.workers = 2;
    config.shards = shards;
    if (shards > 1) config.min_sharded_edges = 0;  // shard even tiny graphs
    const SolveResult reference = direct_solve(kScenarioB, config);
    SolveService service(config);

    const SolveOutcome fresh = service.solve(SolveRequest::from_scenario(kScenarioB));
    const SolveOutcome cached = service.solve(SolveRequest::from_scenario(kScenarioB));
    const std::string tag = "shards=" + std::to_string(shards);
    ASSERT_EQ(fresh.status, SolveStatus::kOk) << tag << ": " << fresh.error;
    ASSERT_EQ(cached.status, SolveStatus::kOk) << tag << ": " << cached.error;
    EXPECT_FALSE(fresh.cache_hit) << tag;
    EXPECT_TRUE(cached.cache_hit) << tag;
    EXPECT_EQ(cached.colors_hash, hash_coloring(reference.colors)) << tag;
    EXPECT_EQ(cached.result.colors, reference.colors) << tag;
    EXPECT_EQ(cached.result.rounds, reference.rounds) << tag;
    EXPECT_EQ(cached.result.round_report, reference.round_report) << tag;
    EXPECT_EQ(cached.shards, fresh.shards) << tag;
  }
}

TEST(ResultCacheService, ConcurrentIdenticalSubmitsShareOneSolve) {
  ExecConfig config;
  config.workers = 1;  // the blocker occupies the only worker
  SolveService service(config);

  const auto before = service.metrics_snapshot();

  BlockerGate gate;
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(kBlockerScenario).on_round(gate.callback()));
  gate.wait_entered();  // the worker is now provably busy

  // Five identical submits pile up behind the blocker: the first installs
  // the lease (and the only queue entry), the other four attach to it.
  constexpr int kTickets = 5;
  std::vector<SolveTicket> tickets;
  for (int i = 0; i < kTickets; ++i) {
    tickets.push_back(service.submit(SolveRequest::from_scenario(kScenarioA)));
  }
  gate.release();

  int fresh = 0, hits = 0;
  std::uint64_t hash = 0;
  for (const SolveTicket& t : tickets) {
    const SolveOutcome& out = t.wait();
    ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
    if (out.cache_hit) {
      ++hits;
    } else {
      ++fresh;
    }
    if (hash == 0) hash = out.colors_hash;
    EXPECT_EQ(out.colors_hash, hash);
    EXPECT_GE(out.queue_ms, 0.0);
  }
  EXPECT_EQ(fresh, 1);  // exactly ONE underlying solve
  EXPECT_EQ(hits, kTickets - 1);
  EXPECT_EQ(blocker.wait().status, SolveStatus::kOk);

  const auto after = service.metrics_snapshot();
  EXPECT_GE(after.cache_lease_joins - before.cache_lease_joins,
            static_cast<std::uint64_t>(kTickets - 1));
}

// ------------------------------------------------ shared instance sources ---

// The key a request stores for its instance is the one an unshared request
// would mix: the source tag, fingerprint_instance, the policy, slack,
// keep-colors and the exec knobs, in that order.  Keys are not persisted,
// but they must not depend on whether a copy computed them.
TEST(ResultCacheService, StoredInstanceKeyEqualsTheUnsharedKey) {
  const ListEdgeColoringInstance instance = make_key_instance();
  SolveService service(ExecConfig{.workers = 1});
  for (const double slack : {1.0, 2.0}) {
    KeyHash expected;
    expected.mix(0);  // SolveRequest's instance source tag
    expected.mix(fingerprint_instance(instance));
    expected.mix(fingerprint_policy(Policy::practical()));
    expected.mix(slack);
    expected.mix(true);
    expected.mix(fingerprint_exec_knobs(service.config()));

    const SolveRequest request = SolveRequest::from_instance(instance).relaxed(slack);
    const SolveRequest copy = request;
    EXPECT_EQ(service.fingerprint(copy), expected.h) << "slack " << slack;  // hashes
    EXPECT_EQ(service.fingerprint(request), expected.h) << "slack " << slack;  // stored
    EXPECT_EQ(service.fingerprint(SolveRequest::from_instance(instance).relaxed(slack)),
              expected.h)
        << "slack " << slack;
  }
}

// from_instance takes its own copy: mutating the caller's instance after the
// call changes neither the request's key nor its answer.
TEST(ResultCacheService, InstanceRequestIsIsolatedFromTheCaller) {
  ListEdgeColoringInstance caller = build_instance(kScenarioB);
  const SolveResult reference = Solver(make_policy(kScenarioB.policy)).solve(caller);
  SolveService service(ExecConfig{.workers = 1});
  const SolveRequest request = SolveRequest::from_instance(caller);
  const std::uint64_t key = service.fingerprint(request);

  caller.lists[0] = ColorList::range(0, caller.palette_size + 5);
  caller.palette_size += 5;
  EXPECT_NE(service.fingerprint(SolveRequest::from_instance(caller)), key);
  EXPECT_EQ(service.fingerprint(request), key);

  const SolveOutcome out = service.solve(request);
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_EQ(out.fingerprint, key);
  EXPECT_EQ(out.result.colors, reference.colors);
  EXPECT_EQ(out.result.rounds, reference.rounds);
}

// Copies submitted from several threads at once share one holder: its key
// is computed once (std::call_once) and every submit sees the same key and
// the same answer.
TEST(ResultCacheService, ConcurrentCopiesShareOneKey) {
  constexpr int kThreads = 4;
  constexpr int kSubmits = 25;
  const SolveRequest request = SolveRequest::from_instance(build_instance(kScenarioC));
  SolveService service(ExecConfig{.workers = 2});
  std::vector<std::vector<SolveOutcome>> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<SolveTicket> tickets;
      for (int i = 0; i < kSubmits; ++i) tickets.push_back(service.submit(request));
      for (const SolveTicket& ticket : tickets) outcomes[t].push_back(ticket.wait());
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::uint64_t> keys;
  std::set<std::uint64_t> hashes;
  for (const std::vector<SolveOutcome>& per_thread : outcomes) {
    ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kSubmits));
    for (const SolveOutcome& out : per_thread) {
      EXPECT_EQ(out.status, SolveStatus::kOk) << out.error;
      keys.insert(out.fingerprint);
      hashes.insert(out.colors_hash);
    }
  }
  EXPECT_EQ(keys.size(), 1u);
  EXPECT_EQ(hashes.size(), 1u);
  EXPECT_EQ(*keys.begin(), service.fingerprint(request));
}

TEST(ResultCacheService, CancelledLeaderFailsOverToAFreshSolveForWaiters) {
  ExecConfig config;
  config.workers = 1;
  SolveService service(config);

  BlockerGate gate;
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(kBlockerScenario).on_round(gate.callback()));
  gate.wait_entered();

  const SolveTicket leader = service.submit(SolveRequest::from_scenario(kScenarioA));
  const SolveTicket waiter = service.submit(SolveRequest::from_scenario(kScenarioA));
  leader.cancel();  // resolves the leader immediately; the waiter must not inherit it
  EXPECT_EQ(leader.wait().status, SolveStatus::kCancelled);
  gate.release();

  const SolveOutcome& out = waiter.wait();
  ASSERT_EQ(out.status, SolveStatus::kOk) << out.error;
  EXPECT_FALSE(out.cache_hit);  // failed leases populate nothing; re-solved
  EXPECT_EQ(out.colors_hash, hash_coloring(direct_solve(kScenarioA).colors));
  EXPECT_EQ(blocker.wait().status, SolveStatus::kOk);

  // The cancelled leader never populated the cache, but the waiter's
  // fail-over solve did: the next identical submit hits.
  EXPECT_TRUE(service.solve(SolveRequest::from_scenario(kScenarioA)).cache_hit);
}

TEST(ResultCacheService, FailedSolvesNeverPopulate) {
  SolveService service(ExecConfig{.workers = 1});
  // An infeasible instance: complete graph K4 under a 1-color palette.
  auto make_bad = [] {
    ListEdgeColoringInstance bad;
    bad.graph = make_complete(4);
    bad.lists.assign(static_cast<std::size_t>(bad.graph.num_edges()),
                     ColorList::range(0, 1));
    bad.palette_size = 1;
    return bad;
  };
  const SolveOutcome first = service.solve(SolveRequest::from_instance(make_bad()));
  EXPECT_EQ(first.status, SolveStatus::kInvalidInstance);
  const SolveOutcome second = service.solve(SolveRequest::from_instance(make_bad()));
  EXPECT_EQ(second.status, SolveStatus::kInvalidInstance);
  EXPECT_FALSE(second.cache_hit);  // failures are never memoized
  EXPECT_EQ(service.metrics_snapshot().cache_entries, 0);
}

TEST(ResultCacheService, EvictionAtMaxCacheEntriesForcesResolve) {
  ExecConfig config;
  config.workers = 1;
  config.max_cache_entries = 2;
  SolveService service(config);

  EXPECT_FALSE(service.solve(SolveRequest::from_scenario(kScenarioA)).cache_hit);
  EXPECT_FALSE(service.solve(SolveRequest::from_scenario(kScenarioB)).cache_hit);
  EXPECT_FALSE(service.solve(SolveRequest::from_scenario(kScenarioC)).cache_hit);
  EXPECT_LE(service.metrics_snapshot().cache_entries, 2);
  // A evicted (LRU), so it re-solves; C is resident.
  EXPECT_FALSE(service.solve(SolveRequest::from_scenario(kScenarioA)).cache_hit);
  EXPECT_TRUE(service.solve(SolveRequest::from_scenario(kScenarioC)).cache_hit);
}

TEST(ResultCacheService, InvalidationForcesAReSolve) {
  SolveService service(ExecConfig{.workers = 1});
  const SolveOutcome first = service.solve(SolveRequest::from_scenario(kScenarioA));
  ASSERT_EQ(first.status, SolveStatus::kOk);
  ASSERT_NE(first.fingerprint, 0u);
  EXPECT_TRUE(service.solve(SolveRequest::from_scenario(kScenarioA)).cache_hit);

  EXPECT_TRUE(service.invalidate(first.fingerprint));
  const SolveOutcome resolved = service.solve(SolveRequest::from_scenario(kScenarioA));
  EXPECT_FALSE(resolved.cache_hit);  // invalidation forced a fresh solve
  EXPECT_EQ(resolved.colors_hash, first.colors_hash);  // which agrees, of course
  EXPECT_TRUE(service.solve(SolveRequest::from_scenario(kScenarioA)).cache_hit);

  service.invalidate_all();
  EXPECT_FALSE(service.solve(SolveRequest::from_scenario(kScenarioA)).cache_hit);
}

TEST(ResultCacheService, NoCacheRequestsAndProgressHooksBypass) {
  SolveService service(ExecConfig{.workers = 1});
  ASSERT_EQ(service.solve(SolveRequest::from_scenario(kScenarioA)).status, SolveStatus::kOk);

  // no_cache(): always a fresh solve, fingerprint not even computed.
  const SolveOutcome opted_out =
      service.solve(SolveRequest::from_scenario(kScenarioA).no_cache());
  EXPECT_FALSE(opted_out.cache_hit);
  EXPECT_EQ(opted_out.fingerprint, 0u);

  // A progress hook implies a live solve: the callback must fire.
  int rounds_seen = 0;
  const SolveOutcome observed = service.solve(
      SolveRequest::from_scenario(kScenarioA).on_round([&](const RoundProgress&) {
        ++rounds_seen;
      }));
  EXPECT_FALSE(observed.cache_hit);
  EXPECT_GT(rounds_seen, 0);

  // Config-level off switch: no hits even for identical repeats.
  ExecConfig off;
  off.workers = 1;
  off.max_cache_entries = 0;
  SolveService uncached(off);
  ASSERT_EQ(uncached.solve(SolveRequest::from_scenario(kScenarioB)).status, SolveStatus::kOk);
  EXPECT_FALSE(uncached.solve(SolveRequest::from_scenario(kScenarioB)).cache_hit);
}

TEST(ResultCacheService, QueueFullShedsWithQueueMsStamped) {
  ExecConfig config;
  config.workers = 1;
  config.max_queue_depth = 2;
  SolveService service(config);

  const auto before = service.metrics_snapshot();

  BlockerGate gate;
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(kBlockerScenario).on_round(gate.callback()));
  gate.wait_entered();  // the queue can now only drain after release()

  // Two distinct jobs fill the queue to max_queue_depth...
  const SolveTicket q1 = service.submit(SolveRequest::from_scenario(kScenarioA));
  const SolveTicket q2 = service.submit(SolveRequest::from_scenario(kScenarioB));
  // ...so the third is shed immediately: resolved kQueueFull with no work
  // done, without waiting for a worker.
  const SolveTicket shed = service.submit(SolveRequest::from_scenario(kScenarioC));
  EXPECT_TRUE(shed.done());
  const SolveOutcome& out = shed.wait();
  EXPECT_EQ(out.status, SolveStatus::kQueueFull);
  EXPECT_NE(out.error.find("queue full"), std::string::npos) << out.error;
  EXPECT_GE(out.queue_ms, 0.0);
  EXPECT_EQ(out.num_edges, 0);  // no instance was ever built
  EXPECT_EQ(out.solve_ms, 0.0);

  gate.release();
  EXPECT_EQ(q1.wait().status, SolveStatus::kOk);
  EXPECT_EQ(q2.wait().status, SolveStatus::kOk);
  EXPECT_EQ(blocker.wait().status, SolveStatus::kOk);

  const auto after = service.metrics_snapshot();
  EXPECT_GE(after.shed - before.shed, 1u);
  EXPECT_GE(after.outcomes[static_cast<int>(SolveStatus::kQueueFull)] -
                before.outcomes[static_cast<int>(SolveStatus::kQueueFull)],
            1u);
}

TEST(ResultCacheService, DrainTimeEstimateShedsDeadlinedSubmits) {
  ExecConfig config;
  config.workers = 1;
  config.max_queue_depth = 64;  // the static backstop must NOT be what trips
  SolveService service(config);

  // Seed the EWMA with a real solve, then hold the worker busy.
  ASSERT_EQ(service.solve(SolveRequest::from_scenario(kScenarioA)).status, SolveStatus::kOk);

  BlockerGate gate;
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(kBlockerScenario).on_round(gate.callback()));
  gate.wait_entered();

  const SolveTicket queued = service.submit(SolveRequest::from_scenario(kScenarioB));
  // Estimated drain (2 queued jobs x EWMA solve time) certainly exceeds a
  // 1-nanosecond deadline, so this submit is shed instead of queued.
  const SolveTicket shed =
      service.submit(SolveRequest::from_scenario(kScenarioC).deadline_ms(1e-6));
  EXPECT_TRUE(shed.done());
  EXPECT_EQ(shed.wait().status, SolveStatus::kQueueFull);
  EXPECT_NE(shed.wait().error.find("drain"), std::string::npos) << shed.wait().error;

  gate.release();
  EXPECT_EQ(queued.wait().status, SolveStatus::kOk);
  EXPECT_EQ(blocker.wait().status, SolveStatus::kOk);
}

TEST(ResultCacheUnit, ByteAccountingPricesSizeNotCapacity) {
  // Regression: estimate_outcome_bytes once priced vector/string capacity(),
  // so an outcome whose buffers carried growth slack could be refused (or
  // charged for bytes it does not durably hold) even though its contents fit.
  const SolveOutcome tight = make_ok_outcome(1, 8);
  SolveOutcome slack = make_ok_outcome(1, 8);
  slack.result.colors.reserve(1 << 16);
  slack.error.reserve(1 << 12);
  slack.result.round_report.reserve(1 << 12);
  EXPECT_EQ(estimate_outcome_bytes(slack), estimate_outcome_bytes(tight));

  // And the store path shrinks before admission: two slack-capacity outcomes
  // fit a budget sized for two tight ones, and the resident byte gauge stays
  // within the budget (the slack was dropped, not stored).
  const std::size_t unit = estimate_outcome_bytes(tight);
  ResultCache cache(16, 2 * unit + unit / 2);
  auto w = std::make_shared<int>(0);
  for (std::uint64_t key : {1, 2}) {
    const ResultCache::Lease lease = cache.acquire(key, w);
    SolveOutcome big = make_ok_outcome(static_cast<int>(key), 8);
    big.result.colors.reserve(1 << 16);
    EXPECT_TRUE(cache.complete(key, lease.id, &big).populated) << key;
  }
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LE(cache.bytes(), 2 * unit + unit / 2);
}

TEST(ResultCacheService, DimacsRewriteIsACacheMissNotAStaleHit) {
  // Regression: the DIMACS fingerprint once mixed only the path + knobs, so
  // rewriting the file behind an unchanged path served the OLD graph's
  // coloring from the cache.  The key now mixes the file's size and mtime.
  const std::string path = testing::TempDir() + "/qplec_rewrite_test.dimacs";
  {
    std::ofstream out(path);
    out << "p edge 5 6\n"
        << "e 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\ne 1 3\n";
  }
  SolveService service(ExecConfig{.workers = 1});
  const SolveOutcome first = service.solve(SolveRequest::from_dimacs(path));
  ASSERT_EQ(first.status, SolveStatus::kOk) << first.error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.num_edges, 6);
  EXPECT_TRUE(service.solve(SolveRequest::from_dimacs(path)).cache_hit);

  // Rewrite with different-length content (size change makes the test
  // robust even on filesystems with coarse mtime granularity).
  {
    std::ofstream out(path);
    out << "p edge 6 8\n"
        << "e 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 6 1\ne 1 4\ne 2 5\n";
  }
  const SolveOutcome second = service.solve(SolveRequest::from_dimacs(path));
  ASSERT_EQ(second.status, SolveStatus::kOk) << second.error;
  EXPECT_FALSE(second.cache_hit);  // the rewrite changed the key
  EXPECT_NE(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.num_edges, 8);  // solved the NEW file, not the memo
  std::remove(path.c_str());
}

TEST(ResultCacheService, InFlightSolveCountsTowardDrainEstimate) {
  // Regression: the drain estimate once counted only QUEUED jobs, so with an
  // empty queue and a busy worker a deadlined submit was admitted even though
  // the in-flight solve alone would outlast its budget.
  ExecConfig config;
  config.workers = 1;
  config.max_queue_depth = 64;  // the static backstop must NOT be what trips
  SolveService service(config);

  // Seed the EWMA with exactly one real solve: ewma == that solve_ms.
  const SolveOutcome seed = service.solve(SolveRequest::from_scenario(kScenarioA));
  ASSERT_EQ(seed.status, SolveStatus::kOk);
  ASSERT_GT(seed.solve_ms, 0.0);

  BlockerGate gate;
  const SolveTicket blocker = service.submit(
      SolveRequest::from_scenario(kBlockerScenario).on_round(gate.callback()));
  gate.wait_entered();  // queue empty, ONE job in flight

  // Deadline between ewma * (depth + 1) / workers = ewma (the old,
  // queue-only estimate: would admit) and ewma * (depth + inflight + 1) /
  // workers = 2 * ewma (the in-flight-aware estimate: must shed).
  const SolveTicket shed = service.submit(
      SolveRequest::from_scenario(kScenarioC).deadline_ms(1.5 * seed.solve_ms));
  EXPECT_TRUE(shed.done());
  EXPECT_EQ(shed.wait().status, SolveStatus::kQueueFull);
  EXPECT_NE(shed.wait().error.find("drain"), std::string::npos) << shed.wait().error;

  gate.release();
  EXPECT_EQ(blocker.wait().status, SolveStatus::kOk);
}

TEST(ResultCacheService, MetricsSnapshotExposesTheCacheSeries) {
  SolveService service(ExecConfig{.workers = 1});
  const auto before = service.metrics_snapshot();
  ASSERT_EQ(service.solve(SolveRequest::from_scenario(kScenarioA)).status, SolveStatus::kOk);
  EXPECT_TRUE(service.solve(SolveRequest::from_scenario(kScenarioA)).cache_hit);
  const auto after = service.metrics_snapshot();
  EXPECT_GE(after.cache_misses - before.cache_misses, 1u);
  EXPECT_GE(after.cache_hits - before.cache_hits, 1u);
  EXPECT_GE(after.cache_entries, 1);
  EXPECT_GT(after.cache_bytes, 0);
  EXPECT_GE(after.cache_hit_latency_ms.count, 1u);
  EXPECT_GE(after.cache_miss_latency_ms.count, 1u);
}

}  // namespace
}  // namespace qplec
