// ExecConfig — the one execution/validation knob bundle for the whole stack.
//
// Historically the solver layer carried `ExecOptions` (shards, pool sizing,
// neighbor cache) and the service layer wrapped it in its own `ExecConfig`
// (adding worker count), with BatchSolver lowering a third shape
// (`BatchOptions`) onto both.  This header collapses the three: Solver,
// SolverEngine, BatchSolver, SolveService, cli_solve and every bench consume
// the same struct, and the round-loop knob (`validation_tier`) lives here
// exactly once.
//
// Determinism: nothing in this struct may change the solver's *output*.
// Shards/workers/pool sizing only re-partition bit-identical work; the
// validation tier only decides whether assert/telemetry walks run.  The
// differential suite (tests/test_roundloop.cpp) pins every combination to
// one fingerprint.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace qplec {

class ThreadPool;

/// How often the engine runs its *demoted* invariant walks — the standalone
/// assert/telemetry sweeps (deg+1 feasibility, slack guarantee, entry
/// properness, defect bounds) that verify the paper's invariants but feed
/// nothing the algorithm reads.  Inline O(1) asserts inside passes the
/// algorithm needs anyway, and the final whole-solution validation in
/// Solver::run, are NOT tiered — they always run.
enum class ValidationTier {
  kOff,         ///< demoted walks never run (fastest; final validation still on)
  kSampled,     ///< every ValidationGate::kSamplePeriod-th due site runs (Release default)
  kEveryRound,  ///< seed behavior: every walk, every round (Debug/CI default)
};

const char* validation_tier_name(ValidationTier tier);

/// Which ExecBackend implementation a solve runs on.
enum class BackendKind {
  kAuto,     ///< sharded when shards > 1 and the graph is big enough
  kSerial,   ///< always the serial backend, regardless of shards
  kSharded,  ///< same gating as kAuto (named for explicitness in configs)
};

const char* backend_kind_name(BackendKind kind);

/// Tier this build defaults to: kEveryRound in Debug builds (!NDEBUG),
/// kSampled in Release.  Defined in exec_config.cpp so one definition —
/// compiled with the library — decides, whatever NDEBUG a client TU sees.
ValidationTier default_validation_tier();

/// Deterministic gate for one engine's demoted validation walks.  Call
/// due() once per candidate walk site, in serial control flow only: the
/// answer depends solely on (tier, period, call count), so for a fixed
/// config the same walks run regardless of shard count or wall-clock — and
/// since gated walks never mutate solver state, the solved colors are
/// identical across tiers too.  The first due() of a gate always fires under
/// kSampled, so every engine validates its opening round.  Gates are made
/// fresh per SolverEngine and per repair_recolor call, so sampling thins
/// only the later draws of one gate: every engine runs its validate-entry
/// walk and every churn repair its survivor walk, under every tier but kOff.
class ValidationGate {
 public:
  /// Under kSampled, one in this many due() draws runs the walk.
  static constexpr int kSamplePeriod = 16;

  ValidationGate() = default;
  explicit ValidationGate(ValidationTier tier) : tier_(tier) {}

  bool due() {
    switch (tier_) {
      case ValidationTier::kOff:
        return false;
      case ValidationTier::kEveryRound:
        return true;
      case ValidationTier::kSampled:
        break;
    }
    const bool run = counter_ == 0;
    counter_ = (counter_ + 1) % kSamplePeriod;
    return run;
  }

  ValidationTier tier() const { return tier_; }

 private:
  ValidationTier tier_ = ValidationTier::kEveryRound;
  int counter_ = 0;
};

/// Execution-backend, concurrency and round-loop configuration shared by
/// every layer of the stack.
struct ExecConfig {
  /// Concurrent solves (service worker threads); <= 0 picks hardware
  /// concurrency.  Only the service/batch layer reads this — a single
  /// Solver ignores it.
  int workers = 0;

  /// Number of shards one instance's rounds are split into; <= 1 runs the
  /// seed's serial path.
  int shards = 1;

  /// Which execution backend solves run on (see BackendKind).  kAuto keeps
  /// the historical shards/min_sharded_edges gating; kSerial ignores shards.
  /// Output is bit-identical across backends (tests/test_exec_backend.cpp
  /// pins the differential).
  BackendKind backend = BackendKind::kAuto;

  /// Batch quantum of the greedy small-class scheduler
  /// (src/coloring/greedy.cpp): consecutive color classes are batched until
  /// their combined size reaches this many edges, amortizing the per-batch
  /// conflict scan.  <= 1 disables batching (one class per batch).  Any
  /// quantum yields bit-identical colors — batching only regroups a
  /// sequential scan (bench_roundloop sweeps {1,32,128,512} to prove it).
  int greedy_batch_quantum = 128;

  /// Threads that run a sharded pass, the calling thread included (the pool
  /// starts shard_threads - 1 helpers; 1 runs every lane inline); <= 0 picks
  /// min(shards, hardware concurrency).  Ignored when shared_pool is set
  /// (the lease carries its own size).
  int shard_threads = 0;

  /// Instances with fewer edges than this stay on the serial path even when
  /// shards > 1 (per-round fan-out overhead dwarfs the step work below it).
  int min_sharded_edges = 20000;

  /// Leased shard-worker pool (non-owning).  When set, every
  /// ShardedExecution built from this config runs on this pool instead of
  /// spawning its own threads — the service sizes one pool for the whole
  /// workload and leases it to each sharded solve.  The pool must outlive
  /// every solver carrying this config; concurrent solves serialize their
  /// round fan-outs on it (ThreadPool::run_indexed is lease-safe).
  ThreadPool* shared_pool = nullptr;

  /// Cadence of the demoted invariant walks (see ValidationTier).
  ValidationTier validation_tier = default_validation_tier();

  /// Master switch of the process-wide MetricsRegistry (src/obs/metrics.hpp).
  /// On by default — counters/gauges/histograms record; off turns every
  /// instrument write into one relaxed atomic load.  Observers only: solved
  /// colors, rounds and ledger are bit-identical either way (pinned by
  /// tests/test_obs.cpp), and bench_service gates the on/off overhead <= 3%.
  bool metrics = true;

  /// When non-empty, the layer that owns the run (SolveService, cli_solve)
  /// opens a TraceRecorder session (src/obs/trace.hpp) and writes the Chrome
  /// trace_event JSON here at teardown.  Empty (default): tracing off, span
  /// sites cost one relaxed load.
  std::string trace_path{};

  /// SolveService result cache (src/service/result_cache.hpp): completed Ok
  /// outcomes are memoized by request fingerprint behind an LRU bounded by
  /// this many entries and by 64 MiB.  Identical submits are answered from
  /// the cache bit-identically (same colors hash/rounds/ledger — the solve
  /// is deterministic); in-flight identical submits share ONE solve via a
  /// lease.  <= 0 disables the cache.  Service layer only.
  int max_cache_entries = 256;

  /// SolveService admission control: with a positive depth, submits are
  /// rejected fast with SolveStatus::kQueueFull once the queue holds this
  /// many jobs — or earlier, when the request carries a deadline the queue's
  /// estimated drain time ((depth + in-flight) x EWMA solve time / workers)
  /// already blows.  0 (default) keeps the seed behavior: accept everything.
  /// Service layer only.
  int max_queue_depth = 0;

  /// Incremental-recolor budget for SolveService::update (src/core/recolor):
  /// a churn repair whose region payload — the sum of line-graph degrees
  /// over the edges needing new colors — exceeds this falls back to a full
  /// re-solve of the mutated instance (then bit-identical to a from-scratch
  /// submit).  <= 0 disables local repair entirely: every update falls back.
  /// The repair walks every region edge's neighborhood, so the budget bounds
  /// that walk too.
  std::int64_t recolor_budget = std::int64_t{1} << 20;

  /// True when the service layers a result cache over its queue.
  bool result_cache() const {
    return max_cache_entries > 0;
  }

  /// True when this configuration shards a graph of `num_edges` edges; with
  /// no argument, whether it shards any graph at all.  The one backend
  /// predicate: Solver::run, the churn repair, the reported shard count and
  /// the service's shard pool all read it.
  bool wants_sharding(int num_edges = std::numeric_limits<int>::max()) const {
    return backend != BackendKind::kSerial && shards > 1 && num_edges >= min_sharded_edges;
  }

  /// Shard count a solve over `num_edges` edges actually runs with: 1 on the
  /// serial path, otherwise the configured count after the partitioner's
  /// clamp to the edge-id universe.  The single source of truth for
  /// reporting.
  int effective_shards(int num_edges) const {
    if (!wants_sharding(num_edges)) return 1;
    return shards < num_edges ? shards : (num_edges > 1 ? num_edges : 1);
  }

  /// Worker count a shard pool built from this config gets: shard_threads if
  /// set, else min(shards, hardware concurrency).  The single sizing policy
  /// for a solve-owned pool (ShardedExecution) and the service-wide shared
  /// pool alike.
  int pool_threads() const;

  /// Service worker count this config resolves to: workers if set, else
  /// hardware concurrency.
  int worker_threads() const;

  /// Copy with the shared pool replaced — how the service hands its
  /// shard-pool lease to each per-job solver without mutating the stored
  /// config.
  ExecConfig with_pool(ThreadPool* pool) const {
    ExecConfig c = *this;
    c.shared_pool = pool;
    return c;
  }

  /// Validation gate seeded from this config (one per engine/solve).
  ValidationGate make_validation_gate() const {
    return ValidationGate(validation_tier);
  }
};

}  // namespace qplec
