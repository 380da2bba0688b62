// ResultCache — the fingerprint-keyed memo of completed SolveOutcomes.
//
// Production traffic against the solver is repetitive: the same instance
// (same graph fingerprint, policy, scramble seed and execution knobs) is
// submitted again and again, and the Balliu–Kuhn–Olivetti procedure is
// deterministic, so the completed SolveOutcome of one submit answers every
// identical submit after it.  This class is that memo, with three properties
// the service relies on:
//
//   * Bounded.  An LRU keyed by a 64-bit request fingerprint, capped by
//     `max_entries` AND `max_bytes` (estimated per outcome — the coloring
//     vector dominates).  Leased (in-flight) entries are never evicted; an
//     outcome too large for the byte budget on its own is simply not stored.
//   * Leased.  A miss installs a *lease*: the first submitter becomes the
//     leader and actually solves; every identical submit that arrives while
//     the lease is open is attached as a waiter instead of queueing its own
//     solve.  When the leader completes Ok, complete() returns the waiter
//     list so the service can resolve all of them from ONE underlying solve
//     — no thundering herd.  A leader that fails (cancelled, deadline,
//     error) populates nothing; complete() hands the waiters back for the
//     service to re-route.
//   * Invalidatable.  invalidate(key) drops a ready entry, or marks an open
//     lease stale so its eventual completion resolves its waiters but does
//     NOT populate the cache.  Lease ids are generation stamps: a
//     completion only populates if its lease is still the installed one.
//
// The cache never blocks a caller on a solve: probe/acquire/complete are
// short critical sections under one mutex, and waiters are opaque handles
// the *service* resolves (the cache never touches job state).  Correctness
// bar (differential-tested): a cached hit is bit-identical — colors hash,
// rounds, ledger report — to a fresh solve, because the stored outcome IS a
// completed solve's outcome.
//
// Metrics: the cache emits qplec_service_cache_{hits,misses,lease_joins,
// evictions,invalidations}_total counters and the qplec_service_cache_
// {entries,bytes} gauges through the process-wide MetricsRegistry; the
// hit/miss latency histograms are recorded by the service (it owns the
// submission clocks).
#pragma once

#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/service/solve_service.hpp"

namespace qplec {

// --- Fingerprint primitives ------------------------------------------------
//
// Request keys come from one word-at-a-time hasher built from xxh64's rounds
// and constants.  A prebuilt instance's color lists are most of a request's
// bytes, so a key costs time linear in those bytes at close to memory speed.
// Keys are deterministic (no per-process seed, nothing depends on a pointer)
// but live only in the process: no file records them.  hash_coloring
// (src/runtime/batch_solver) is a separate, pinned FNV-1a and is not this.

/// Incremental accumulator for composing request fingerprints.  Order-
/// sensitive by construction: a plain sum or xor of words would collide on
/// permuted lists, and a key collision serves a wrong answer.
struct KeyHash {
  std::uint64_t h = kP5;

  /// One multiply-rotate step per 64-bit value.
  KeyHash& mix(std::uint64_t v) {
    h = step(h, v);
    return *this;
  }
  KeyHash& mix(std::int64_t v) { return mix(static_cast<std::uint64_t>(v)); }
  KeyHash& mix(int v) { return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  KeyHash& mix(bool v) { return mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  KeyHash& mix(double v);
  /// Hashes n bytes seeded by the running state: 32-byte blocks through four
  /// independent lanes, then 8-byte words, a zero-padded tail, the length
  /// and a full avalanche.  Any alignment of `data` is fine.
  KeyHash& mix_bytes(const void* data, std::size_t n);
  KeyHash& mix_string(const std::string& s);

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

  /// xxh64's lane round: absorbs one word into one lane.
  static std::uint64_t lane(std::uint64_t acc, std::uint64_t input) {
    return std::rotl(acc + input * kP2, 31) * kP1;
  }
  /// xxh64's word step: absorbs one word into the running state.
  static std::uint64_t step(std::uint64_t acc, std::uint64_t input) {
    return std::rotl(acc ^ lane(0, input), 27) * kP1 + kP4;
  }
};

/// Structural fingerprint of a graph: sizes, endpoint pairs, the LOCAL ids
/// and the id-space bound (ids steer the paper's symmetry breaking, so two
/// graphs that differ only in id assignment are different instances).
std::uint64_t fingerprint_graph(const Graph& g);

/// Full instance fingerprint: graph + palette size + every color list, each
/// list's size mixed before its bytes so list boundaries stay unambiguous.
std::uint64_t fingerprint_instance(const ListEdgeColoringInstance& instance);

/// Policy fingerprint: every field that steers the recursion.
std::uint64_t fingerprint_policy(const Policy& policy);

/// The ExecConfig knobs worth folding into a cache key.  None of them change
/// the solved colors (the differential suite pins that), but `shards` and
/// the schedule knobs do change the outcome's metadata and stats surface, so
/// keying on them keeps a cached outcome byte-honest with what a fresh solve
/// under the same config would report.
std::uint64_t fingerprint_exec_knobs(const ExecConfig& config);

/// Rough resident size of one cached outcome (struct + coloring + strings).
std::size_t estimate_outcome_bytes(const SolveOutcome& outcome);

// ------------------------------------------------------------- ResultCache ---

class ResultCache {
 public:
  /// Opaque waiter handle (the service attaches its job shared_ptrs; the
  /// cache only stores and returns them).
  using WaiterHandle = std::shared_ptr<void>;
  using LeaseId = std::uint64_t;

  enum class ProbeStatus {
    kHit,     ///< ready entry copied out
    kWait,    ///< open lease; the waiter handle was attached
    kAbsent,  ///< nothing installed (caller decides whether to acquire)
  };

  struct Probe {
    ProbeStatus status = ProbeStatus::kAbsent;
    SolveOutcome outcome;  ///< meaningful for kHit only
  };

  struct Lease {
    bool leader = false;  ///< false: lost the install race, attached as waiter
    LeaseId id = 0;       ///< generation stamp to pass back to complete()
  };

  struct Completion {
    bool populated = false;  ///< the outcome was stored for future hits
    /// Waiters attached to the completed lease.  On an Ok completion the
    /// service resolves each with a copy of the outcome; on a failed one it
    /// re-routes them (the first becomes a fresh leader).
    std::vector<WaiterHandle> waiters;
  };

  /// max_entries <= 0 or max_bytes == 0 disables the cache: probe() always
  /// reports kAbsent and acquire() never installs (callers fall through to
  /// the plain queue path).
  ResultCache(int max_entries, std::size_t max_bytes);

  bool enabled() const { return max_entries_ > 0 && max_bytes_ > 0; }

  /// Looks `key` up.  A hit copies the outcome out and touches the LRU; an
  /// open lease attaches `waiter` and reports kWait; otherwise kAbsent with
  /// nothing installed — so a caller can run admission control before
  /// committing to a lease.
  Probe probe(std::uint64_t key, const WaiterHandle& waiter);

  /// Installs a lease for `key`, or joins the one that won the race since
  /// the probe (then `waiter` is attached exactly like probe's kWait path).
  /// Must not be called while a ready entry exists (probe first).
  Lease acquire(std::uint64_t key, const WaiterHandle& waiter);

  /// Completes the lease `id` on `key`.  `outcome` non-null = the solve
  /// finished Ok: populate (unless the lease went stale via invalidate(), a
  /// newer lease replaced it, or the outcome alone exceeds the byte budget)
  /// and return the waiters for resolution.  `outcome` null = the solve
  /// failed: drop the lease and return the waiters for re-routing.
  Completion complete(std::uint64_t key, LeaseId id, const SolveOutcome* outcome);

  /// Drops the ready entry for `key`, or marks its open lease stale (the
  /// in-flight solve will still resolve its waiters but populates nothing).
  /// Returns true if there was anything to invalidate.
  bool invalidate(std::uint64_t key);

  /// invalidate() on every key: ready entries dropped, open leases staled.
  void invalidate_all();

  std::size_t entries() const;
  std::size_t bytes() const;

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

 private:
  struct Entry {
    bool ready = false;  ///< false: open lease
    bool stale = false;  ///< invalidated while leased — never populate
    LeaseId lease = 0;
    SolveOutcome outcome;    ///< ready only
    std::size_t bytes = 0;   ///< ready only
    std::vector<WaiterHandle> waiters;   ///< leased only
    std::list<std::uint64_t>::iterator lru_it;  ///< ready only
  };

  void touch_locked(Entry& entry, std::uint64_t key);
  void evict_for_locked(std::size_t incoming_bytes);

  const int max_entries_;
  const std::size_t max_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> lru_;  ///< front = most recently used, ready keys only
  std::size_t bytes_ = 0;
  std::size_t ready_entries_ = 0;
  LeaseId next_lease_ = 1;
};

}  // namespace qplec
