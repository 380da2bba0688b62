// EXP-SHARD: single-instance speedup of the sharded round executor.
//
//   usage: bench_sharded_scaling [--nodes N] [--degree D] [--repeats R]
//                                [--shards "1,2,4,8"] [--out BENCH_sharded.json]
//                                [--skip-power-law] [--min-speedup X]
//                                [--min-speedup-shards S]
//
// Solves one large (2*Delta-1) edge-coloring instance per graph — a random
// D-regular graph with N*D/2 >= 200k edges, plus a heavy-tailed power-law
// skew stressor — once per shard count, and reports wall time, speedup over
// shards=1 and edges/sec.  Every sharded solve runs on ONE leased worker
// pool (sized to the largest shard count of the sweep), the same ownership
// model the BatchSolver uses, so the sweep measures rounds, not thread
// spawning.  Every run must reproduce the shards=1 coloring bit for bit
// (checked here; the bench aborts otherwise), so the numbers measure the
// sharding, never a silently different execution.  Speedup > 1 naturally
// needs as many free cores as shards; on a single-core box the bench
// instead measures the coordination overhead.  --min-speedup X turns the
// bench into a regression gate: it exits non-zero unless the regular-graph
// sweep reaches speedup >= X at --min-speedup-shards (default: the largest
// shard count) — CI runs this on its multi-core runners and uploads its
// BENCH_sharded.json artifact on every run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "src/coloring/problem.hpp"
#include "src/core/solver.hpp"
#include "src/dist/partition.hpp"
#include "src/graph/generators.hpp"
#include "src/runtime/batch_solver.hpp"
#include "src/runtime/thread_pool.hpp"

namespace {

struct Sample {
  std::string graph;
  int nodes = 0;
  int edges = 0;
  int delta = 0;
  int shards = 1;
  std::int64_t rounds = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;
  double edges_per_sec = 0.0;
  double shard_balance = 1.0;  ///< largest edge-shard weight / ideal share
  std::uint64_t colors_hash = 0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<int> parse_shard_list(const char* text) {
  std::vector<int> out;
  for (const char* p = text; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    out.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_sharded_scaling [--nodes N] [--degree D] [--repeats R] "
               "[--shards \"1,2,4,8\"] [--out BENCH_sharded.json] [--skip-power-law] "
               "[--min-speedup X] [--min-speedup-shards S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qplec;

  // The shared stressor parameters (bench/support.hpp): 204800 edges at the
  // defaults, above the 200k target.
  int nodes = bench::kStressRegularNodes;
  int degree = bench::kStressRegularDegree;
  int repeats = 1;
  std::vector<int> shard_counts{1, 2, 4, 8};
  std::string out_path = "BENCH_sharded.json";
  bool power_law = true;
  double min_speedup = 0.0;  // 0 = no gate
  int min_speedup_shards = 0;  // 0 = largest of the sweep
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      nodes = std::atoi(argv[++i]);
    } else if (arg == "--degree" && i + 1 < argc) {
      degree = std::atoi(argv[++i]);
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      shard_counts = parse_shard_list(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--skip-power-law") {
      power_law = false;
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      // Strict parse: a typo'd value must not silently disable the gate.
      char* end = nullptr;
      min_speedup = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || min_speedup <= 0.0) {
        std::fprintf(stderr, "--min-speedup: '%s' is not a positive number\n", argv[i]);
        return usage();
      }
    } else if (arg == "--min-speedup-shards" && i + 1 < argc) {
      char* end = nullptr;
      min_speedup_shards = static_cast<int>(std::strtol(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || min_speedup_shards < 1) {
        std::fprintf(stderr, "--min-speedup-shards: '%s' is not a positive integer\n",
                     argv[i]);
        return usage();
      }
    } else {
      return usage();
    }
  }
  if (nodes < 2 || degree < 1 || repeats < 1 || shard_counts.empty()) return usage();
  int max_shards = 1;
  for (const int s : shard_counts) {
    if (s < 1) return usage();
    max_shards = std::max(max_shards, s);
  }
  if (min_speedup_shards == 0) min_speedup_shards = max_shards;

  struct Workload {
    std::string name;
    Graph graph;
  };
  std::vector<Workload> workloads;
  std::printf("building graphs...\n");
  workloads.push_back({"regular", bench::make_regular_stressor(nodes, degree)});
  if (power_law) {
    // Skew-stress workload: bounded-max-degree power-law graphs are sparse
    // (far below the regular graph's edge count at any sane size), so this
    // one exists to exercise the degree-balanced partitioner against hubs,
    // not to add scale.
    workloads.push_back({"power_law", bench::make_power_law_stressor(nodes, degree)});
  }

  // One leased worker pool for every sharded solve of the sweep (the
  // BatchSolver ownership model): sized to the largest shard count once, so
  // per-solve thread spawn never enters the measurement.
  ThreadPool shard_pool(max_shards);

  std::vector<Sample> samples;
  bool ok = true;
  for (const Workload& w : workloads) {
    const ListEdgeColoringInstance instance = make_two_delta_instance(w.graph);
    std::printf("%s: n=%d m=%d Delta=%d palette=%d\n", w.name.c_str(),
                w.graph.num_nodes(), w.graph.num_edges(), w.graph.max_degree(),
                instance.palette_size);
    std::uint64_t reference_hash = 0;
    double reference_ms = 0.0;
    bool have_reference = false;
    for (const int shards : shard_counts) {
      ExecConfig exec;
      exec.shards = shards;
      exec.min_sharded_edges = 0;
      exec.shared_pool = &shard_pool;
      const Solver solver(Policy::practical(), exec);

      Sample s;
      s.graph = w.name;
      s.nodes = w.graph.num_nodes();
      s.edges = w.graph.num_edges();
      s.delta = w.graph.max_degree();
      s.shards = shards;
      // Balance of the edge partition the sharded backend actually runs on
      // (1.0 = perfectly even round work per lane).
      const EdgePartition epart(w.graph, shards);
      std::int64_t total_weight = 0, largest_weight = 0;
      for (int sh = 0; sh < epart.num_shards(); ++sh) {
        total_weight += epart.shard(sh).weight;
        largest_weight = std::max(largest_weight, epart.shard(sh).weight);
      }
      s.shard_balance = total_weight > 0
                            ? static_cast<double>(largest_weight) * epart.num_shards() /
                                  static_cast<double>(total_weight)
                            : 1.0;
      double best_ms = 0.0;
      for (int r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        const SolveResult res = solver.solve(instance);
        const double ms = ms_since(start);
        if (r == 0 || ms < best_ms) best_ms = ms;
        s.rounds = res.rounds;
        s.colors_hash = hash_coloring(res.colors);
      }
      s.wall_ms = best_ms;
      s.edges_per_sec = best_ms > 0 ? s.edges / (best_ms / 1000.0) : 0.0;
      // The first sample of the sweep is the baseline — by position, not by
      // value, so a repeated shard count can never re-seed it mid-run.
      if (!have_reference) {
        reference_hash = s.colors_hash;
        reference_ms = best_ms;
        have_reference = true;
      }
      s.speedup = s.wall_ms > 0 ? reference_ms / s.wall_ms : 0.0;
      if (s.colors_hash != reference_hash) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: %s shards=%d hash mismatch\n",
                     w.name.c_str(), shards);
        ok = false;
      }
      std::printf("  shards=%2d  wall=%9.1f ms  speedup=%5.2fx  %10.0f edges/s  "
                  "balance=%.3f  rounds=%lld\n",
                  shards, s.wall_ms, s.speedup, s.edges_per_sec, s.shard_balance,
                  static_cast<long long>(s.rounds));
      samples.push_back(s);
    }
  }

  // The perf gate: the regular-graph sweep at --min-speedup-shards must be
  // --min-speedup times faster than ITS OWN shards=1 sample (located
  // explicitly — the JSON `speedup` field is relative to the sweep's first
  // entry by position, which need not be shards=1).
  bool gate_ok = true;
  if (min_speedup > 0.0) {
    const Sample* base = nullptr;
    const Sample* target = nullptr;
    for (const Sample& s : samples) {
      if (s.graph != "regular") continue;
      if (s.shards == 1 && base == nullptr) base = &s;
      if (s.shards == min_speedup_shards && target == nullptr) target = &s;
    }
    if (base == nullptr || target == nullptr) {
      // A requested-but-unmatchable gate is a configuration error, never a
      // silent pass — otherwise one --shards edit turns the CI gate off.
      std::fprintf(stderr,
                   "PERF GATE MISCONFIGURED: the regular sweep needs both a shards=1 "
                   "sample and one at shards=%d; fix --shards/--min-speedup-shards\n",
                   min_speedup_shards);
      gate_ok = false;
    } else {
      const double speedup = target->wall_ms > 0 ? base->wall_ms / target->wall_ms : 0.0;
      if (speedup < min_speedup) {
        std::fprintf(stderr,
                     "PERF GATE FAILED: regular shards=%d speedup %.2fx over shards=1 "
                     "< required %.2fx\n",
                     min_speedup_shards, speedup, min_speedup);
        gate_ok = false;
      } else {
        std::printf("perf gate passed: regular shards=%d at %.2fx over shards=1 (>= %.2fx)\n",
                    min_speedup_shards, speedup, min_speedup);
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"sharded_scaling\",\n  \"algorithm\": \"bko_podc2020\",\n";
  out << "  \"deterministic\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"max_shards\": " << max_shards << ",\n";
  out << "  \"samples\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%llx", static_cast<unsigned long long>(s.colors_hash));
    out << "    {\"graph\": \"" << s.graph << "\", \"nodes\": " << s.nodes
        << ", \"edges\": " << s.edges << ", \"delta\": " << s.delta
        << ", \"shards\": " << s.shards << ", \"rounds\": " << s.rounds
        << ", \"wall_ms\": " << s.wall_ms << ", \"speedup\": " << s.speedup
        << ", \"edges_per_sec\": " << s.edges_per_sec
        << ", \"shard_balance\": " << s.shard_balance << ", \"colors_hash\": \"" << hash
        << "\"}" << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return ok && gate_ok ? 0 : 1;
}
