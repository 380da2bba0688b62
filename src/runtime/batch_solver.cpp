#include "src/runtime/batch_solver.hpp"

#include <chrono>
#include <utility>
#include <vector>

#include "src/service/solve_service.hpp"

namespace qplec {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::uint64_t hash_coloring(const EdgeColoring& colors) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const Color c : colors) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(c));
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

BatchSolver::BatchSolver(ExecConfig config, bool keep_colors)
    : config_(config), keep_colors_(keep_colors) {}

int BatchSolver::num_threads() const { return config_.worker_threads(); }

BatchReport BatchSolver::run(const std::vector<Scenario>& manifest) const {
  // The service owns the scenario workers and the one shard pool every
  // sharded solve leases; a caller-provided shared pool is passed through
  // and must outlive the batch.
  BatchReport report;
  report.results.resize(manifest.size());

  const auto batch_start = std::chrono::steady_clock::now();
  {
    SolveService service(config_);
    report.num_threads = service.workers();

    // Submit-all, then wait in manifest order: result i is scenario i.
    std::vector<SolveTicket> tickets;
    tickets.reserve(manifest.size());
    for (const Scenario& scenario : manifest) {
      SolveRequest request = SolveRequest::from_scenario(scenario);
      if (!keep_colors_) request.discard_colors();
      tickets.push_back(service.submit(std::move(request)));
    }

    for (std::size_t i = 0; i < manifest.size(); ++i) {
      // take() moves the outcome out of the job: with keep_colors on a big
      // manifest the colorings change hands instead of living twice until
      // the service winds down.
      SolveOutcome out = tickets[i].take();
      ScenarioResult& r = report.results[i];
      r.scenario = manifest[i];
      r.num_nodes = out.num_nodes;
      r.num_edges = out.num_edges;
      r.max_degree = out.max_degree;
      r.max_edge_degree = out.max_edge_degree;
      r.palette_size = out.palette_size;
      r.shards = out.shards;
      r.rounds = out.result.rounds;
      r.raw_rounds = out.result.raw_rounds;
      r.stats = out.result.stats;
      r.colors_hash = out.colors_hash;
      // An invalid coloring is reported, not thrown — and any non-Ok outcome
      // (the service never throws) lands here as a plainly invalid row, with
      // the error detail preserved for the report.
      r.valid = out.ok() && out.valid;
      r.error = std::move(out.error);
      r.queue_ms = out.queue_ms;
      r.build_ms = out.build_ms;
      r.solve_ms = out.solve_ms;
      r.edges_per_sec =
          r.solve_ms > 0 ? static_cast<double>(r.num_edges) / (r.solve_ms / 1000.0) : 0.0;
      if (keep_colors_) r.colors = std::move(out.result.colors);
    }
  }  // service winds down before the wall clock stops
  report.wall_ms = ms_since(batch_start);

  for (const ScenarioResult& r : report.results) {
    report.total_edges += r.num_edges;
    report.total_solve_ms += r.solve_ms;
  }
  return report;
}

}  // namespace qplec
