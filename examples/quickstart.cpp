// Quickstart: color the edges of a graph with 2*Delta - 1 colors through the
// qplec::SolveService front door, inspect the outcome and the round bill.
//
//   $ ./quickstart
#include <cstdio>

#include "src/coloring/validate.hpp"
#include "src/graph/generators.hpp"
#include "src/service/solve_service.hpp"

int main() {
  using namespace qplec;

  // 1. A communication graph: 64 nodes, random 8-regular, with adversarially
  //    scrambled node identifiers from {1..4096} (the LOCAL model's input).
  const Graph g = make_random_regular(64, 8, /*seed=*/42).with_scrambled_ids(4096, 7);
  std::printf("graph: n=%d m=%d Delta=%d Delta-bar=%d\n", g.num_nodes(), g.num_edges(),
              g.max_degree(), g.max_edge_degree());

  // 2. The classic problem: every edge may use colors {0 .. 2*Delta-2}.
  const ListEdgeColoringInstance instance = make_two_delta_instance(g);

  // 3. Solve via the service: submit returns a ticket immediately; wait()
  //    never throws — every failure mode is a status on the outcome.
  SolveService service;  // default ExecConfig: hardware workers, serial solves
  const SolveTicket ticket =
      service.submit(SolveRequest::from_instance(instance).label("quickstart"));
  const SolveOutcome& outcome = ticket.wait();
  if (!outcome.ok()) {
    std::printf("solve failed (%s): %s\n", status_name(outcome.status),
                outcome.error.c_str());
    return 1;
  }
  const SolveResult& result = outcome.result;

  // 4. The solver's final whole-solution check passed (outcome.valid);
  //    run the same check here for the reader.
  std::string why;
  if (!outcome.valid || !is_valid_list_coloring(instance, result.colors, &why)) {
    std::printf("INVALID: %s\n", why.c_str());
    return 1;
  }
  std::printf("valid (2*Delta-1)-edge coloring found.\n\n");

  // 5. A few colored edges.
  for (EdgeId e = 0; e < 8; ++e) {
    const auto& ep = instance.graph.endpoints(e);
    std::printf("  edge {%d,%d}  ->  color %d\n", ep.u, ep.v,
                result.colors[static_cast<std::size_t>(e)]);
  }

  // 6. The LOCAL-model bill, plus the service-side timers.
  std::printf("\nLOCAL rounds (effective): %lld\n", static_cast<long long>(result.rounds));
  std::printf("  of which initial coloring (log* n part): %lld\n",
              static_cast<long long>(result.initial_rounds));
  std::printf("service timers: queue %.3f ms, solve %.3f ms\n", outcome.queue_ms,
              outcome.solve_ms);
  std::printf("round breakdown:\n%s\n", result.round_report.c_str());
  std::printf("recursion stats: basecases=%lld defective=%lld trivial-picks=%lld\n",
              static_cast<long long>(result.stats.basecase_calls),
              static_cast<long long>(result.stats.defective_calls),
              static_cast<long long>(result.stats.trivial_picks));
  return 0;
}
