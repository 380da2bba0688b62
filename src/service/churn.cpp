#include "src/service/churn.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/common/rng.hpp"
#include "src/service/result_cache.hpp"

namespace qplec {

std::uint64_t chain_fingerprint(std::uint64_t base_fingerprint, const ChurnBatch& batch) {
  KeyHash fp;
  fp.mix(base_fingerprint);
  fp.mix(static_cast<std::uint64_t>(batch.ops.size()));
  for (const EdgeDelta& op : batch.ops) {
    fp.mix(op.insert);
    fp.mix(op.u);
    fp.mix(op.v);
  }
  return fp.h;
}

ChurnBatch parse_churn_stream(std::istream& in) {
  ChurnBatch batch;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string op;
    if (!(fields >> op)) continue;  // blank / comment-only line
    if (op != "i" && op != "r") {
      throw std::invalid_argument("churn file line " + std::to_string(lineno) +
                                  ": op must be 'i' or 'r', got '" + op + "'");
    }
    NodeId u = 0;
    NodeId v = 0;
    if (!(fields >> u >> v)) {
      throw std::invalid_argument("churn file line " + std::to_string(lineno) +
                                  ": expected two endpoints after '" + op + "'");
    }
    std::string trailing;
    if (fields >> trailing) {
      throw std::invalid_argument("churn file line " + std::to_string(lineno) +
                                  ": trailing token '" + trailing + "'");
    }
    batch.ops.push_back(EdgeDelta{op == "i", u, v});
  }
  return batch;
}

ChurnBatch parse_churn_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open churn file: " + path);
  return parse_churn_stream(in);
}

ChurnBatch make_random_churn(const Graph& g, int inserts, int removes, std::uint64_t seed) {
  if (removes > g.num_edges()) {
    throw std::invalid_argument("make_random_churn: graph has " + std::to_string(g.num_edges()) +
                                " edges, cannot remove " + std::to_string(removes));
  }
  Rng rng(seed);
  ChurnBatch batch;
  std::set<std::pair<NodeId, NodeId>> used;

  std::vector<EdgeId> removal_pool(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) removal_pool[static_cast<std::size_t>(e)] = e;
  rng.shuffle(removal_pool);
  for (int i = 0; i < removes; ++i) {
    const EdgeEndpoints& ep = g.endpoints(removal_pool[static_cast<std::size_t>(i)]);
    used.emplace(ep.u, ep.v);
    batch.remove(ep.u, ep.v);
  }

  // Absent pairs by rejection sampling; bounded so a near-complete graph
  // fails loudly instead of spinning.
  const std::int64_t max_draws =
      1024 + 64 * static_cast<std::int64_t>(inserts > 0 ? inserts : 1);
  std::int64_t draws = 0;
  int found = 0;
  while (found < inserts) {
    if (++draws > max_draws) {
      throw std::invalid_argument("make_random_churn: could not find " +
                                  std::to_string(inserts) + " absent pairs (graph too dense?)");
    }
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    if (u == v) continue;
    const std::pair<NodeId, NodeId> pair = u < v ? std::make_pair(u, v) : std::make_pair(v, u);
    if (used.count(pair) != 0) continue;
    if (g.find_edge(pair.first, pair.second) != kInvalidEdge) continue;
    used.insert(pair);
    batch.insert(pair.first, pair.second);
    ++found;
  }
  return batch;
}

std::size_t estimate_snapshot_bytes(const ChurnSnapshot& snapshot) {
  std::size_t bytes = sizeof(ChurnSnapshot);
  const Graph& g = snapshot.instance->graph;
  bytes += static_cast<std::size_t>(g.num_edges()) *
           (sizeof(EdgeEndpoints) + 2 * sizeof(Incidence));
  bytes += static_cast<std::size_t>(g.num_nodes() + 1) *
           (sizeof(std::size_t) + sizeof(std::uint64_t));
  for (const ColorList& list : snapshot.instance->lists) {
    bytes += sizeof(ColorList) + static_cast<std::size_t>(list.size()) * sizeof(Color);
  }
  bytes += snapshot.colors.size() * sizeof(Color);
  bytes += snapshot.policy.name.size();
  return bytes;
}

}  // namespace qplec
