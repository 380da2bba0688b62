#include "src/local/engine.hpp"

#include <algorithm>

namespace qplec {

NodeId Engine::port_neighbor(NodeId v, int port) const {
  const auto inc = g_.incident(v);
  QPLEC_REQUIRE(port >= 0 && static_cast<std::size_t>(port) < inc.size());
  return inc[static_cast<std::size_t>(port)].neighbor;
}

EdgeId Engine::port_edge(NodeId v, int port) const {
  const auto inc = g_.incident(v);
  QPLEC_REQUIRE(port >= 0 && static_cast<std::size_t>(port) < inc.size());
  return inc[static_cast<std::size_t>(port)].edge;
}

EngineStats Engine::run(const ProgramFactory& factory, std::int64_t max_rounds) {
  const int n = g_.num_nodes();
  std::vector<std::unique_ptr<NodeProgram>> programs(static_cast<std::size_t>(n));
  std::vector<NodeContext> ctx(static_cast<std::size_t>(n));

  // For message routing we precompute, for every (node, port), the neighbor
  // and the port index our node occupies on the neighbor's side.
  std::vector<std::vector<std::pair<NodeId, int>>> route(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const auto inc = g_.incident(v);
    route[static_cast<std::size_t>(v)].resize(inc.size());
    for (std::size_t p = 0; p < inc.size(); ++p) {
      const NodeId w = inc[p].neighbor;
      const auto winc = g_.incident(w);
      int back_port = -1;
      for (std::size_t q = 0; q < winc.size(); ++q) {
        if (winc[q].edge == inc[p].edge) {
          back_port = static_cast<int>(q);
          break;
        }
      }
      QPLEC_ASSERT(back_port >= 0);
      route[static_cast<std::size_t>(v)][p] = {w, back_port};
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    auto& c = ctx[static_cast<std::size_t>(v)];
    c.id_ = g_.local_id(v);
    c.n_ = n;
    c.delta_ = g_.max_degree();
    c.round_ = 0;
    c.inbox_.assign(static_cast<std::size_t>(g_.degree(v)), std::nullopt);
    c.inbox_round_.assign(static_cast<std::size_t>(g_.degree(v)), 0);
    c.outbox_.assign(static_cast<std::size_t>(g_.degree(v)), std::nullopt);
    programs[static_cast<std::size_t>(v)] = factory(v);
    QPLEC_REQUIRE(programs[static_cast<std::size_t>(v)] != nullptr);
  }

  EngineStats stats;
  for (NodeId v = 0; v < n; ++v) {
    programs[static_cast<std::size_t>(v)]->init(ctx[static_cast<std::size_t>(v)]);
  }

  auto all_done = [&] {
    return std::all_of(ctx.begin(), ctx.end(),
                       [](const NodeContext& c) { return c.done_; });
  };

  while (!all_done()) {
    QPLEC_ASSERT_MSG(stats.rounds < max_rounds,
                     "engine exceeded " << max_rounds << " rounds — non-terminating program");
    ++stats.rounds;

    // Deliver: move outboxes into the peers' inboxes (synchronous barrier).
    // Delivery stamps every slot it fills with the current round, and
    // received() ignores any slot whose stamp is stale, so old messages are
    // never cleared.
    for (NodeId v = 0; v < n; ++v) {
      auto& c = ctx[static_cast<std::size_t>(v)];
      for (std::size_t p = 0; p < c.outbox_.size(); ++p) {
        auto& slot = c.outbox_[p];
        if (!slot.has_value()) continue;
        ++stats.messages;
        stats.words += static_cast<std::int64_t>(slot->words.size());
        stats.max_message_words = std::max(
            stats.max_message_words, static_cast<std::int64_t>(slot->words.size()));
        const auto [w, back_port] = route[static_cast<std::size_t>(v)][p];
        NodeContext& dest = ctx[static_cast<std::size_t>(w)];
        dest.inbox_[static_cast<std::size_t>(back_port)] = std::move(*slot);
        dest.inbox_round_[static_cast<std::size_t>(back_port)] =
            static_cast<int>(stats.rounds);
        slot.reset();
      }
    }

    // Step every unfinished node.
    for (NodeId v = 0; v < n; ++v) {
      auto& c = ctx[static_cast<std::size_t>(v)];
      if (c.done_) continue;
      c.round_ = static_cast<int>(stats.rounds);
      programs[static_cast<std::size_t>(v)]->round(c);
    }
  }
  return stats;
}

}  // namespace qplec
