// Synchronous message-passing engine — the LOCAL model, executed literally.
//
// Nodes are programs that know only: the number of nodes n, the maximum
// degree Delta, their own unique identifier, their degree, and their ports
// (an arbitrary local numbering of incident links).  Computation proceeds in
// synchronous rounds; in each round every node may send one message of
// arbitrary size per port and receives the messages its neighbors sent in
// the same round.  This matches the model section of the paper exactly.
//
// The engine is used to run the primitive symmetry-breaking algorithms
// (color reduction, greedy-by-class) as genuine node programs; the
// higher-level recursion of the paper runs its edge-local passes on
// ExecBackend (src/dist/backend.hpp) and charges them to a RoundLedger, and
// a cross-check test asserts both execution paths agree where they overlap.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/graph.hpp"

namespace qplec {

/// A message is a sequence of 64-bit words (LOCAL allows unbounded size; the
/// engine records sizes so experiments can report bandwidth had the
/// algorithm run under CONGEST-style limits).
struct Message {
  std::vector<std::uint64_t> words;
};

/// Per-node view handed to the program each round.  Deliberately does NOT
/// expose dense node indices or the global graph: everything a program can
/// observe is information the LOCAL model grants.
class NodeContext {
 public:
  std::uint64_t my_id() const { return id_; }
  int degree() const { return static_cast<int>(inbox_.size()); }
  int num_nodes() const { return n_; }
  int max_graph_degree() const { return delta_; }
  int round() const { return round_; }

  /// Message received on `port` this round, or nullptr.  A slot counts as
  /// received only when its round stamp matches the current round: delivery
  /// stamps the slot, so a stale message from an earlier round is invisible
  /// without the engine ever clearing the inbox between rounds.
  const Message* received(int port) const {
    QPLEC_REQUIRE(port >= 0 && port < degree());
    const auto& slot = inbox_[static_cast<std::size_t>(port)];
    if (!slot.has_value()) return nullptr;
    if (inbox_round_[static_cast<std::size_t>(port)] != round_) return nullptr;
    return &*slot;
  }

  /// Queues a message for `port`; delivered to the neighbor next round.
  void send(int port, Message m) {
    QPLEC_REQUIRE(port >= 0 && port < degree());
    outbox_[static_cast<std::size_t>(port)] = std::move(m);
  }

  /// Sends the same payload on every port.
  void broadcast(Message m) {
    for (int p = 0; p < degree(); ++p) outbox_[static_cast<std::size_t>(p)] = m;
  }

  /// Declares this node finished; a finished node no longer takes steps.
  void finish() { done_ = true; }
  bool finished() const { return done_; }

 private:
  friend class Engine;
  std::uint64_t id_ = 0;
  int n_ = 0;
  int delta_ = 0;
  int round_ = 0;
  bool done_ = false;
  std::vector<std::optional<Message>> inbox_;
  std::vector<int> inbox_round_;  // round each inbox slot was delivered in
  std::vector<std::optional<Message>> outbox_;
};

/// A distributed node program.  One instance runs at every node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Round 0: no messages have been received yet; the program may send.
  virtual void init(NodeContext& ctx) = 0;

  /// Rounds 1, 2, ...: messages sent in the previous round are in the inbox.
  virtual void round(NodeContext& ctx) = 0;
};

/// Execution statistics.
struct EngineStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t words = 0;
  std::int64_t max_message_words = 0;
};

/// Runs one program instance per node until every node finished or
/// max_rounds elapsed.  The factory is called once per node with the dense
/// node index (engine-side bookkeeping only; the program never sees it).
class Engine {
 public:
  explicit Engine(const Graph& g) : g_(g) {}

  using ProgramFactory = std::function<std::unique_ptr<NodeProgram>(NodeId)>;

  /// Runs to completion.  Throws if max_rounds is exceeded (a LOCAL
  /// algorithm that fails to terminate is a bug, not a timeout).
  EngineStats run(const ProgramFactory& factory, std::int64_t max_rounds);

  /// Port p of node v connects to this neighbor (for decoding results in
  /// tests/examples; programs themselves never call this).
  NodeId port_neighbor(NodeId v, int port) const;

  /// Port p of node v lies on this edge.
  EdgeId port_edge(NodeId v, int port) const;

 private:
  const Graph& g_;
};

}  // namespace qplec
