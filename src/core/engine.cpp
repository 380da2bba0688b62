#include "src/core/engine.hpp"

#include <algorithm>

#include "src/coloring/conflict.hpp"
#include "src/coloring/defective.hpp"
#include "src/coloring/greedy.hpp"
#include "src/coloring/validate.hpp"
#include "src/common/log.hpp"
#include "src/common/math.hpp"
#include "src/core/pass_timer.hpp"
#include "src/dist/reducer.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace qplec {

namespace {

ListStore engine_lists(const std::vector<ColorList>& lists) {
  const trace::Span span("engine-lists", "engine");
  return ListStore(lists);
}

}  // namespace

SolverEngine::SolverEngine(const Graph& g, const std::vector<ColorList>& lists, Color palette,
                           std::vector<std::uint64_t> phi, std::uint64_t phi_palette,
                           const Policy& policy, RoundLedger& ledger, SolverStats& stats,
                           int depth, const ExecBackend* exec, const ExecConfig& config,
                           const SolveControl* control, std::optional<ConflictView> line_graph)
    : g_(g),
      work_(engine_lists(lists)),
      palette_(palette),
      phi_(std::move(phi)),
      phi_palette_(phi_palette),
      policy_(policy),
      ledger_(ledger),
      stats_(stats),
      base_depth_(depth),
      exec_(exec != nullptr ? exec : &serial_backend()),
      config_(config),
      gate_(config.make_validation_gate()),
      control_(control),
      final_(static_cast<std::size_t>(g.num_edges()), kUncolored),
      cache_(line_graph ? std::move(*line_graph) : LineGraphConflict(g, EdgeSubset::all(g), exec_),
             final_, *exec_) {
  QPLEC_REQUIRE(work_.num_items() == g.num_edges());
  QPLEC_REQUIRE(phi_.size() == static_cast<std::size_t>(g.num_edges()));
  note_depth(depth);
}

bool SolverEngine::validation_due() {
  const bool due = gate_.due();
  if (due) {
    ++stats_.profile.validation_walks_run;
  } else {
    ++stats_.profile.validation_walks_skipped;
  }
  return due;
}

void SolverEngine::note_depth(int depth) {
  QPLEC_ASSERT_MSG(depth <= policy_.max_depth, "recursion depth guard tripped");
  stats_.max_depth = std::max(stats_.max_depth, depth);
}

EdgeColoring SolverEngine::solve() {
  if (g_.num_edges() > 0) {
    validate_entry();
    solve_no_slack(EdgeSubset::all(g_), base_depth_);
  }
  return finish_solve();
}

EdgeColoring SolverEngine::solve_relaxed_instance(double slack) {
  if (g_.num_edges() > 0) {
    validate_entry();
    solve_relaxed(EdgeSubset::all(g_), slack, 0, palette_, base_depth_);
  }
  return finish_solve();
}

void SolverEngine::validate_entry() {
  // Demoted entry walk: phi properness is re-checked by every primitive
  // that consumes it, and the final coloring is validated downstream.
  // Nothing is finalized yet, so the live rows are the full line graph.
  if (!validation_due()) return;
  const PassTimer timer(stats_.profile.validate_ms, "validate-entry");
  DeterministicReducer<char> proper(exec_->lanes(), 1);
  exec_->for_indices(g_.num_edges(), [&](int lane, int e) {
    for (const EdgeId f : cache_.live_row(e)) {
      if (phi_[static_cast<std::size_t>(e)] == phi_[static_cast<std::size_t>(f)]) {
        proper.lane(lane) = 0;
      }
    }
  });
  QPLEC_ASSERT_MSG(proper.all(), "phi is not a proper edge coloring");
}

EdgeColoring SolverEngine::finish_solve() {
  // Demoted exit walk: Solver::run validates the full solution against the
  // original instance unconditionally, so this engine-level sweep is a
  // redundant early tripwire worth sampling, not paying every solve.
  if (validation_due()) {
    const PassTimer timer(stats_.profile.validate_ms, "validate-final");
    std::string why;
    QPLEC_ASSERT_MSG(is_proper_edge_coloring(g_, final_, &why),
                     "engine output invalid: " << why);
  }
  stats_.cache_flushes += cache_.flushes();
  stats_.cache_deltas += cache_.deltas_noted();
  stats_.cache_colors_removed += cache_.colors_removed();
  // Fold this engine's cache telemetry into the process-wide series (once
  // per engine, off the hot path).
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& flushes = reg.counter("qplec_cache_flushes_total");
  static obs::Counter& deltas = reg.counter("qplec_cache_deltas_total");
  static obs::Counter& removed = reg.counter("qplec_cache_colors_removed_total");
  flushes.inc(static_cast<std::uint64_t>(cache_.flushes()));
  deltas.inc(static_cast<std::uint64_t>(cache_.deltas_noted()));
  removed.inc(static_cast<std::uint64_t>(cache_.colors_removed()));
  return final_;
}

int SolverEngine::max_induced_degree(const EdgeSubset& s) {
  DeterministicReducer<int> deg(exec_->lanes(), 0);
  exec_->for_members(s, [&](int lane, EdgeId e) {
    deg.lane(lane) = std::max(deg.lane(lane), cache_.induced_degree(lane, e, s));
  });
  return deg.max();
}

int SolverEngine::round_head(const EdgeSubset& H, const char* invariant,
                             std::vector<int>* degrees, std::optional<int> measured) {
  const bool validate = validation_due();
  // One superstep: the list refresh, the degree measurement and (when due)
  // the feasibility walk all read committed neighbor state and write only
  // e-owned state or lane-indexed accumulators, so they share one pass and
  // one round barrier.  The cache consumes only the colors of neighbors
  // finalized since each edge's previous sweep, which (removal being
  // idempotent) leaves exactly the list a full rescan would.
  ledger_.charge(1, "refresh-lists");
  ++stats_.profile.supersteps;
  const PassTimer profile_timer(stats_.profile.pass_ms, "superstep");
  const PassTimer timer(stats_.refresh_ms);
  cache_.flush();
  if (measured) {
    // Nothing finalized since `degrees` was measured over this H: the lists
    // are current, and only the gated assert reads the stored degrees.
    if (validate) {
      exec_->for_members(H, [&](int, EdgeId e) {
        QPLEC_ASSERT_MSG(work_.size(e) >= (*degrees)[static_cast<std::size_t>(e)] + 1,
                         invariant << " violated at edge " << e);
      });
    }
    return *measured;
  }
  // Before the first finalize nothing is left to consume, and over the full
  // edge set every row entry is in H: each degree is the row's length.
  const bool fresh = H.size() == g_.num_edges() && cache_.deltas_noted() == 0;
  DeterministicReducer<int> deg(exec_->lanes(), 0);
  exec_->for_members(H, [&](int lane, EdgeId e) {
    const int di =
        fresh ? cache_.live_degree_bound(e) : cache_.consume_and_count(lane, e, work_, H);
    deg.lane(lane) = std::max(deg.lane(lane), di);
    if (degrees != nullptr) (*degrees)[static_cast<std::size_t>(e)] = di;
    if (validate) {
      QPLEC_ASSERT_MSG(work_.size(e) >= di + 1, invariant << " violated at edge " << e);
    }
  });
  return deg.max();
}

int SolverEngine::relaxed_head(const EdgeSubset& A, double slack, Color lo, Color hi) {
  const bool validate = validation_due();
  ++stats_.profile.supersteps;
  const PassTimer profile_timer(stats_.profile.pass_ms, "relaxed-superstep");
  DeterministicReducer<int> deg(exec_->lanes(), 0);
  exec_->for_members(A, [&](int lane, EdgeId e) {
    const int di = cache_.induced_degree(lane, e, A);
    deg.lane(lane) = std::max(deg.lane(lane), di);
    if (!validate) return;
    // Entry invariant of P(dbar, S, C): |L_e| > slack * deg_A(e), lists
    // within [lo, hi).
    QPLEC_ASSERT(!work_.empty(e));
    QPLEC_ASSERT(work_.min(e) >= lo && work_.max(e) < hi);
    QPLEC_ASSERT_MSG(static_cast<double>(work_.size(e)) > slack * di - 1e-9,
                     "relaxed entry slack violated at edge " << e);
  });
  return deg.max();
}

template <typename ForEdges>
void SolverEngine::trivial_pick(ForEdges&& for_edges) {
  // Independent edges: everyone picks its smallest remaining color (the
  // first set bit of its window).
  ++stats_.trivial_picks;
  ledger_.charge(1, "trivial-pick");
  for_edges([&](int lane, EdgeId e) {
    final_[static_cast<std::size_t>(e)] = work_.min(e);
    cache_.note_finalized(lane, e);
  });
}

void SolverEngine::solve_basecase(const EdgeSubset& H, std::vector<int>* degrees,
                                  std::optional<int> measured) {
  const trace::Span span("basecase", "engine");
  checkpoint();
  ++stats_.basecase_calls;
  const int d = round_head(H, "base case feasibility", degrees, measured);
  const LineGraphConflict view(g_, H, exec_);
  solve_conflict_list(view, work_, phi_, phi_palette_, d, final_, ledger_, exec_, control_, &gate_,
                      config_.greedy_batch_quantum);
  // The whole subset finalized at once: record the deltas for the next
  // flush (lane queues concatenate to ascending id order either way).
  exec_->for_members(H, [&](int lane, EdgeId e) {
    QPLEC_ASSERT(final_[static_cast<std::size_t>(e)] != kUncolored);
    cache_.note_finalized(lane, e);
  });
}

void SolverEngine::solve_no_slack(EdgeSubset H, int depth) {
  note_depth(depth);
  int guard = 0;
  while (!H.empty()) {
    QPLEC_ASSERT_MSG(++guard <= 64, "no-slack outer loop failed to terminate");
    checkpoint();
    // Round head: refresh + degree measurement + (gated) the paper's
    // invariant that the current subgraph is a (deg+1)-list instance.  It
    // also keeps each edge's induced degree: the split finalizes nothing, so
    // these are the degrees at phase start that drive the activity test.
    std::vector<int> deg0(static_cast<std::size_t>(g_.num_edges()), 0);
    const int d = round_head(H, "(deg+1)-list invariant", &deg0);

    if (d <= policy_.base_degree_threshold) {
      solve_basecase(H, &deg0, d);  // nothing finalized since the head
      return;
    }

    const int beta = policy_.beta(d);
    ++stats_.defective_calls;
    const DefectiveColoring dc =
        defective_edge_coloring(g_, H, beta, phi_, phi_palette_, ledger_, exec_, &gate_);

    // The defect tightness statistic is pure telemetry: its per-edge defect
    // count is a neighborhood walk the validation tier may skip.  The ratio
    // folds through a per-lane max (order-invariant).
    if (validation_due()) {
      DeterministicReducer<double> defect_ratio(exec_->lanes(), stats_.max_defect_ratio);
      exec_->for_members(H, [&](int lane, EdgeId e) {
        const int defect = edge_defect(g_, H, dc.cls, e);
        if (defect > 0) {
          const double bound = static_cast<double>(deg0[static_cast<std::size_t>(e)]) /
                               (2.0 * static_cast<double>(beta));
          defect_ratio.lane(lane) =
              std::max(defect_ratio.lane(lane), static_cast<double>(defect) / bound);
        }
      });
      stats_.max_defect_ratio = defect_ratio.max();
    }

    std::vector<std::vector<EdgeId>> buckets(static_cast<std::size_t>(dc.num_classes));
    H.for_each([&](EdgeId e) {
      buckets[static_cast<std::size_t>(dc.cls[static_cast<std::size_t>(e)])].push_back(e);
    });

    stats_.classes_total += dc.num_classes;
    EdgeSubset in_class(g_.num_edges());  // the current class's bucket
    std::int64_t empty_slots = 0;
    for (int cls = 0; cls < dc.num_classes; ++cls) {
      const auto& bucket = buckets[static_cast<std::size_t>(cls)];
      if (bucket.empty()) {
        // A synchronous schedule still spends the marking round of this
        // class slot; bulk-charged below to keep the ledger cheap.
        ++empty_slots;
        continue;
      }
      ++stats_.classes_nonempty;
      checkpoint();
      auto scope = ledger_.sequential("defective-class");
      // Marking round: remove used neighbor colors, test |L_e| > deg(e)/2.
      // The pruning is e-local; the activity verdicts land in per-edge flags
      // and the subset is built serially from them (identical membership for
      // any lane layout).  The cache consumes only the deltas the previous
      // classes of this loop finalized; the same walk counts each edge's
      // live neighbors in the class, folded to a max over the active edges.
      ledger_.charge(1, "mark-active");
      std::vector<std::uint8_t> is_active(bucket.size(), 0);
      for (const EdgeId e : bucket) in_class.insert(e);
      DeterministicReducer<int> class_degree(exec_->lanes(), 0);
      {
        const PassTimer timer(stats_.refresh_ms, "mark-active");
        cache_.flush();
        // The bucket's edges lie far apart in id order, so every consume
        // would start with cache misses: the pass hints an edge's slots
        // 2*kAhead positions early and its row and words kAhead positions
        // early (hints only; they change no state).
        constexpr std::size_t kAhead = 8;
        exec_->for_indices(static_cast<int>(bucket.size()), [&](int lane, int t) {
          const std::size_t at = static_cast<std::size_t>(t);
          if (at + 2 * kAhead < bucket.size()) {
            cache_.prefetch(bucket[at + 2 * kAhead], 0);
            work_.prefetch(bucket[at + 2 * kAhead], 0);
          }
          if (at + kAhead < bucket.size()) {
            cache_.prefetch(bucket[at + kAhead], 1);
            work_.prefetch(bucket[at + kAhead], 1);
          }
          const EdgeId e = bucket[at];
          const int in_class_degree = cache_.consume_and_count(lane, e, work_, in_class);
          if (2 * work_.size(e) > deg0[static_cast<std::size_t>(e)]) {
            is_active[static_cast<std::size_t>(t)] = 1;
            class_degree.lane(lane) = std::max(class_degree.lane(lane), in_class_degree);
          }
        });
      }
      for (const EdgeId e : bucket) in_class.erase(e);
      if (class_degree.max() == 0) {
        // The active edges are independent: the slack-beta instance they
        // form has degree 0, which the recursion would color with one
        // trivial pick after re-walking their rows to find that out.
        if (std::find(is_active.begin(), is_active.end(), 1) != is_active.end()) {
          pick_independent_class(bucket, is_active, depth + 1);
        }
        continue;
      }
      EdgeSubset active(g_.num_edges());
      for (std::size_t t = 0; t < bucket.size(); ++t) {
        if (is_active[t]) active.insert(bucket[t]);
      }
      if (!active.empty()) {
        // Slack guarantee of Lemma 4.2 (asserted, gated): within the active
        // class subgraph, |L_e| > beta * deg'(e).  The activity test above
        // already enforced the half-degree bound the recursion needs; this
        // standalone walk re-derives the paper's stronger statement.
        if (validation_due()) {
          const PassTimer validate_timer(stats_.profile.validate_ms, "validate-slack");
          exec_->for_members(active, [&](int lane, EdgeId e) {
            const int dprime = cache_.induced_degree(lane, e, active);
            QPLEC_ASSERT_MSG(work_.size(e) > static_cast<std::int64_t>(beta) * dprime,
                             "slack guarantee violated: |L|=" << work_.size(e) << " beta="
                                                             << beta << " deg'=" << dprime);
          });
        }
        solve_relaxed(std::move(active), static_cast<double>(beta), 0, palette_, depth + 1);
      }
    }
    if (empty_slots > 0) ledger_.charge(empty_slots, "mark-active");

    // Uncolored edges recurse; the paper proves their induced degree halved.
    EdgeSubset next(g_.num_edges());
    H.for_each([&](EdgeId e) {
      if (final_[static_cast<std::size_t>(e)] == kUncolored) next.insert(e);
    });
    // Degree halving (asserted, gated): the measurement sweep exists only to
    // feed the assert — the next iteration's round head re-measures anyway.
    if (!next.empty() && validation_due()) {
      const PassTimer validate_timer(stats_.profile.validate_ms, "validate-halving");
      const int nd = max_induced_degree(next);
      QPLEC_ASSERT_MSG(2 * nd <= d, "degree halving violated: " << d << " -> " << nd);
    }
    H = std::move(next);
  }
}

void SolverEngine::pick_independent_class(const std::vector<EdgeId>& bucket,
                                          const std::vector<std::uint8_t>& is_active,
                                          int depth) {
  // The recursion's schedule, in its order: the validate-slack draw,
  // solve_relaxed's entry (depth, checkpoint) and its head's draw and
  // superstep.  With deg' = 0 both the Lemma 4.2 slack |L_e| > beta * deg'
  // and the relaxed entry invariant reduce to a nonempty list in range.
  const bool slack_due = validation_due();
  note_depth(depth);
  checkpoint();
  const bool entry_due = validation_due();
  const bool validate = slack_due || entry_due;
  ++stats_.profile.supersteps;
  trivial_pick([&](const auto& pick) {
    exec_->for_indices(static_cast<int>(bucket.size()), [&](int lane, int t) {
      if (!is_active[static_cast<std::size_t>(t)]) return;
      const EdgeId e = bucket[static_cast<std::size_t>(t)];
      if (validate) {
        QPLEC_ASSERT_MSG(!work_.empty(e) && work_.max(e) < palette_,
                         "independent class entry violated at edge " << e);
      }
      pick(lane, e);
    });
  });
}

void SolverEngine::solve_relaxed(EdgeSubset A, double slack, Color lo, Color hi, int depth) {
  note_depth(depth);
  if (A.empty()) return;
  QPLEC_REQUIRE(slack >= 1.0);
  checkpoint();

  const int d = relaxed_head(A, slack, lo, hi);

  if (d == 0) {
    trivial_pick([&](const auto& pick) { exec_->for_members(A, pick); });
    return;
  }
  if (d <= policy_.base_degree_threshold) {
    solve_basecase(A);
    return;
  }

  const int p = policy_.choose_p(slack, hi - lo, d);
  if (p == 0) {
    // The slack cannot pay for a space-reduction step (Lemma 4.3 requires
    // S >= 24*H_{2p}*log p); treat the instance as a (deg+1)-list problem.
    // Progress is still guaranteed: this path is only reached from Lemma 4.2
    // class subgraphs whose degree shrank by a 2*beta factor.
    ++stats_.noslack_fallbacks;
    solve_no_slack(std::move(A), depth + 1);
    return;
  }

  ++stats_.space_reductions;
  const std::vector<int> part_of = assign_subspaces(A, lo, hi, p, depth);
  const PalettePartition partition = PalettePartition::uniform(hi - lo, p);
  const double child_slack = std::max(1.0, slack / Policy::space_cost(p));

  // The q instances are independent (disjoint palettes) and run in parallel.
  std::vector<EdgeSubset> parts(static_cast<std::size_t>(partition.num_parts()),
                                EdgeSubset(g_.num_edges()));
  A.for_each([&](EdgeId e) {
    parts[static_cast<std::size_t>(part_of[static_cast<std::size_t>(e)])].insert(e);
  });
  auto par = ledger_.parallel("space-parts");
  for (int i = 0; i < partition.num_parts(); ++i) {
    if (parts[static_cast<std::size_t>(i)].empty()) continue;
    auto branch = ledger_.sequential("space-part");
    solve_relaxed(std::move(parts[static_cast<std::size_t>(i)]), child_slack,
                  lo + partition.part_begin(i), lo + partition.part_end(i), depth + 1);
  }
}

}  // namespace qplec
