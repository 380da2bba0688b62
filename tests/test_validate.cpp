#include "src/coloring/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/coloring/conflict.hpp"
#include "src/graph/builder.hpp"
#include "src/common/rng.hpp"
#include "src/graph/generators.hpp"
#include "tests/support/validate_oracle.hpp"

namespace qplec {
namespace {

TEST(Validate, ProperColoringPositive) {
  const Graph g = make_path(4);  // edges 0,1,2 in a line
  EdgeColoring colors{0, 1, 0};
  std::string why;
  EXPECT_TRUE(is_proper_edge_coloring(g, colors, &why)) << why;
}

TEST(Validate, ProperColoringNegativeConflict) {
  const Graph g = make_path(4);
  EdgeColoring colors{0, 0, 1};
  std::string why;
  EXPECT_FALSE(is_proper_edge_coloring(g, colors, &why));
  EXPECT_FALSE(why.empty());
}

TEST(Validate, ProperColoringNegativeUncolored) {
  const Graph g = make_path(3);
  EdgeColoring colors{0, kUncolored};
  EXPECT_FALSE(is_proper_edge_coloring(g, colors));
}

TEST(Validate, ProperColoringSizeMismatch) {
  const Graph g = make_path(4);
  EdgeColoring colors{0, 1};
  EXPECT_FALSE(is_proper_edge_coloring(g, colors));
}

TEST(Validate, ListComplianceNegative) {
  auto inst = make_two_delta_instance(make_path(4));
  EdgeColoring colors{0, 1, 0};
  EXPECT_TRUE(is_valid_list_coloring(inst, colors));
  inst.lists[1] = ColorList({0, 2, 3});  // removes color 1
  std::string why;
  EXPECT_FALSE(is_valid_list_coloring(inst, colors, &why));
  EXPECT_NE(why.find("not in its list"), std::string::npos);
}

TEST(Validate, ExpectValidSolutionThrows) {
  const auto inst = make_two_delta_instance(make_path(4));
  EdgeColoring bad{0, 0, 0};
  EXPECT_THROW(expect_valid_solution(inst, bad), InvariantViolation);
}

TEST(Validate, PartialColoringChecksOnlySubset) {
  const Graph g = make_path(5);  // edges 0..3
  EdgeColoring colors{0, 0, kUncolored, kUncolored};  // conflict at 0,1
  EdgeSubset sub(g.num_edges());
  sub.insert(2);
  sub.insert(3);
  EXPECT_TRUE(is_proper_partial(g, sub, colors));  // conflict outside subset
  sub.insert(0);
  sub.insert(1);
  EXPECT_FALSE(is_proper_partial(g, sub, colors));
}

TEST(Validate, PartialAllowsUncolored) {
  const Graph g = make_cycle(4);
  EdgeColoring colors(4, kUncolored);
  EXPECT_TRUE(is_proper_partial(g, EdgeSubset::all(g), colors));
}

TEST(Validate, DefectCounts) {
  const Graph g = make_star(4);  // 4 edges all mutually adjacent
  const EdgeSubset all = EdgeSubset::all(g);
  std::vector<int> cls{0, 0, 1, 0};
  EXPECT_EQ(edge_defect(g, all, cls, 0), 2);  // edges 1 and 3 share class 0
  EXPECT_EQ(edge_defect(g, all, cls, 2), 0);
  EXPECT_EQ(max_defect(g, all, cls), 2);
}

TEST(Validate, DefectRespectsSubset) {
  const Graph g = make_star(4);
  EdgeSubset sub(g.num_edges());
  sub.insert(0);
  sub.insert(1);
  std::vector<int> cls{0, 0, 0, 0};
  EXPECT_EQ(edge_defect(g, sub, cls, 0), 1);  // only edge 1 counted
}

TEST(Validate, ProperOnConflictView) {
  const ExplicitConflict view(4, {0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<int> good{0, 1, 0, 1};
  std::vector<int> bad{0, 0, 1, 0};
  EXPECT_TRUE(is_proper_on_conflict(view, good));
  EXPECT_FALSE(is_proper_on_conflict(view, bad));
}

// ------------------------------------------------- differential oracle ---

/// Smallest color free at both endpoints, edge by edge: a proper coloring
/// with colors below 2 * Delta - 1.
EdgeColoring greedy_coloring(const Graph& g) {
  EdgeColoring colors(static_cast<std::size_t>(g.num_edges()), kUncolored);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    std::vector<Color> used;
    g.for_each_edge_neighbor(e, [&](EdgeId f) {
      used.push_back(colors[static_cast<std::size_t>(f)]);
    });
    Color c = 0;
    while (std::find(used.begin(), used.end(), c) != used.end()) ++c;
    colors[static_cast<std::size_t>(e)] = c;
  }
  return colors;
}

/// The colorings the differential runs on one instance: valid, then every
/// kind of defect each checker reports, at random places.
std::vector<std::pair<std::string, EdgeColoring>> differential_colorings(
    const ListEdgeColoringInstance& inst, Rng& rng) {
  const Graph& g = inst.graph;
  const int m = g.num_edges();
  const EdgeColoring valid = greedy_coloring(g);
  std::vector<std::pair<std::string, EdgeColoring>> out{{"valid", valid}};
  const auto add = [&](const std::string& name, auto&& mutate) {
    EdgeColoring colors = valid;
    mutate(colors);
    out.emplace_back(name, std::move(colors));
  };
  const auto random_slot = [&] { return rng.next_below(static_cast<std::uint64_t>(m)); };
  const auto duplicate_at_random_node = [&](EdgeColoring& colors) {
    std::vector<NodeId> crowded;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) >= 2) crowded.push_back(v);
    }
    if (crowded.empty()) return;
    const auto inc = g.incident(crowded[rng.next_below(crowded.size())]);
    const std::size_t a = rng.next_below(inc.size());
    const std::size_t b = (a + 1 + rng.next_below(inc.size() - 1)) % inc.size();
    colors[static_cast<std::size_t>(inc[b].edge)] = colors[static_cast<std::size_t>(inc[a].edge)];
  };
  const auto uncolor_half = [&](EdgeColoring& colors) {
    for (Color& c : colors) {
      if (rng.next_bool(0.5)) c = kUncolored;
    }
  };
  const auto shift = [](Color by) {
    return [by](EdgeColoring& colors) {
      for (Color& c : colors) c += by;
    };
  };
  const auto negate = [](EdgeColoring& colors) {
    for (Color& c : colors) c = -2 - c;
  };
  const auto then_duplicate = [&](auto mutate) {
    return [&, mutate](EdgeColoring& colors) {
      mutate(colors);
      duplicate_at_random_node(colors);
    };
  };

  add("size mismatch (long)", [](EdgeColoring& c) { c.push_back(0); });
  if (m == 0) return out;
  add("size mismatch (short)", [](EdgeColoring& c) { c.pop_back(); });
  for (int i = 0; i < 3; ++i) add("duplicate " + std::to_string(i), duplicate_at_random_node);
  add("uncolored edge", [&](EdgeColoring& c) { c[random_slot()] = kUncolored; });
  add("uncolored half", uncolor_half);
  add("duplicate, then uncolored half", [&](EdgeColoring& c) {
    duplicate_at_random_node(c);
    uncolor_half(c);
  });
  add("off-list color", [&](EdgeColoring& c) {
    const std::uint64_t e = random_slot();
    c[e] = inst.palette_size + 1 + static_cast<Color>(e);
  });
  add("two off-list colors", [&](EdgeColoring& c) {
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t e = random_slot();
      c[e] = inst.palette_size + 1 + static_cast<Color>(e);
    }
  });
  add("off-list + duplicate",
      then_duplicate([&](EdgeColoring& c) { c[random_slot()] = inst.palette_size; }));
  const Color near_bound = 4 * m + 1000;
  add("near the stamp bound", shift(near_bound));
  add("near the stamp bound + duplicate", then_duplicate(shift(near_bound)));
  const Color huge = (Color{1} << 30) - 4 * m;
  add("colors up to 2^30", shift(huge));
  add("colors up to 2^30 + duplicate", then_duplicate(shift(huge)));
  add("one color of 2^30", [&](EdgeColoring& c) { c[random_slot()] = Color{1} << 30; });
  add("negative colors", negate);
  add("negative colors + duplicate", then_duplicate(negate));
  add("one negative color", [&](EdgeColoring& c) { c[random_slot()] = -7; });
  add("negative + uncolored", [&](EdgeColoring& c) {
    negate(c);
    c[random_slot()] = kUncolored;
  });
  return out;
}

// The per-node stamp kernel against the walks it replaced
// (tests/support/validate_oracle.hpp): the same verdict and the same `why`
// string from all three checkers, on a regular graph, a hub star, a
// power-law graph and empty graphs, for valid colorings and every defect
// they report, with the stamp table and the sort fallback both exercised.
TEST(Validate, StampKernelMatchesTheWalksItReplaced) {
  const std::vector<std::pair<std::string, Graph>> graphs{
      {"regular", make_random_regular(200, 7, 3)},
      {"star K_{1,300}", make_star(300)},
      {"power-law", make_power_law(400, 2.3, 40.0, 5)},
      {"empty", GraphBuilder(0).build()},
      {"edgeless", GraphBuilder(7).build()},
  };
  Rng rng(2024);
  int compared = 0;
  for (const auto& [graph_name, graph] : graphs) {
    const Color palette = static_cast<Color>(graph.max_edge_degree()) * 2 + 2;
    const ListEdgeColoringInstance inst =
        graph.num_edges() == 0 ? make_two_delta_instance(graph)
                               : make_random_list_instance(graph, palette, 11);
    // Random lists rarely hold the greedy colors; the list-membership
    // verdicts need both outcomes, so run the 2Delta-1 instance too.
    const std::vector<ListEdgeColoringInstance> instances{inst, make_two_delta_instance(graph)};
    for (const ListEdgeColoringInstance& instance : instances) {
      const Graph& g = instance.graph;
      for (const auto& [coloring_name, colors] : differential_colorings(instance, rng)) {
        const std::string tag = graph_name + " / " + coloring_name;
        std::string why = "untouched";
        std::string oracle_why = "untouched";
        EXPECT_EQ(is_proper_edge_coloring(g, colors, &why),
                  test_support::oracle_is_proper_edge_coloring(g, colors, &oracle_why))
            << tag;
        EXPECT_EQ(why, oracle_why) << tag;
        EXPECT_EQ(is_proper_edge_coloring(g, colors),
                  test_support::oracle_is_proper_edge_coloring(g, colors, nullptr))
            << tag;

        why = oracle_why = "untouched";
        EXPECT_EQ(is_valid_list_coloring(instance, colors, &why),
                  test_support::oracle_is_valid_list_coloring(instance, colors, &oracle_why))
            << tag;
        EXPECT_EQ(why, oracle_why) << tag;

        // The partial checker indexes colors by the subset's members only.
        if (colors.size() < static_cast<std::size_t>(g.num_edges())) continue;
        for (const double density : {0.05, 0.5, 1.0}) {
          EdgeSubset subset(g.num_edges());
          for (EdgeId e = 0; e < g.num_edges(); ++e) {
            if (rng.next_bool(density)) subset.insert(e);
          }
          why = oracle_why = "untouched";
          EXPECT_EQ(is_proper_partial(g, subset, colors, &why),
                    test_support::oracle_is_proper_partial(g, subset, colors, &oracle_why))
              << tag << " density " << density;
          EXPECT_EQ(why, oracle_why) << tag << " density " << density;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 100);
}

}  // namespace
}  // namespace qplec
