#include "src/coloring/validate.hpp"

#include <gtest/gtest.h>

#include "src/coloring/conflict.hpp"
#include "src/graph/builder.hpp"
#include "src/graph/generators.hpp"

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

}  // namespace
}  // namespace qplec
