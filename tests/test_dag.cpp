#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/common/random.hpp"
#include "src/graph/dag.hpp"

namespace rtlb {
namespace {

Dag diamond() {
  Dag g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Dag, BasicDegreesAndEdges) {
  Dag g = diamond();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(3), 2u);
  EXPECT_EQ(g.sources(), std::vector<std::uint32_t>{0});
  EXPECT_EQ(g.sinks(), std::vector<std::uint32_t>{3});
}

TEST(Dag, RejectsSelfLoopAndDuplicate) {
  Dag g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 0), ModelError);
  EXPECT_THROW(g.add_edge(0, 1), ModelError);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag g = diamond();
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(4);
  for (std::size_t k = 0; k < order->size(); ++k) pos[(*order)[k]] = k;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Dag, DetectsCycle) {
  Dag g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(g.topological_order().has_value());
  EXPECT_FALSE(g.is_acyclic());
}

TEST(Dag, EmptyGraphIsAcyclic) {
  Dag g(0);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_TRUE(g.sources().empty());
}

TEST(Dag, Reachability) {
  Dag g = diamond();
  auto reach = g.reachability();
  EXPECT_TRUE(reach.test(0, 3));
  EXPECT_TRUE(reach.test(0, 1));
  EXPECT_FALSE(reach.test(1, 2));
  EXPECT_FALSE(reach.test(3, 0));
  EXPECT_FALSE(reach.test(0, 0));  // strict reachability
}

TEST(Dag, LongestPathsAndCriticalPath) {
  Dag g = diamond();
  const std::vector<Time> w{1, 2, 5, 3};
  const auto into = g.longest_path_to(w);
  EXPECT_EQ(into[0], 1);
  EXPECT_EQ(into[1], 3);
  EXPECT_EQ(into[2], 6);
  EXPECT_EQ(into[3], 9);  // 0 -> 2 -> 3
  const auto from = g.longest_path_from(w);
  EXPECT_EQ(from[3], 3);
  EXPECT_EQ(from[1], 5);
  EXPECT_EQ(from[2], 8);
  EXPECT_EQ(from[0], 9);
  EXPECT_EQ(g.critical_path(w), 9);
}

TEST(Dag, Levels) {
  Dag g = diamond();
  const auto levels = g.levels();
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], 1u);
  EXPECT_EQ(levels[3], 2u);
}

TEST(Dag, GrowTo) {
  Dag g(2);
  g.grow_to(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  g.add_edge(0, 4);
  EXPECT_TRUE(g.has_edge(0, 4));
  g.grow_to(3);  // shrinking is a no-op
  EXPECT_EQ(g.num_vertices(), 5u);
}

TEST(Dag, TransitiveReductionDropsShortcuts) {
  Dag g = diamond();
  g.add_edge(0, 3);  // shortcut implied by 0->1->3
  const Dag reduced = g.transitive_reduction();
  EXPECT_EQ(reduced.num_edges(), 4u);
  EXPECT_FALSE(reduced.has_edge(0, 3));
  EXPECT_TRUE(reduced.has_edge(0, 1));
  EXPECT_TRUE(reduced.has_edge(2, 3));
}

TEST(Dag, TransitiveReductionPreservesReachability) {
  Dag g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(0, 3);  // redundant
  g.add_edge(3, 4);
  g.add_edge(1, 4);  // redundant
  g.add_edge(4, 5);
  g.add_edge(0, 5);  // redundant
  const Dag reduced = g.transitive_reduction();
  EXPECT_EQ(reduced.reachability(), g.reachability());
  EXPECT_EQ(reduced.num_edges(), 6u);  // exactly the three shortcuts dropped
  // Reducing a reduction is a fixed point.
  EXPECT_EQ(reduced.transitive_reduction().num_edges(), reduced.num_edges());
}

/// Random DAG: edges only from lower to higher ids, inserted in shuffled
/// order so adjacency lists are not sorted.
Dag random_dag(std::size_t n, double density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) {
      if (rng.chance(density)) edges.emplace_back(u, v);
    }
  }
  for (std::size_t k = edges.size(); k > 1; --k) {
    std::swap(edges[k - 1], edges[static_cast<std::size_t>(
                                rng.uniform(0, static_cast<std::int64_t>(k) - 1))]);
  }
  Dag g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

/// Test-local references: depth-first closure per vertex, and the reduction
/// straight from its definition.
std::vector<std::vector<bool>> naive_closure(const Dag& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::uint32_t s = 0; s < n; ++s) {
    std::vector<std::uint32_t> stack(g.successors(s).begin(), g.successors(s).end());
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      if (reach[s][v]) continue;
      reach[s][v] = true;
      for (std::uint32_t w : g.successors(v)) stack.push_back(w);
    }
  }
  return reach;
}

/// The historical Kahn order: re-sort the frontier before every pop.
std::vector<std::uint32_t> sorted_frontier_order(const Dag& g) {
  std::vector<std::uint32_t> indeg(g.num_vertices());
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.in_degree(v));
  }
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> frontier = g.sources();
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end(), std::greater<>{});
    const std::uint32_t v = frontier.back();
    frontier.pop_back();
    order.push_back(v);
    for (std::uint32_t w : g.successors(v)) {
      if (--indeg[w] == 0) frontier.push_back(w);
    }
  }
  return order;
}

TEST(DagProperty, BitsetClosureAndReductionMatchNaiveReferences) {
  // Sizes straddle the 64-bit word boundaries of the bitset rows.
  for (std::size_t n : {1u, 63u, 64u, 65u, 130u}) {
    for (double density : {0.02, 0.1, 0.4}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Dag g = random_dag(n, density, seed * 1000 + n);
        const std::string context = "n=" + std::to_string(n) + " density=" +
                                    std::to_string(density) + " seed=" + std::to_string(seed);
        const auto topo = g.topological_order();
        ASSERT_TRUE(topo.has_value()) << context;
        EXPECT_EQ(*topo, sorted_frontier_order(g)) << context;

        const auto want = naive_closure(g);
        const BitMatrix reach = g.reachability();
        ASSERT_EQ(reach.size(), n) << context;
        for (std::uint32_t u = 0; u < n; ++u) {
          for (std::uint32_t v = 0; v < n; ++v) {
            ASSERT_EQ(reach.test(u, v), want[u][v]) << context << " u=" << u << " v=" << v;
          }
        }

        // u -> v is redundant iff another successor of u reaches v; the
        // kept edges are added in the original adjacency order.
        Dag expect(n);
        for (std::uint32_t u = 0; u < n; ++u) {
          for (std::uint32_t v : g.successors(u)) {
            bool redundant = false;
            for (std::uint32_t w : g.successors(u)) redundant |= w != v && want[w][v];
            if (!redundant) expect.add_edge(u, v);
          }
        }
        const Dag reduced = g.transitive_reduction(*topo);
        EXPECT_EQ(reduced.num_edges(), expect.num_edges()) << context;
        for (std::uint32_t v = 0; v < n; ++v) {
          EXPECT_EQ(reduced.successors(v), expect.successors(v)) << context << " v=" << v;
          EXPECT_EQ(reduced.predecessors(v), expect.predecessors(v)) << context << " v=" << v;
        }
        EXPECT_EQ(reduced.reachability(), reach) << context;
        EXPECT_EQ(g.transitive_reduction().num_edges(), expect.num_edges()) << context;
      }
    }
  }
}

TEST(Dag, DotExportContainsAllEdges) {
  Dag g = diamond();
  const std::string dot = g.to_dot({"a", "b", "c", "d"});
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
}

}  // namespace
}  // namespace rtlb
