// Uniformity validation for the DIRECTED and BIPARTITE swap chains, in the
// style of test_uniformity: enumerate a tiny space of simple realizations
// exhaustively and check visit frequencies.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "bipartite/bipartite.hpp"
#include "core/null_model.hpp"
#include "directed/directed_swap.hpp"
#include "util/rng.hpp"

namespace nullgraph {
namespace {

std::string arc_signature(ArcList arcs) {
  std::vector<EdgeKey> keys;
  for (const Arc& a : arcs) keys.push_back(a.key());
  std::sort(keys.begin(), keys.end());
  std::string signature;
  for (EdgeKey k : keys) signature += std::to_string(k) + ",";
  return signature;
}

double chi_square(const std::map<std::string, int>& counts, int trials,
                  std::size_t cells) {
  const double expected = static_cast<double>(trials) / cells;
  double stat = 0.0;
  for (const auto& [sig, count] : counts) {
    const double diff = count - expected;
    stat += diff * diff / expected;
  }
  stat += expected * static_cast<double>(cells - counts.size());
  return stat;
}

TEST(DirectedUniformity, ThreeCycleIsAKnownFixedPoint) {
  // The classic irreducibility gap of directed 2-swaps (Erdős, Miklós &
  // Toroczkai): a directed 3-cycle cannot be reversed — every proposal
  // creates a self-loop. The chain must stay put (documented limitation;
  // the library's docs point users with 3-cycle-sensitive spaces at it).
  const std::string start = arc_signature({{0, 1}, {1, 2}, {2, 0}});
  for (int t = 0; t < 50; ++t) {
    ArcList arcs{{0, 1}, {1, 2}, {2, 0}};
    const DirectedSwapStats stats = directed_swap_arcs(
        arcs, {.iterations = 10,
               .seed = static_cast<std::uint64_t>(t) * 31 + 5});
    EXPECT_EQ(arc_signature(arcs), start);
    EXPECT_EQ(stats.total_swapped(), 0u);
  }
}

TEST(DirectedUniformity, ParallelChainOnDerangements4) {
  // in = out = 1 on 4 vertices: 9 simple digraphs (derangements of 4).
  // The PARALLEL chain pairs all four arcs every iteration and, on this
  // space, either both pairs commit or both reject — so it can only
  // compose two swaps at a time and never leaves the three
  // "product-of-2-cycles" states (reaching the six 4-cycles needs a lone
  // swap). Another documented small-space ergodicity artifact of the
  // all-pairs-parallel scheme; within its reachable class the chain is
  // uniform.
  const int trials = 9000;
  std::map<std::string, int> counts;
  for (int t = 0; t < trials; ++t) {
    ArcList arcs{{0, 1}, {1, 0}, {2, 3}, {3, 2}};
    directed_swap_arcs(arcs,
                       {.iterations = 30,
                        .seed = static_cast<std::uint64_t>(t) * 17 + 3});
    ++counts[arc_signature(std::move(arcs))];
  }
  EXPECT_EQ(counts.size(), 3u);
  // chi2(2 dof) at alpha ~ 1e-4 is about 18.4.
  EXPECT_LT(chi_square(counts, trials, 3), 18.4);
}

TEST(BipartiteUniformity, TwoByTwoCheckerboardIsParityPeriodic) {
  // Left (1,1) / right (1,1): the two perfect matchings. Every iteration
  // commits the unique swap (acceptance is 1 on permutation matrices), so
  // the chain alternates deterministically: fixed iteration counts land on
  // a single parity class. Pin the periodicity...
  const std::string start = arc_signature({{0, 0}, {1, 1}});
  for (int t = 0; t < 20; ++t) {
    ArcList even_edges{{0, 0}, {1, 1}};
    bipartite_swap(even_edges, 2, 20, static_cast<std::uint64_t>(t) + 1);
    EXPECT_EQ(arc_signature(std::move(even_edges)), start) << t;
    ArcList odd_edges{{0, 0}, {1, 1}};
    bipartite_swap(odd_edges, 2, 21, static_cast<std::uint64_t>(t) + 1);
    EXPECT_NE(arc_signature(std::move(odd_edges)), start) << t;
  }
}

TEST(BipartiteUniformity, ThreeMatchingsWithRandomizedParity) {
  // Left (1,1,1) / right (1,1,1): 6 matchings. One swap commits per
  // iteration (m = 3 -> one pair) and each flips permutation parity, so a
  // fixed horizon samples one parity class; alternating odd/even horizons
  // covers both classes, and the visit distribution must be uniform over
  // all 6 states.
  const int trials = 6000;
  std::map<std::string, int> counts;
  for (int t = 0; t < trials; ++t) {
    ArcList edges{{0, 0}, {1, 1}, {2, 2}};
    bipartite_swap(edges, 3, 24 + (t % 2),
                   static_cast<std::uint64_t>(t) * 7 + 2);
    ++counts[arc_signature(std::move(edges))];
  }
  EXPECT_EQ(counts.size(), 6u);
  // chi2(5) at 1e-4 ~ 25.7
  EXPECT_LT(chi_square(counts, trials, 6), 25.7);
}

TEST(TriangleReversal, UnsticksTheThreeCycle) {
  // With reversals in the mix, the two 3-cycle orientations interconvert
  // and are sampled uniformly — the gap pinned above, closed.
  const int trials = 4000;
  std::map<std::string, int> counts;
  for (int t = 0; t < trials; ++t) {
    ArcList arcs{{0, 1}, {1, 2}, {2, 0}};
    directed_swap_arcs_complete(
        arcs, {.iterations = 6,
               .seed = static_cast<std::uint64_t>(t) * 101 + 7});
    ++counts[arc_signature(std::move(arcs))];
  }
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_LT(chi_square(counts, trials, 2), 15.1);  // chi2(1) at 1e-4
}

TEST(TriangleReversal, PreservesDegreesAndSimplicity) {
  // A denser digraph with many triangles: reversals must fire and keep
  // every marginal exact.
  Xoshiro256ss rng(5);
  ArcList arcs;
  const std::size_t n = 60;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = 0; v < n; ++v)
      if (u != v && rng.uniform() < 0.2) arcs.push_back({u, v});
  const auto in_before = in_degrees_of(arcs, n);
  const auto out_before = out_degrees_of(arcs, n);
  const std::size_t reversed = reverse_directed_triangles(arcs, 9, 5000);
  EXPECT_GT(reversed, 0u);
  EXPECT_EQ(in_degrees_of(arcs, n), in_before);
  EXPECT_EQ(out_degrees_of(arcs, n), out_before);
  EXPECT_TRUE(is_simple(arcs));
}

TEST(TriangleReversal, NoTrianglesMeansNoChanges) {
  // Bipartite-style digraph (all arcs low -> high): triangle-free.
  ArcList arcs{{0, 5}, {1, 6}, {2, 7}, {0, 6}, {1, 7}};
  const ArcList before = arcs;
  EXPECT_EQ(reverse_directed_triangles(arcs, 3, 1000), 0u);
  EXPECT_TRUE(same_arc_multiset(arcs, before));
}

}  // namespace
}  // namespace nullgraph
