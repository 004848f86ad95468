#include "directed/directed_distribution.hpp"
#include "directed/directed_generators.hpp"
#include "directed/directed_swap.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <array>
#include <set>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace nullgraph {
namespace {

// --- Arc basics -----------------------------------------------------------

TEST(Arc, KeyIsOrdered) {
  EXPECT_NE((Arc{1, 2}.key()), (Arc{2, 1}.key()));
  EXPECT_EQ((Arc{1, 2}.key()), (Arc{1, 2}.key()));
}

TEST(Arc, LoopDetection) {
  EXPECT_TRUE((Arc{3, 3}.is_loop()));
  EXPECT_FALSE((Arc{3, 4}.is_loop()));
}

TEST(ArcCensus, CountsLoopsAndDuplicates) {
  const ArcList arcs{{0, 1}, {1, 0}, {0, 1}, {2, 2}};
  const ArcCensus result = census(arcs);
  EXPECT_EQ(result.self_loops, 1u);
  EXPECT_EQ(result.duplicate_arcs, 1u);  // second {0,1}; {1,0} is distinct
  EXPECT_FALSE(result.simple());
  EXPECT_TRUE(is_simple(ArcList{{0, 1}, {1, 0}}));
}

TEST(ArcDegrees, InAndOutSeparate) {
  const ArcList arcs{{0, 1}, {0, 2}, {2, 1}};
  EXPECT_EQ(out_degrees_of(arcs), (std::vector<std::uint64_t>{2, 0, 1}));
  EXPECT_EQ(in_degrees_of(arcs), (std::vector<std::uint64_t>{0, 2, 1}));
}

// --- DirectedDegreeDistribution --------------------------------------------

TEST(DirectedDistribution, MergesJointClasses) {
  const DirectedDegreeDistribution dist(
      {{1, 2, 3}, {1, 2, 2}, {2, 1, 5}});
  ASSERT_EQ(dist.num_classes(), 2u);
  EXPECT_EQ(dist.num_vertices(), 10u);
  EXPECT_EQ(dist.num_arcs(), 1u * 5 + 1u * 10);  // in totals
}

TEST(DirectedDistribution, ThrowsOnImbalancedTotals) {
  EXPECT_THROW(DirectedDegreeDistribution({{2, 1, 4}}),
               std::invalid_argument);
  EXPECT_NO_THROW(DirectedDegreeDistribution({{1, 1, 4}}));
}

TEST(DirectedDistribution, SequencesRoundTrip) {
  const std::vector<std::uint64_t> in{2, 0, 1};
  const std::vector<std::uint64_t> out{1, 1, 1};
  const auto dist = DirectedDegreeDistribution::from_sequences(in, out);
  EXPECT_EQ(dist.num_vertices(), 3u);
  EXPECT_EQ(dist.num_arcs(), 3u);
  // Sequences come back sorted by class, so compare as multisets.
  auto back_in = dist.in_sequence();
  auto back_out = dist.out_sequence();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
  for (std::size_t v = 0; v < 3; ++v) pairs.push_back({back_in[v], back_out[v]});
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                       {0, 1}, {1, 1}, {2, 1}}));
}

TEST(DirectedDistribution, FromArcs) {
  const ArcList arcs{{0, 1}, {0, 2}, {1, 2}};
  const auto dist = DirectedDegreeDistribution::from_arcs(arcs);
  EXPECT_EQ(dist.num_arcs(), 3u);
  EXPECT_EQ(dist.max_out_degree(), 2u);
  EXPECT_EQ(dist.max_in_degree(), 2u);
}

// --- Kleitman-Wang ----------------------------------------------------------

TEST(KleitmanWang, RealizesExactSequences) {
  const std::vector<std::uint64_t> in{1, 1, 1};
  const std::vector<std::uint64_t> out{1, 1, 1};
  const ArcList arcs = kleitman_wang(in, out);
  EXPECT_TRUE(is_simple(arcs));
  EXPECT_EQ(in_degrees_of(arcs, 3), in);
  EXPECT_EQ(out_degrees_of(arcs, 3), out);
}

TEST(KleitmanWang, CompleteDigraph) {
  // K4 directed both ways: in = out = 3 for 4 vertices.
  const std::vector<std::uint64_t> degrees(4, 3);
  const ArcList arcs = kleitman_wang(degrees, degrees);
  EXPECT_EQ(arcs.size(), 12u);
  EXPECT_TRUE(is_simple(arcs));
}

TEST(KleitmanWang, ThrowsOnNonDigraphical) {
  // One vertex wants out-degree 3 but only 2 other vertices accept arcs.
  EXPECT_THROW(kleitman_wang({0, 1, 2}, {3, 0, 0}), std::invalid_argument);
  EXPECT_THROW(kleitman_wang({1, 1}, {1, 0}), std::invalid_argument);
}

TEST(KleitmanWang, SelfLoopExclusionMatters) {
  // n=2, each wants in=1,out=1: only the 2-cycle works (no loops).
  const ArcList arcs = kleitman_wang({1, 1}, {1, 1});
  EXPECT_EQ(arcs.size(), 2u);
  EXPECT_TRUE(is_simple(arcs));
}

TEST(IsDigraphical, AgreesWithRandomDigraphDegrees) {
  Xoshiro256ss rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 20;
    ArcList arcs;
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v = 0; v < n; ++v)
        if (u != v && rng.uniform() < 0.15) arcs.push_back({u, v});
    EXPECT_TRUE(is_digraphical(in_degrees_of(arcs, n),
                               out_degrees_of(arcs, n)));
  }
}

TEST(IsDigraphical, ExhaustiveOracleN3) {
  // Enumerate all 2^6 simple digraphs on 3 vertices; a degree-pair profile
  // is digraphical iff some subset realizes it.
  std::set<std::array<std::uint64_t, 6>> realizable;
  const Arc all_arcs[6] = {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}};
  for (int mask = 0; mask < 64; ++mask) {
    std::array<std::uint64_t, 6> profile{};  // in0,in1,in2,out0,out1,out2
    for (int b = 0; b < 6; ++b) {
      if (mask & (1 << b)) {
        ++profile[all_arcs[b].to];
        ++profile[3 + all_arcs[b].from];
      }
    }
    realizable.insert(profile);
  }
  for (std::uint64_t i0 = 0; i0 <= 2; ++i0)
    for (std::uint64_t i1 = 0; i1 <= 2; ++i1)
      for (std::uint64_t i2 = 0; i2 <= 2; ++i2)
        for (std::uint64_t o0 = 0; o0 <= 2; ++o0)
          for (std::uint64_t o1 = 0; o1 <= 2; ++o1)
            for (std::uint64_t o2 = 0; o2 <= 2; ++o2) {
              if (i0 + i1 + i2 != o0 + o1 + o2) continue;
              const bool expected = realizable.contains(
                  {i0, i1, i2, o0, o1, o2});
              EXPECT_EQ(is_digraphical({i0, i1, i2}, {o0, o1, o2}), expected)
                  << i0 << i1 << i2 << "/" << o0 << o1 << o2;
            }
}

// --- Probabilities ----------------------------------------------------------

DirectedDegreeDistribution skewed_directed() {
  // Skewed joint distribution with matching totals.
  return DirectedDegreeDistribution({
      {1, 1, 500},
      {2, 1, 200},
      {1, 2, 200},
      {10, 4, 20},
      {4, 10, 20},
      {60, 60, 2},
  });
}

TEST(DirectedGreedyProbabilities, SolvesBothMarginals) {
  const DirectedDegreeDistribution dist = skewed_directed();
  const DirectedProbabilityMatrix P = directed_greedy_probabilities(dist);
  EXPECT_LE(P.max_value(), 1.0 + 1e-12);
  for (std::size_t c = 0; c < dist.num_classes(); ++c) {
    const double out_target =
        static_cast<double>(dist.class_at(c).out_degree);
    const double in_target = static_cast<double>(dist.class_at(c).in_degree);
    if (out_target > 0)
      EXPECT_NEAR(P.expected_out_degree(c, dist) / out_target, 1.0, 0.06)
          << "class " << c;
    if (in_target > 0)
      EXPECT_NEAR(P.expected_in_degree(c, dist) / in_target, 1.0, 0.06)
          << "class " << c;
  }
  EXPECT_NEAR(P.expected_arcs(dist) / static_cast<double>(dist.num_arcs()),
              1.0, 0.02);
}

// --- Edge skip ---------------------------------------------------------------

TEST(DirectedEdgeSkip, ProbabilityOneGivesAllOrderedPairs) {
  const DirectedDegreeDistribution dist({{3, 3, 4}});
  DirectedProbabilityMatrix P(1);
  P.set(0, 0, 1.0);
  const ArcList arcs = directed_edge_skip(P, dist);
  EXPECT_EQ(arcs.size(), 12u);  // 4*3 ordered non-loop pairs
  EXPECT_TRUE(is_simple(arcs));
}

TEST(DirectedEdgeSkip, CrossClassDirectionality) {
  // Arcs only from class 1 (ids 2..4) to class 0 (ids 0..1).
  const DirectedDegreeDistribution dist({{0, 2, 3}, {3, 0, 2}});
  // classes sort by out-degree: class 0 = (in 3, out 0) count 2 -> ids 0,1;
  // class 1 = (in 0, out 2) count 3 -> ids 2..4.
  DirectedProbabilityMatrix P(2);
  P.set(1, 0, 1.0);
  const ArcList arcs = directed_edge_skip(P, dist);
  EXPECT_EQ(arcs.size(), 6u);
  for (const Arc& a : arcs) {
    EXPECT_GE(a.from, 2u);
    EXPECT_LT(a.to, 2u);
  }
}

TEST(DirectedEdgeSkip, ExpectedCountWithinBounds) {
  const DirectedDegreeDistribution dist({{2, 2, 2000}});
  DirectedProbabilityMatrix P(1);
  const double p = 0.001;
  P.set(0, 0, p);
  const double space = 2000.0 * 1999.0;
  const double expect = p * space;
  const double sigma = std::sqrt(expect);
  const ArcList arcs = directed_edge_skip(P, dist, 5);
  EXPECT_NEAR(static_cast<double>(arcs.size()), expect, 5 * sigma);
  EXPECT_TRUE(is_simple(arcs));
}

TEST(DirectedEdgeSkip, NaNProbabilityYieldsNoArcsFromItsPair) {
  // A corrupted (NaN) entry must skip its pair rather than drive the
  // geometric skip through an undefined float->int conversion; the
  // healthy pair next to it still generates.
  const DirectedDegreeDistribution dist({{0, 2, 3}, {3, 0, 2}});
  DirectedProbabilityMatrix P(2);
  P.set(0, 1, std::numeric_limits<double>::quiet_NaN());
  P.set(1, 0, 1.0);
  const ArcList arcs = directed_edge_skip(P, dist);
  EXPECT_EQ(arcs.size(), 6u);
  for (const Arc& a : arcs) {
    EXPECT_GE(a.from, 2u);
    EXPECT_LT(a.to, 2u);
  }
}

// --- Swaps ---------------------------------------------------------------------

TEST(DirectedSwap, PreservesInAndOutDegreesExactly) {
  const DirectedDegreeDistribution dist = skewed_directed();
  ArcList arcs = kleitman_wang(dist.in_sequence(), dist.out_sequence());
  const std::size_t n = dist.num_vertices();
  const auto in_before = in_degrees_of(arcs, n);
  const auto out_before = out_degrees_of(arcs, n);
  const DirectedSwapStats stats =
      directed_swap_arcs(arcs, {.iterations = 5, .seed = 3});
  EXPECT_GT(stats.total_swapped(), 0u);
  EXPECT_EQ(in_degrees_of(arcs, n), in_before);
  EXPECT_EQ(out_degrees_of(arcs, n), out_before);
  EXPECT_TRUE(is_simple(arcs));
}

TEST(DirectedSwap, RewiresTopology) {
  const DirectedDegreeDistribution dist = skewed_directed();
  ArcList arcs = kleitman_wang(dist.in_sequence(), dist.out_sequence());
  const ArcList original = arcs;
  directed_swap_arcs(arcs, {.iterations = 2, .seed = 4});
  EXPECT_FALSE(same_arc_multiset(arcs, original));
}

TEST(DirectedSwap, StatsConsistent) {
  const DirectedDegreeDistribution dist = skewed_directed();
  ArcList arcs = kleitman_wang(dist.in_sequence(), dist.out_sequence());
  const DirectedSwapStats stats =
      directed_swap_arcs(arcs, {.iterations = 3, .seed = 5});
  for (const auto& it : stats.iterations) {
    EXPECT_EQ(it.attempted, arcs.size() / 2);
    EXPECT_EQ(it.attempted,
              it.swapped + it.rejected_existing + it.rejected_loop);
  }
}

TEST(DirectedSwap, IterationBudgetReportsOnlyCompletedIterations) {
  const DirectedDegreeDistribution dist = skewed_directed();
  ArcList arcs = kleitman_wang(dist.in_sequence(), dist.out_sequence());
  const std::size_t n = dist.num_vertices();
  const auto in_before = in_degrees_of(arcs, n);
  const auto out_before = out_degrees_of(arcs, n);
  const RunGovernor governor(RunBudget{.max_swap_iterations = 2},
                             CancelToken{});
  const DirectedSwapStats stats = directed_swap_arcs(
      arcs, {.iterations = 6, .seed = 7, .governor = &governor});
  EXPECT_EQ(stats.iterations.size(), 2u);
  EXPECT_EQ(stats.stop_reason, StatusCode::kDeadlineExceeded);
  for (const auto& it : stats.iterations)
    EXPECT_EQ(it.attempted, arcs.size() / 2);
  EXPECT_EQ(in_degrees_of(arcs, n), in_before);
  EXPECT_EQ(out_degrees_of(arcs, n), out_before);
  EXPECT_TRUE(is_simple(arcs));
}

// --- End-to-end ------------------------------------------------------------------

TEST(DirectedNullGraph, SimpleAndNearTargets) {
  const DirectedDegreeDistribution dist = skewed_directed();
  const ArcList arcs = generate_directed_null_graph(dist, 9, 3);
  EXPECT_TRUE(is_simple(arcs));
  const double m = static_cast<double>(dist.num_arcs());
  EXPECT_NEAR(static_cast<double>(arcs.size()), m, 0.05 * m);
  // Hub class (60, 60): realized in/out degrees of its 2 vertices should
  // land near 60 (expectation matching).
  const auto in_realized = in_degrees_of(arcs, dist.num_vertices());
  const auto out_realized = out_degrees_of(arcs, dist.num_vertices());
  const auto in_target = dist.in_sequence();
  double hub_in = 0, hub_out = 0;
  int hubs = 0;
  for (std::size_t v = 0; v < in_target.size(); ++v) {
    if (in_target[v] == 60) {
      hub_in += static_cast<double>(in_realized[v]);
      hub_out += static_cast<double>(out_realized[v]);
      ++hubs;
    }
  }
  ASSERT_EQ(hubs, 2);
  EXPECT_NEAR(hub_in / hubs, 60.0, 12.0);
  EXPECT_NEAR(hub_out / hubs, 60.0, 12.0);
}

TEST(DirectedNullGraph, DeterministicPerSeed) {
  // The swap phase resolves rare candidate collisions by atomic race, so
  // strict determinism is a single-thread contract (see README); pin it.
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const DirectedDegreeDistribution dist = skewed_directed();
  EXPECT_TRUE(same_arc_multiset(generate_directed_null_graph(dist, 1, 2),
                                generate_directed_null_graph(dist, 1, 2)));
  EXPECT_FALSE(same_arc_multiset(generate_directed_null_graph(dist, 1, 2),
                                 generate_directed_null_graph(dist, 2, 2)));
  omp_set_num_threads(saved_threads);
}

class DirectedSwapSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectedSwapSweep, InvariantsAcrossSeeds) {
  Xoshiro256ss rng(GetParam());
  ArcList arcs;
  const std::size_t n = 300;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = 0; v < n; ++v)
      if (u != v && rng.uniform() < 0.01) arcs.push_back({u, v});
  const auto in_before = in_degrees_of(arcs, n);
  const auto out_before = out_degrees_of(arcs, n);
  directed_swap_arcs(arcs, {.iterations = 4, .seed = GetParam() * 7 + 1});
  EXPECT_EQ(in_degrees_of(arcs, n), in_before);
  EXPECT_EQ(out_degrees_of(arcs, n), out_before);
  EXPECT_TRUE(is_simple(arcs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectedSwapSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nullgraph
