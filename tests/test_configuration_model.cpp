#include "gen/configuration_model.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>

#include "gen/datasets.hpp"
#include "robustness/governance.hpp"
#include "util/rng.hpp"

namespace nullgraph {
namespace {

TEST(ConfigurationMultigraph, ExactDegreeSequence) {
  const DegreeDistribution dist({{1, 100}, {3, 40}, {10, 5}});
  const EdgeList edges = configuration_multigraph(dist, 7);
  EXPECT_EQ(edges.size(), dist.num_edges());
  const auto degrees = degrees_of(edges, dist.num_vertices());
  const auto target = dist.to_degree_sequence();
  for (std::size_t v = 0; v < target.size(); ++v)
    EXPECT_EQ(degrees[v], target[v]);
}

TEST(ConfigurationMultigraph, DifferentSeedsDiffer) {
  const DegreeDistribution dist({{2, 200}});
  EXPECT_FALSE(same_edge_multiset(configuration_multigraph(dist, 1),
                                  configuration_multigraph(dist, 2)));
}

TEST(ErasedConfiguration, SimpleOutput) {
  const DegreeDistribution dist({{1, 100}, {3, 40}, {10, 5}});
  const EdgeList edges = erased_configuration(dist, 7);
  EXPECT_TRUE(is_simple(edges));
  EXPECT_LE(edges.size(), dist.num_edges());
}

TEST(RepeatedConfiguration, SucceedsOnSparseEasyInput) {
  // Low density, flat degrees: simple outcome is likely within attempts.
  const DegreeDistribution dist({{2, 500}});
  const auto result = repeated_configuration(dist, 3, 200);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(is_simple(*result));
  EXPECT_EQ(result->size(), dist.num_edges());
}

TEST(RepeatedConfiguration, FailsOnSkewedInput) {
  // Section II-B: expected multi-edges > 1 makes success vanishing; with a
  // scaled as20-like input and few attempts the model gives up.
  const DegreeDistribution dist = as20_like();
  const auto result = repeated_configuration(dist, 3, 5);
  EXPECT_FALSE(result.has_value());
}

TEST(ConfigurationMultigraph, SkewedInputsProduceMultiEdges) {
  // The motivating observation: skewed degrees make collisions common.
  const DegreeDistribution dist = as20_like();
  const SimplicityCensus result = census(configuration_multigraph(dist, 11));
  EXPECT_GT(result.multi_edges + result.self_loops, 0u);
}

/// Order-sensitive digest of an edge list.
std::uint64_t edge_fingerprint(const EdgeList& edges) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : edges) {
    std::uint64_t x = (std::uint64_t{e.u} << 32) ^ e.v;
    h ^= splitmix64_next(x);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ConfigurationMultigraph, PinnedOutputAtOneAndFourThreads) {
  // The stub shuffle is the Knuth shuffle for stateless (seed, i) targets,
  // so the pairing is the same at any thread count and pinned here.
  const DegreeDistribution dist = as20_like();
  const int saved_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    EXPECT_EQ(edge_fingerprint(configuration_multigraph(dist, 13)),
              1848762975362867958u)
        << threads << " threads";
  }
  omp_set_num_threads(saved_threads);
}

TEST(ConfigurationMultigraph, StoppedGovernorSkipsTheShuffle) {
  // A run stopped before the call pairs the stubs in fill order: vertex v's
  // stubs sit next to each other, so every degree-2 vertex gets a loop.
  const DegreeDistribution dist({{2, 50}});
  RunGovernor governor;
  governor.note_stop(StatusCode::kCancelled);
  const EdgeList edges = configuration_multigraph(dist, 5, &governor);
  ASSERT_EQ(edges.size(), 50u);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(edges[e].u, static_cast<VertexId>(e));
    EXPECT_EQ(edges[e].v, static_cast<VertexId>(e));
  }
}

}  // namespace
}  // namespace nullgraph
