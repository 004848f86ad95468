// Failure-injection and extreme-input tests: boundary ids, degenerate
// distributions, capacity edges, and invalid-input error paths across
// modules — the inputs a downstream user will eventually feed us.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/double_edge_swap.hpp"
#include "core/null_model.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "ds/csr_graph.hpp"
#include "ds/degree_distribution.hpp"
#include "gen/chung_lu.hpp"
#include "gen/havel_hakimi.hpp"
#include "prob/heuristics.hpp"
#include "robustness/invariants.hpp"
#include "robustness/repair.hpp"
#include "robustness/status.hpp"
#include "skip/edge_skip.hpp"

namespace nullgraph {
namespace {

TEST(Robustness, LargeVertexIdsSurviveRoundTrips) {
  const VertexId big = 0xfffffff0u;
  const EdgeList edges{{big, big - 1}, {big - 2, big - 3}};
  EXPECT_TRUE(is_simple(edges));
  const SimplicityCensus c = census(edges);
  EXPECT_TRUE(c.simple());
  // degrees_of on such ids would need 16 GB; census/key paths must not.
  EXPECT_EQ(Edge::from_key(edges[0].key()), edges[0].canonical());
}

TEST(Robustness, SingleVertexDistributions) {
  // Degree 0, one vertex: trivially graphical, generates nothing.
  const DegreeDistribution dist({{0, 1}});
  EXPECT_TRUE(dist.is_graphical());
  const GenerateResult result = generate_null_graph(dist);
  EXPECT_TRUE(result.edges.empty());
}

TEST(Robustness, AllZeroDegrees) {
  const DegreeDistribution dist({{0, 1000}});
  EXPECT_EQ(dist.num_edges(), 0u);
  EXPECT_TRUE(generate_null_graph(dist).edges.empty());
  EXPECT_TRUE(havel_hakimi(dist).empty());
}

TEST(Robustness, TwoVerticesOneEdge) {
  const DegreeDistribution dist({{1, 2}});
  const GenerateResult result = generate_null_graph(dist);
  // The only simple realization is the single edge; swaps cannot break it.
  EXPECT_LE(result.edges.size(), 1u);
  EXPECT_TRUE(is_simple(result.edges));
  EXPECT_EQ(havel_hakimi(dist).size(), 1u);
}

TEST(Robustness, HugeDegreesInDistributionArithmetic) {
  // Stub totals near 2^40: moments must not overflow.
  const std::uint64_t d = 1ULL << 20;
  const DegreeDistribution dist({{d, 1ULL << 20}});
  EXPECT_EQ(dist.num_stubs(), 1ULL << 40);
  EXPECT_DOUBLE_EQ(dist.average_degree(), static_cast<double>(d));
  // d = n - ... not graphical? degree 2^20 among 2^20 vertices: max simple
  // degree is n-1 = 2^20 - 1 < d -> not graphical.
  EXPECT_FALSE(dist.is_graphical());
}

TEST(Robustness, ExactCapacityHashSet) {
  // Insert exactly expected_keys distinct keys twice; capacity math must
  // hold with zero headroom misjudgment.
  for (std::size_t keys : {1ul, 2ul, 15ul, 16ul, 17ul, 1023ul, 1024ul}) {
    ConcurrentHashSet set(keys);
    for (std::uint64_t k = 1; k <= keys; ++k)
      EXPECT_FALSE(set.test_and_set(k * 0x9e3779b97f4a7c15ULL | 1));
    for (std::uint64_t k = 1; k <= keys; ++k)
      EXPECT_TRUE(set.test_and_set(k * 0x9e3779b97f4a7c15ULL | 1));
  }
}

TEST(Robustness, SwapOddEdgeCountLeavesLastEdgeAlone) {
  EdgeList edges{{0, 1}, {2, 3}, {4, 5}};
  swap_edges(edges, {.iterations = 4, .seed = 1});
  EXPECT_EQ(edges.size(), 3u);
  EXPECT_TRUE(is_simple(edges));
}

TEST(Robustness, SwapAllMultiEdgeInput) {
  // Pathological input: m copies of the same edge. Swaps cannot fix a
  // 2-vertex multigraph (every proposal is a loop or duplicate), but must
  // not crash or lose edges.
  EdgeList edges(10, Edge{0, 1});
  swap_edges(edges, {.iterations = 5, .seed = 2});
  EXPECT_EQ(edges.size(), 10u);
  const auto degrees = degrees_of(edges);
  EXPECT_EQ(degrees[0] + degrees[1], 20u);
}

TEST(Robustness, EdgeSkipNearZeroProbability) {
  // p so small the first skip usually overshoots a big space: must not
  // hang, overflow, or emit out-of-range pairs.
  const DegreeDistribution dist({{2, 2'000'000}});
  ProbabilityMatrix P(1);
  P.set(0, 0, 1e-12);
  const EdgeList edges = edge_skip_generate(P, dist, {.seed = 3});
  for (const Edge& e : edges) {
    EXPECT_LT(e.u, 2'000'000u);
    EXPECT_LT(e.v, 2'000'000u);
  }
  EXPECT_LT(edges.size(), 100u);  // expectation = 2e-12 * 2e12 = 2
}

TEST(Robustness, EdgeSkipProbabilityAboveOneClamps) {
  // clamp() guards the generators, but edge_skip itself must also treat
  // p >= 1 as "take everything" rather than looping.
  const DegreeDistribution dist({{2, 50}});
  ProbabilityMatrix P(1);
  P.set(0, 0, 1.5);
  EXPECT_EQ(edge_skip_generate(P, dist).size(), 50u * 49u / 2u);
}

TEST(Robustness, ChungLuZeroEdgeDistributionReturnsEmpty) {
  // All weight on vertices with degree 0: m = 0, nothing to draw.
  const DegreeDistribution dist({{0, 10}});
  EXPECT_TRUE(chung_lu_multigraph(dist).empty());
  EXPECT_TRUE(erased_chung_lu(dist).empty());
  EXPECT_TRUE(bernoulli_chung_lu(dist).empty());
}

TEST(Robustness, GreedyProbabilitiesDegenerateInputs) {
  // Single vertex with nonzero degree is not realizable (no partner);
  // the solver must not crash and diagnostics must expose the residual.
  const DegreeDistribution dist({{2, 1}});
  const ProbabilityMatrix P = greedy_probabilities(dist);
  const ProbabilityDiagnostics diag = diagnose(P, dist);
  EXPECT_EQ(diag.max_relative_degree_error, 1.0);  // nothing allocatable
}

TEST(Robustness, CsrGraphSingleVertexSelfLoop) {
  const CsrGraph graph(EdgeList{{0, 0}});
  EXPECT_EQ(graph.num_vertices(), 1u);
  EXPECT_EQ(graph.degree(0), 2u);
  EXPECT_TRUE(graph.has_edge(0, 0));
}

TEST(Robustness, GenerateForSequenceAllEqualDegrees) {
  const std::vector<std::uint64_t> degrees(64, 3);
  const GenerateResult result = generate_for_sequence(degrees);
  EXPECT_TRUE(is_simple(result.edges));
  const auto realized = degrees_of(result.edges, 64);
  double mean = 0;
  for (auto d : realized) mean += static_cast<double>(d);
  EXPECT_NEAR(mean / 64.0, 3.0, 0.75);
}

TEST(Robustness, ShuffleGraphWithLoopsAndDuplicatesImproves) {
  // shuffle_graph on a dirty input: simplicity violations cannot increase.
  EdgeList dirty{{0, 0}, {1, 2}, {1, 2}, {3, 4}, {5, 6}, {7, 8}, {2, 3}};
  const SimplicityCensus before = census(dirty);
  GenerateConfig config;
  config.seed = 5;
  config.swap_iterations = 20;
  const GenerateResult result = shuffle_graph(std::move(dirty), config);
  const SimplicityCensus after = census(result.edges);
  EXPECT_LE(after.self_loops + after.multi_edges,
            before.self_loops + before.multi_edges);
}

// ---------------------------------------------------------------------------
// Typed status layer

TEST(StatusLayer, CodeNamesAndExitCodesAreStable) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "kOk");
  EXPECT_STREQ(status_code_name(StatusCode::kNotGraphical), "kNotGraphical");
  EXPECT_STREQ(status_code_name(StatusCode::kSwapStagnation),
               "kSwapStagnation");
  // The CLI exit-code contract documented in README.
  EXPECT_EQ(status_exit_code(StatusCode::kOk), 0);
  EXPECT_EQ(status_exit_code(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(status_exit_code(StatusCode::kInternal), 2);
  EXPECT_EQ(status_exit_code(StatusCode::kIoError), 3);
  EXPECT_EQ(status_exit_code(StatusCode::kIoMalformed), 4);
  EXPECT_EQ(status_exit_code(StatusCode::kNotGraphical), 5);
  EXPECT_EQ(status_exit_code(StatusCode::kProbabilityOverflow), 6);
  EXPECT_EQ(status_exit_code(StatusCode::kNonSimpleOutput), 7);
  EXPECT_EQ(status_exit_code(StatusCode::kDegreeMismatch), 8);
  EXPECT_EQ(status_exit_code(StatusCode::kSwapStagnation), 9);
  EXPECT_EQ(status_exit_code(StatusCode::kConnectivityExhausted), 10);
  EXPECT_EQ(status_exit_code(StatusCode::kRepairIncomplete), 11);
}

TEST(StatusLayer, ResultHoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad(Status(StatusCode::kIoMalformed, "nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoMalformed);
  EXPECT_THROW((void)std::move(bad).take(), StatusError);
}

TEST(StatusLayer, StatusErrorIsARuntimeError) {
  try {
    throw StatusError(Status(StatusCode::kNotGraphical, "odd stubs"));
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("kNotGraphical"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Invariant checkers

TEST(Invariants, GraphicalGate) {
  EXPECT_TRUE(check_graphical(DegreeDistribution({{2, 4}})).ok());
  // One vertex of degree 4 among 3 vertices: d > n-1, not graphical.
  const DegreeDistribution bad({{4, 1}, {1, 2}});
  EXPECT_EQ(check_graphical(bad).code(), StatusCode::kNotGraphical);
}

TEST(Invariants, ProbabilityBounds) {
  const DegreeDistribution dist({{2, 4}});
  ProbabilityMatrix P(1);
  P.set(0, 0, 0.5);
  EXPECT_TRUE(check_probability_matrix(P, dist).ok());
  P.set(0, 0, 1.5);
  EXPECT_EQ(check_probability_matrix(P, dist).code(),
            StatusCode::kProbabilityOverflow);
  P.set(0, 0, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(check_probability_matrix(P, dist).code(),
            StatusCode::kProbabilityOverflow);
}

TEST(Invariants, SimplicityAndDegreePreservation) {
  const EdgeList clean{{0, 1}, {2, 3}};
  EXPECT_TRUE(check_simple(clean).ok());
  const EdgeList dirty{{0, 1}, {0, 1}, {2, 2}};
  EXPECT_EQ(check_simple(dirty).code(), StatusCode::kNonSimpleOutput);

  const auto degrees = degrees_of(clean, 4);
  EXPECT_TRUE(check_degrees_preserved(degrees, clean).ok());
  EXPECT_EQ(check_degrees_preserved(degrees, EdgeList{{0, 1}}).code(),
            StatusCode::kDegreeMismatch);
}

// ---------------------------------------------------------------------------
// Repair pass

TEST(Repair, ErasesLoopsAndDuplicatesAndPatchesDeficit) {
  // Target: the clean 3-regular-ish graph below. Damage it with a loop,
  // a duplicate, and a dropped edge, then demand full restoration.
  const EdgeList clean{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}};
  const auto target = degrees_of(clean, 4);
  EdgeList damaged = clean;
  damaged.pop_back();                // drop {1,3}: deficit at 1 and 3
  damaged.push_back({2, 2});         // self-loop
  damaged.push_back({0, 1});         // duplicate
  const RepairStats stats = repair_to_degrees(damaged, target, 7);
  EXPECT_TRUE(stats.complete());
  EXPECT_EQ(stats.loops_erased, 1u);
  EXPECT_EQ(stats.duplicates_erased, 1u);
  EXPECT_TRUE(is_simple(damaged));
  EXPECT_EQ(degrees_of(damaged, 4), target);
}

TEST(Repair, ShedsSurplusBackToTarget) {
  const EdgeList clean{{0, 1}, {2, 3}};
  const auto target = degrees_of(clean, 4);
  // Extra simple edges push 0 and 2 over target.
  EdgeList damaged{{0, 1}, {2, 3}, {0, 2}};
  const RepairStats stats = repair_to_degrees(damaged, target, 11);
  EXPECT_TRUE(stats.complete());
  EXPECT_GE(stats.surplus_edges_removed, 1u);
  EXPECT_TRUE(is_simple(damaged));
  EXPECT_EQ(degrees_of(damaged, 4), target);
}

TEST(Repair, UsesTargetedRewireWhenDirectEdgeWouldDuplicate) {
  // K4 minus edge {0,1}... actually: deficit stubs at 0 and 1 but {0,1}
  // already exists, so the pass must route through an existing edge.
  EdgeList edges{{0, 1}, {2, 3}, {2, 4}, {3, 4}};
  std::vector<std::uint64_t> target = degrees_of(edges, 5);
  ++target[0];
  ++target[1];
  const RepairStats stats = repair_to_degrees(edges, target, 13);
  EXPECT_TRUE(stats.complete());
  EXPECT_GE(stats.rewired_patches, 1u);
  EXPECT_TRUE(is_simple(edges));
  EXPECT_EQ(degrees_of(edges, 5), target);
}

TEST(Repair, ReportsResidualInsteadOfLooping) {
  // Two vertices, target degree 2 each, only edge space {0,1}: one stub
  // pair placeable, the rest must come back as residual, not a hang.
  EdgeList edges;
  const std::vector<std::uint64_t> target{2, 2};
  const RepairStats stats = repair_to_degrees(edges, target, 17);
  EXPECT_FALSE(stats.complete());
  EXPECT_GT(stats.residual_deficit, 0u);
  EXPECT_TRUE(is_simple(edges));
}

TEST(Repair, SanitizeProbabilitiesFixesPoisonedEntries) {
  ProbabilityMatrix P(2);
  P.set(0, 0, 0.5);
  P.set(1, 0, 3.0);
  P.set(1, 1, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(sanitize_probabilities(P), 2u);
  EXPECT_DOUBLE_EQ(P.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(P.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(P.at(1, 1), 0.0);
}

// ---------------------------------------------------------------------------
// Pipeline guardrails (no faults): report populated, strict gates inputs

TEST(Guardrails, DefaultReportRecordsCleanPhases) {
  const DegreeDistribution dist({{2, 50}, {4, 10}});
  const GenerateResult result = generate_null_graph(dist);
  EXPECT_TRUE(result.report.ok());
  EXPECT_TRUE(result.report.first_error().ok());
  // input, probabilities, edge generation, swaps, degrees
  EXPECT_EQ(result.report.checks.size(), 5u);
  EXPECT_FALSE(result.report.summary().empty());
}

TEST(Guardrails, PolicyOffSkipsChecksEntirely) {
  const DegreeDistribution dist({{2, 50}});
  GenerateConfig config;
  config.guardrails.policy = RecoveryPolicy::kOff;
  const GenerateResult result = generate_null_graph(dist, config);
  EXPECT_TRUE(result.report.checks.empty());
}

TEST(Guardrails, StrictRejectsNonGraphicalInput) {
  // One vertex of degree 4 among 3 vertices: d > n-1, not graphical.
  const DegreeDistribution worse({{4, 1}, {1, 2}});
  ASSERT_FALSE(worse.is_graphical());
  GenerateConfig config;
  config.guardrails.policy = RecoveryPolicy::kStrict;
  try {
    generate_null_graph(worse, config);
    FAIL() << "expected StatusError";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), StatusCode::kNotGraphical);
  }
}

TEST(Guardrails, CheckedVariantReturnsTypedErrorInsteadOfThrowing) {
  const DegreeDistribution worse({{4, 1}, {1, 2}});
  GenerateConfig config;
  config.guardrails.policy = RecoveryPolicy::kStrict;
  const auto result = generate_null_graph_checked(worse, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotGraphical);

  const auto good = generate_null_graph_checked(DegreeDistribution({{2, 40}}));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(is_simple(good.value().edges));
}

TEST(Guardrails, ShuffleReportsStagnationOnUnfixableInput) {
  // 2-vertex multigraph: every proposal is a loop or duplicate, so the
  // chain stalls and the report must say so (typed, not silent).
  EdgeList edges(6, Edge{0, 1});
  GenerateConfig config;
  config.swap_iterations = 4;
  const GenerateResult result = shuffle_graph(std::move(edges), config);
  EXPECT_FALSE(result.report.ok());
  EXPECT_EQ(result.report.first_error().code(), StatusCode::kSwapStagnation);
}

}  // namespace
}  // namespace nullgraph
