// Bit-identity goldens for the four swap-chain entry points. Each case pins,
// at one thread, a 64-bit fingerprint of the output edge ORDER plus the
// per-iteration counters, so any drift in a family's seed stream, proposal
// rule, acceptance rule or permutation shows up here as a changed number.
// One more case checks that the chain asks for each pair's proposal once.

#include <gtest/gtest.h>
#include <omp.h>

#include <array>
#include <cstdint>
#include <vector>

#include "bipartite/bipartite.hpp"
#include "core/double_edge_swap.hpp"
#include "core/rewire.hpp"
#include "directed/directed_swap.hpp"
#include "skip/erdos_renyi.hpp"
#include "util/rng.hpp"

namespace nullgraph {
namespace {

/// Order-sensitive digest of a (first, second) sequence.
template <class List, class First, class Second>
std::uint64_t fingerprint(const List& items, First first, Second second) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& item : items) {
    std::uint64_t x = (std::uint64_t{first(item)} << 32) ^ second(item);
    h ^= splitmix64_next(x);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t edge_fingerprint(const EdgeList& edges) {
  return fingerprint(
      edges, [](const Edge& e) { return e.u; },
      [](const Edge& e) { return e.v; });
}

std::uint64_t arc_fingerprint(const ArcList& arcs) {
  return fingerprint(
      arcs, [](const Arc& a) { return a.from; },
      [](const Arc& a) { return a.to; });
}

/// (attempted, swapped, rejected_existing, rejected_loop) per iteration.
using Counters = std::array<std::size_t, 4>;

template <class Stats>
std::vector<Counters> counters_of(const Stats& stats) {
  std::vector<Counters> out;
  for (const auto& it : stats.iterations)
    out.push_back(
        {it.attempted, it.swapped, it.rejected_existing, it.rejected_loop});
  return out;
}

/// Random multigraph: endpoints drawn independently, so the input carries
/// self-loops and duplicates and the chain meets both rejection kinds.
EdgeList random_multigraph(std::uint64_t n, std::size_t m,
                           std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  EdgeList edges;
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.bounded(n));
    const auto v = static_cast<VertexId>(rng.bounded(n));
    edges.push_back({u, v});
  }
  return edges;
}

/// Random simple digraph on n vertices with up to m arcs.
ArcList random_digraph(std::uint64_t n, std::size_t m, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  ArcList arcs;
  std::vector<std::uint8_t> seen(n * n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto from = static_cast<VertexId>(rng.bounded(n));
    const auto to = static_cast<VertexId>(rng.bounded(n));
    if (from == to || seen[from * n + to] != 0) continue;
    seen[from * n + to] = 1;
    arcs.push_back({from, to});
  }
  return arcs;
}

/// Runs every case at one thread: the chain is reproducible per
/// (seed, thread count), and one thread is the pinned schedule.
class SwapChainGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = omp_get_max_threads();
    omp_set_num_threads(1);
  }
  void TearDown() override { omp_set_num_threads(saved_threads_); }

 private:
  int saved_threads_ = 1;
};

TEST_F(SwapChainGolden, SwapEdgesSimpleInput) {
  EdgeList edges = erdos_renyi(400, 0.03, 21);
  SwapConfig config;
  config.iterations = 4;
  config.seed = 22;
  const SwapStats stats = swap_edges(edges, config);
  EXPECT_EQ(edge_fingerprint(edges), 17629855499669886629u);
  EXPECT_EQ(counters_of(stats),
            (std::vector<Counters>{{1212, 1094, 111, 7},
                                   {1212, 1086, 121, 5},
                                   {1212, 1102, 106, 4},
                                   {1212, 1101, 104, 7}}));
}

TEST_F(SwapChainGolden, SwapEdgesMultigraphTracked) {
  EdgeList edges = random_multigraph(120, 900, 23);
  SwapConfig config;
  config.iterations = 5;
  config.seed = 24;
  config.track_swapped_edges = true;
  const SwapStats stats = swap_edges(edges, config);
  EXPECT_EQ(edge_fingerprint(edges), 12813713433401599605u);
  EXPECT_EQ(counters_of(stats),
            (std::vector<Counters>{{450, 307, 136, 7},
                                   {450, 286, 155, 9},
                                   {450, 303, 140, 7},
                                   {450, 308, 137, 5},
                                   {450, 299, 146, 5}}));
  EXPECT_EQ(stats.edges_ever_swapped, 896u);
  EXPECT_EQ(stats.iterations.front().input_self_loops, 5u);
  EXPECT_EQ(stats.iterations.front().input_multi_edges, 50u);
  EXPECT_EQ(stats.final_chain_state, 3326683750974675178u);
}

TEST_F(SwapChainGolden, DirectedSwapArcs) {
  ArcList arcs = random_digraph(200, 2500, 25);
  const DirectedSwapStats stats =
      directed_swap_arcs(arcs, {.iterations = 4, .seed = 26});
  EXPECT_EQ(arc_fingerprint(arcs), 3013426781489996119u);
  EXPECT_EQ(counters_of(stats),
            (std::vector<Counters>{{1210, 1005, 194, 11},
                                   {1210, 991, 203, 16},
                                   {1210, 963, 233, 14},
                                   {1210, 1006, 189, 15}}));
}

TEST_F(SwapChainGolden, BipartiteSwap) {
  // Left ids [0, 60), right ids [0, 90): arcs are (left, right) pairs.
  Xoshiro256ss rng(27);
  ArcList edges;
  std::vector<std::uint8_t> seen(60 * 90, 0);
  for (int i = 0; i < 1500; ++i) {
    const auto left = static_cast<VertexId>(rng.bounded(60));
    const auto right = static_cast<VertexId>(rng.bounded(90));
    if (seen[left * 90 + right] != 0) continue;
    seen[left * 90 + right] = 1;
    edges.push_back({left, right});
  }
  const std::size_t swapped = bipartite_swap(edges, 60, 4, 28);
  EXPECT_EQ(arc_fingerprint(edges), 3940745329987833897u);
  EXPECT_EQ(swapped, 1212u);
}

struct RewireCase {
  MixingTarget target;
  std::uint64_t fingerprint;
  std::vector<std::array<std::size_t, 2>> iterations;  // attempted, swapped
};

TEST_F(SwapChainGolden, RewireBothTargetsHalfBias) {
  const std::vector<RewireCase> cases = {
      {MixingTarget::kAssortative,
       6993703692790534374u,
       {{1205, 911}, {1205, 851}, {1205, 812}, {1205, 836}}},
      {MixingTarget::kDisassortative,
       14687728598660835746u,
       {{1205, 914}, {1205, 855}, {1205, 844}, {1205, 870}}},
  };
  for (const RewireCase& c : cases) {
    EdgeList edges = erdos_renyi(400, 0.03, 29);
    RewireConfig config;
    config.iterations = 4;
    config.seed = 30;
    config.bias = 0.5;
    config.target = c.target;
    const RewireStats stats = rewire_assortativity(edges, config);
    std::vector<std::array<std::size_t, 2>> iterations;
    for (const RewireIterationStats& it : stats.iterations)
      iterations.push_back({it.attempted, it.swapped});
    EXPECT_EQ(edge_fingerprint(edges), c.fingerprint);
    EXPECT_EQ(iterations, c.iterations);
  }
}

// The cases above fit in one 4096-pair chunk. These two span several pair
// and refill chunks, so every chunk boundary and chunk tail of the pair
// loop and the refill is on the pinned path.
TEST_F(SwapChainGolden, SwapEdgesMultiChunkTracked) {
  EdgeList edges = random_multigraph(500, 40000, 31);
  SwapConfig config;
  config.iterations = 3;
  config.seed = 32;
  config.track_swapped_edges = true;
  const SwapStats stats = swap_edges(edges, config);
  EXPECT_EQ(edge_fingerprint(edges), 6902709350907056176u);
  EXPECT_EQ(counters_of(stats),
            (std::vector<Counters>{{20000, 8108, 11804, 88},
                                   {20000, 7493, 12435, 72},
                                   {20000, 7227, 12695, 78}}));
  EXPECT_EQ(stats.edges_ever_swapped, 30453u);
  EXPECT_EQ(stats.final_chain_state, 13064056694810536094u);
}

TEST_F(SwapChainGolden, DirectedSwapArcsMultiChunk) {
  ArcList arcs = random_digraph(3000, 36000, 33);
  const DirectedSwapStats stats =
      directed_swap_arcs(arcs, {.iterations = 3, .seed = 34});
  EXPECT_EQ(arc_fingerprint(arcs), 14165371135828290114u);
  EXPECT_EQ(counters_of(stats),
            (std::vector<Counters>{{17968, 17739, 218, 11},
                                   {17968, 17721, 235, 12},
                                   {17968, 17716, 235, 17}}));
}

/// Test policy: swaps endpoints within the pair and counts how often the
/// chain asks for each pair's proposal.
struct CountingPartnering {
  using Item = Edge;
  static constexpr const char* kPhase = "swaps";
  static constexpr const char* kSpan = "swap iteration";
  std::vector<std::uint32_t>* calls = nullptr;

  void begin_iteration(std::uint64_t& seed_chain) {
    splitmix64_next(seed_chain);
  }
  void propose(std::size_t k, const Edge& e, const Edge& f, Edge& g,
               Edge& h) const {
    ++(*calls)[k];
    g = {e.u, f.v};
    h = {f.u, e.v};
  }
};

TEST_F(SwapChainGolden, ProposesEachPairExactlyOnceAtAnyThreadCount) {
  // The pair loop proposes ahead of the pair it tests; a proposal made
  // twice would double an expensive policy's cost (XBS sorts by degree).
  // 20001 pairs: five chunks, the last one a single pair.
  const EdgeList base = random_multigraph(500, 40003, 35);
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    EdgeList edges = base;
    std::vector<std::uint32_t> calls(edges.size() / 2, 0);
    SwapConfig config;
    config.iterations = 3;
    config.seed = 36;
    run_swap_chain(edges, config, CountingPartnering{.calls = &calls});
    for (std::size_t k = 0; k < calls.size(); ++k)
      ASSERT_EQ(calls[k], 3u) << "pair " << k << " at " << threads
                              << " threads";
  }
}

}  // namespace
}  // namespace nullgraph
