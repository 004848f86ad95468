#include "core/rewire.hpp"

#include <algorithm>
#include <array>

#include "core/swap_chain.hpp"
#include "util/rng.hpp"

namespace nullgraph {

namespace {

/// Xulvi-Brunet & Sokolov biased partnering: with probability `bias` pair
/// k re-pairs its four endpoints by degree toward the target mixing,
/// otherwise it takes the uniform coin partnering. A pair already in the
/// target configuration proposes its own edges, which the chain rejects
/// as existing.
struct BiasedPartnering {
  using Item = Edge;
  static constexpr const char* kPhase = "rewire";
  static constexpr const char* kSpan = "rewire iteration";
  const std::vector<std::uint64_t>* degree = nullptr;
  double bias = 1.0;
  MixingTarget target = MixingTarget::kAssortative;
  std::uint64_t pair_seed = 0;

  void begin_iteration(std::uint64_t& seed_chain) {
    pair_seed = splitmix64_next(seed_chain);
  }
  void propose(std::size_t k, const Edge& e, const Edge& f, Edge& g,
               Edge& h) const {
    std::uint64_t state = pair_seed ^ (k * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t randomness = splitmix64_next(state);
    if ((static_cast<double>(randomness >> 11) * 0x1.0p-53) >= bias) {
      // Uniform proposal, as in plain swap_edges.
      if (randomness & 1) {
        g = {e.u, f.u};
        h = {e.v, f.v};
      } else {
        g = {e.u, f.v};
        h = {e.v, f.u};
      }
      return;
    }
    // Sort the four endpoints by degree (ties by id for determinism).
    const std::vector<std::uint64_t>& deg = *degree;
    std::array<VertexId, 4> vs{e.u, e.v, f.u, f.v};
    std::sort(vs.begin(), vs.end(), [&](VertexId a, VertexId b) {
      if (deg[a] != deg[b]) return deg[a] < deg[b];
      return a < b;
    });
    if (target == MixingTarget::kAssortative) {
      // Two lowest together, two highest together.
      g = {vs[0], vs[1]};
      h = {vs[2], vs[3]};
    } else {
      // Lowest with highest, middle pair together.
      g = {vs[0], vs[3]};
      h = {vs[1], vs[2]};
    }
  }
};

}  // namespace

RewireStats rewire_assortativity(EdgeList& edges,
                                 const RewireConfig& config) {
  RewireStats stats;
  if (edges.size() < 2) return stats;
  // Degrees never change under swaps; compute once.
  const std::vector<std::uint64_t> degree = degrees_of(edges);
  SwapConfig chain;
  chain.iterations = config.iterations;
  chain.seed = config.seed;
  chain.governor = config.governor;
  chain.timings = config.timings;
  chain.obs = config.obs;
  const SwapStats swaps = run_swap_chain(
      edges, chain,
      BiasedPartnering{&degree, config.bias, config.target, 0});
  for (const SwapIterationStats& it : swaps.iterations) {
    stats.attempted += it.attempted;
    stats.swapped += it.swapped;
    stats.iterations.push_back({it.attempted, it.swapped});
  }
  return stats;
}

}  // namespace nullgraph
