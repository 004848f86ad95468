// Fixture: a generator shuffling with the reservation-round kernel.
#include "permute/permutation.hpp"

void pair_stubs(std::vector<VertexId>& stubs, std::uint64_t seed) {
  parallel_permute(std::span<VertexId>(stubs), seed);  // line 5: banned
}

SwapStats swap_edges_serial(EdgeList& edges, const SwapConfig& config) {
  const auto targets = knuth_targets(edges.size(), config.seed);
  apply_targets_parallel(std::span<Edge>(edges), targets);  // line 10: banned
  return {};
}
