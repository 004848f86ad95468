// Fixture: a second copy of the swap chain outside core/swap_chain.hpp.
#include "permute/permutation.hpp"

SwapStats swap_edges_serial(EdgeList& edges, const SwapConfig& config = {});

void my_own_chain(ArcList& arcs, std::uint64_t seed) {
  const auto targets = knuth_targets(arcs.size(), seed);  // line 7: banned
  apply_targets_parallel(std::span<Arc>(arcs), targets);  // line 8: banned
  apply_targets_serial(std::span<Arc>(arcs), targets);    // line 9: banned
}
