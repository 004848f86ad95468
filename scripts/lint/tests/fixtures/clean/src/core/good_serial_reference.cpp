// Fixture: the serial reference chain may permute on its own. A comment
// naming knuth_targets( or apply_targets_parallel never fires, and neither
// does a my_knuth_targets() lookalike.
#include "permute/permutation.hpp"

SwapStats swap_edges_serial(EdgeList& edges, const SwapConfig& config) {
  const auto targets = knuth_targets(edges.size(), config.seed);
  for (int pass = 0; pass < 2; ++pass) {
    apply_targets_serial(std::span<Edge>(edges), targets);
  }
  return {};
}

void lookalike(EdgeList& edges) { my_knuth_targets(edges.size()); }
