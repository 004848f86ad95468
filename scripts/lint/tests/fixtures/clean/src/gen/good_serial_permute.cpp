// Fixture: shuffling with serial_permute is fine anywhere. A comment naming
// parallel_permute( or apply_targets_parallel never fires, and neither does
// a my_parallel_permute() lookalike.
#include "permute/permutation.hpp"

void pair_stubs(std::vector<VertexId>& stubs, std::uint64_t seed) {
  serial_permute(std::span<VertexId>(stubs), seed);
  my_parallel_permute(stubs.size());
}
