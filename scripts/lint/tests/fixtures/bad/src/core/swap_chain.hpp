#pragma once
// Fixture: the shared chain itself may not apply targets by reservation
// rounds; it uses the serial loop like everyone else.
#include "permute/permutation.hpp"

template <class Item>
void permute_items(std::vector<Item>& items, std::uint64_t seed) {
  const auto targets = knuth_targets(items.size(), seed);  // allowed here
  apply_targets_parallel(std::span<Item>(items), targets);  // line 9: banned
}
