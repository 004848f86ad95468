#pragma once
// Configuration-model generators (Molloy & Reed [24]): uniform random stub
// pairing. Background baselines from Section II-B — the "repeated" variant
// shows why re-rolling until simple is hopeless on skewed inputs, and the
// "erased" variant is the classical accuracy-losing fix (Figure 2's model
// family). Stub pairing is the Knuth shuffle for stateless (seed, i)
// targets, the same permutation at any thread count.

#include <cstdint>
#include <optional>

#include "ds/degree_distribution.hpp"
#include "ds/edge_list.hpp"
#include "robustness/governance.hpp"

namespace nullgraph {

/// Uniform random pairing of all stubs: a loopy multigraph whose degree
/// sequence matches `dist` EXACTLY (unlike Chung-Lu, which only matches in
/// expectation). The optional governor is polled once, before the stub
/// shuffle; a run already stopped skips it and pairs the stubs in fill
/// order (still a valid multigraph realization of `dist`, just unmixed).
EdgeList configuration_multigraph(const DegreeDistribution& dist,
                                  std::uint64_t seed = 1,
                                  const RunGovernor* governor = nullptr);

/// configuration_multigraph with loops and duplicate edges erased.
EdgeList erased_configuration(const DegreeDistribution& dist,
                              std::uint64_t seed = 1,
                              const RunGovernor* governor = nullptr);

/// Repeated configuration model: re-pair from scratch until the result is
/// simple, at most `max_attempts` times. Returns nullopt on failure — the
/// expected outcome for skewed distributions, where the expected number of
/// multi-edges exceeds one (Section II-B).
std::optional<EdgeList> repeated_configuration(const DegreeDistribution& dist,
                                               std::uint64_t seed = 1,
                                               int max_attempts = 100,
                                               const RunGovernor* governor =
                                                   nullptr);

}  // namespace nullgraph
