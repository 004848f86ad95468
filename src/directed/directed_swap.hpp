#pragma once
// Parallel double-edge swaps for simple digraphs: the shared Algorithm
// III.1 chain (core/swap_chain.hpp) with its direction-preserving arc
// partnering policy. Arcs a = (u -> v), b = (x -> y) swap to (u -> y),
// (x -> v), which preserves every vertex's in- AND out-degree (the other
// partnering would reverse arc directions and change them). Simplicity
// checks run against the chain's concurrent table of ORDERED arc keys.
// bipartite_swap runs the same policy on offset right-side ids.
//
// Known caveat (Erdős, Miklós & Toroczkai [15]): the directed 2-swap chain
// is not irreducible on every digraph space — an induced directed 3-cycle
// cannot be reversed by 2-swaps alone (every proposal makes a self-loop),
// so spaces that differ only by 3-cycle orientations split into separate
// ergodic classes. The standard remedy is an additional triangle-reversal
// move; for the degree sequences this library targets (large, skewed) the
// affected states are a vanishing fraction and the practical impact is
// nil, but exact small-space sampling should be aware of it
// (tests/test_uniformity_extended pins the behaviour).
//
// Second small-space caveat, shared with the undirected parallel chain: on
// inputs where every proposal is accepted (e.g. permutation matrices /
// perfect matchings), each iteration commits a fixed number of swaps, so
// the chain can be PERIODIC in swap parity at fixed iteration counts —
// randomize the horizon when sampling such spaces exactly. Real graph
// workloads have rejections and shared endpoints, which break the
// periodicity immediately.

#include <cstddef>
#include <cstdint>

#include "core/swap_chain.hpp"
#include "directed/directed_distribution.hpp"
#include "robustness/governance.hpp"

namespace nullgraph {

struct DirectedSwapConfig {
  std::size_t iterations = 10;
  std::uint64_t seed = 1;
  /// Optional run governance, with the same contract as
  /// SwapConfig::governor: polled at iteration boundaries and per chunk
  /// inside the pair loop, RunBudget::max_swap_iterations enforced, stall
  /// watchdog armed. A curtailed chain leaves `arcs` a valid digraph with
  /// the original in/out degrees.
  const RunGovernor* governor = nullptr;
};

/// The shared chain's counters; arc chains fill the same fields.
using DirectedSwapIterationStats = SwapIterationStats;
using DirectedSwapStats = SwapStats;

/// Parallel directed swaps; mutates `arcs` in place.
DirectedSwapStats directed_swap_arcs(ArcList& arcs,
                                     const DirectedSwapConfig& config = {});

/// One serial pass of Erdős–Miklós–Toroczkai TRIANGLE REVERSALS: samples
/// `attempts` random arcs, completes each to a directed triangle
/// (u -> v -> w -> u) through an out-adjacency index when possible, and
/// reverses the triangle when none of the reversed arcs already exists.
/// Preserves every in/out degree and simplicity; combined with
/// directed_swap_arcs this restores irreducibility on spaces where plain
/// 2-swaps are stuck (see the header caveat). Returns the number of
/// triangles reversed.
std::size_t reverse_directed_triangles(ArcList& arcs, std::uint64_t seed,
                                       std::size_t attempts);

/// Convenience chain alternating parallel 2-swaps with triangle-reversal
/// passes (attempts ~ m per pass): the fully-mixing directed sampler.
DirectedSwapStats directed_swap_arcs_complete(
    ArcList& arcs, const DirectedSwapConfig& config = {});

}  // namespace nullgraph
