#pragma once
// Undirected double-edge swaps: the shared Algorithm III.1 chain
// (core/swap_chain.hpp) with coin partnering — each pair
// ({u,v},{x,y}) proposes {u,x},{v,y} or {u,y},{v,x} by a fair coin.
//
// Degree sequence is invariant; simplicity can only improve. Iterating
// mixes toward the uniform simple null model.

#include "core/swap_chain.hpp"
#include "ds/edge_list.hpp"

namespace nullgraph {

/// Parallel Algorithm III.1; mutates `edges` in place.
SwapStats swap_edges(EdgeList& edges, const SwapConfig& config = {});

/// Serial reference: identical proposal distribution and acceptance rule,
/// one pair at a time against an exact current-edge table (no
/// over-approximation). Used to validate the parallel algorithm's
/// invariants and to reproduce the paper's serial timing comparisons.
SwapStats swap_edges_serial(EdgeList& edges, const SwapConfig& config = {});

}  // namespace nullgraph
