#pragma once
// EdgeList: flat vector of undirected edges plus the parallel queries the
// generators and analysis code need (degree extraction, simplicity census,
// dedup). This is the central exchange format of the library.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ds/edge.hpp"

namespace nullgraph {

using EdgeList = std::vector<Edge>;

/// Counts of the ways an edge list can fail to be simple.
struct SimplicityCensus {
  std::size_t self_loops = 0;
  std::size_t multi_edges = 0;  // extra copies beyond the first of each edge

  bool simple() const noexcept { return self_loops == 0 && multi_edges == 0; }
};

/// Number of vertices implied by the largest endpoint (0 for empty lists).
std::size_t vertex_count(const EdgeList& edges);

/// Per-vertex degrees; self-loops contribute 2 to their endpoint, matching
/// the usual multigraph convention. `n` is a floor on the result size,
/// extending it beyond the largest endpoint (for isolated vertices); the
/// result always covers every endpoint. Pass 0 to infer.
std::vector<std::uint64_t> degrees_of(const EdgeList& edges,
                                      std::size_t n = 0);

/// Parallel census of self-loops and duplicate edges.
SimplicityCensus census(const EdgeList& edges);

/// True iff no self-loops and no duplicate undirected edges.
bool is_simple(const EdgeList& edges);

/// Copy with self-loops and duplicate edges removed ("erased" models keep
/// the first occurrence of each undirected edge, in input order; the
/// result does not depend on the thread count).
EdgeList erase_nonsimple(const EdgeList& edges);

/// True when both lists contain the same multiset of undirected edges.
bool same_edge_multiset(const EdgeList& a, const EdgeList& b);

}  // namespace nullgraph
