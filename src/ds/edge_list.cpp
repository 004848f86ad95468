#include "ds/edge_list.hpp"

#include <algorithm>
#include <atomic>

#include "ds/concurrent_hash_set.hpp"
#include "exec/exec.hpp"

namespace nullgraph {

std::size_t vertex_count(const EdgeList& edges) {
  if (edges.empty()) return 0;
  const exec::ParallelContext ctx;
  const VertexId max_id = exec::reduce<VertexId>(
      ctx, edges.size(), exec::kDefaultGrain, 0,
      [&](const exec::Chunk& chunk) {
        VertexId hi = 0;
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const VertexId h = edges[i].u > edges[i].v ? edges[i].u : edges[i].v;
          if (h > hi) hi = h;
        }
        return hi;
      },
      [](VertexId a, VertexId b) { return a > b ? a : b; });
  return static_cast<std::size_t>(max_id) + 1;
}

std::vector<std::uint64_t> degrees_of(const EdgeList& edges, std::size_t n) {
  // `n` is a floor, not an exact size: the edge list may reference vertices
  // beyond the caller's expectation (e.g. a generated graph measured against
  // a smaller target distribution), and those must not write out of bounds.
  n = std::max(n, vertex_count(edges));
  std::vector<std::uint64_t> degree(n, 0);
  const exec::ParallelContext ctx;
  exec::for_chunks(ctx, edges.size(), exec::kDefaultGrain,
                   [&](const exec::Chunk& chunk) {
                     for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                       const Edge e = edges[i];
                       // relaxed: independent degree tallies published by
                       // the loop barrier, not by these adds.
                       std::atomic_ref<std::uint64_t>(degree[e.u])
                           .fetch_add(1, std::memory_order_relaxed);
                       std::atomic_ref<std::uint64_t>(degree[e.v])
                           .fetch_add(1, std::memory_order_relaxed);
                     }
                   });
  return degree;
}

SimplicityCensus census(const EdgeList& edges) {
  ConcurrentHashSet seen(edges.size());
  const exec::ParallelContext ctx;
  return exec::reduce<SimplicityCensus>(
      ctx, edges.size(), exec::kDefaultGrain, SimplicityCensus{},
      [&](const exec::Chunk& chunk) {
        SimplicityCensus mine;
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
          const Edge e = edges[i];
          if (e.is_loop()) {
            ++mine.self_loops;
            continue;
          }
          if (seen.test_and_set(e.key())) ++mine.multi_edges;
        }
        return mine;
      },
      [](SimplicityCensus a, SimplicityCensus b) {
        a.self_loops += b.self_loops;
        a.multi_edges += b.multi_edges;
        return a;
      });
}

bool is_simple(const EdgeList& edges) { return census(edges).simple(); }

EdgeList erase_nonsimple(const EdgeList& edges) {
  // One serial pass: which copy of a duplicate survives, and where it
  // sits, depends on the input order alone — never on which thread wins a
  // claim race — so the output is the same at every thread count.
  ConcurrentHashSet seen(edges.size());
  EdgeList out;
  out.reserve(edges.size());
  for (const Edge& e : edges)
    if (!e.is_loop() && !seen.test_and_set(e.key())) out.push_back(e);
  return out;
}

bool same_edge_multiset(const EdgeList& a, const EdgeList& b) {
  if (a.size() != b.size()) return false;
  auto keys = [](const EdgeList& edges) {
    std::vector<EdgeKey> out(edges.size());
    const exec::ParallelContext ctx;
    exec::for_chunks(ctx, edges.size(), exec::kDefaultGrain,
                     [&](const exec::Chunk& chunk) {
                       for (std::size_t i = chunk.begin; i < chunk.end; ++i)
                         out[i] = edges[i].key();
                     });
    std::sort(out.begin(), out.end());
    return out;
  };
  return keys(a) == keys(b);
}

}  // namespace nullgraph
