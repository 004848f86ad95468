#include "directed/directed_swap.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/rng.hpp"

namespace nullgraph {

namespace {

/// Direction-preserving arc partnering: arcs (u -> v), (x -> y) become
/// (u -> y), (x -> v). The other partnering would reverse arc directions
/// and break the in/out degrees, so there is no coin and no seed.
struct ArcPartnering {
  using Item = Arc;
  static constexpr const char* kPhase = "swaps";
  static constexpr const char* kSpan = "swap iteration";

  void begin_iteration(std::uint64_t& /*seed_chain*/) {}
  void propose(std::size_t /*k*/, const Arc& a, const Arc& b, Arc& g,
               Arc& h) const {
    g = {a.from, b.to};
    h = {b.from, a.to};
  }
};

}  // namespace

DirectedSwapStats directed_swap_arcs(ArcList& arcs,
                                     const DirectedSwapConfig& config) {
  SwapConfig chain;
  chain.iterations = config.iterations;
  chain.seed = config.seed;
  chain.governor = config.governor;
  return run_swap_chain(arcs, chain, ArcPartnering{});
}

std::size_t reverse_directed_triangles(ArcList& arcs, std::uint64_t seed,
                                       std::size_t attempts) {
  const std::size_t m = arcs.size();
  if (m < 3) return 0;
  // Exact arc-set membership plus an out-adjacency index (arc indices per
  // source vertex), both maintained incrementally across reversals.
  std::unordered_set<EdgeKey> present;
  present.reserve(2 * m);
  std::unordered_map<VertexId, std::vector<std::size_t>> out_arcs;
  for (std::size_t i = 0; i < m; ++i) {
    present.insert(arcs[i].key());
    out_arcs[arcs[i].from].push_back(i);
  }
  auto drop_out_entry = [&out_arcs](VertexId from, std::size_t index) {
    std::vector<std::size_t>& list = out_arcs[from];
    list.erase(std::find(list.begin(), list.end(), index));
  };

  Xoshiro256ss rng(seed);
  std::size_t reversed = 0;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    // Lazy chain: skip half the attempts at random so the reversal count
    // per pass is never deterministic (on tiny all-triangle instances
    // every attempt succeeds, which would make the pass parity-periodic).
    if (rng.flip()) continue;
    // Sample arc u -> v, extend along a random arc v -> w, close via the
    // membership test for w -> u.
    const std::size_t i = static_cast<std::size_t>(rng.bounded(m));
    const Arc a = arcs[i];
    const auto it = out_arcs.find(a.to);
    if (it == out_arcs.end() || it->second.empty()) continue;
    const std::size_t j = it->second[rng.bounded(it->second.size())];
    const Arc b = arcs[j];
    if (b.to == a.from || b.to == a.to) continue;  // degenerate w
    const Arc c{b.to, a.from};
    if (!present.contains(c.key())) continue;  // not a triangle
    // Reversal candidates; all three must be absent for simplicity.
    const Arc ra{a.to, a.from}, rb{b.to, b.from}, rc{c.to, c.from};
    if (present.contains(ra.key()) || present.contains(rb.key()) ||
        present.contains(rc.key()))
      continue;
    // Locate c's index through the out-adjacency of its source.
    std::vector<std::size_t>& c_list = out_arcs[c.from];
    const auto c_pos = std::find_if(
        c_list.begin(), c_list.end(),
        [&](std::size_t index) { return arcs[index] == c; });
    const std::size_t k = *c_pos;
    // Commit: replace the three arcs and patch both indices.
    for (const auto& [index, before, after] :
         {std::tuple{i, a, ra}, std::tuple{j, b, rb}, std::tuple{k, c, rc}}) {
      present.erase(before.key());
      present.insert(after.key());
      drop_out_entry(before.from, index);
      arcs[index] = after;
      out_arcs[after.from].push_back(index);
    }
    ++reversed;
  }
  return reversed;
}

DirectedSwapStats directed_swap_arcs_complete(
    ArcList& arcs, const DirectedSwapConfig& config) {
  DirectedSwapStats stats;
  stats.iterations.reserve(config.iterations);
  std::uint64_t seed_chain = config.seed;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    DirectedSwapConfig one;
    one.iterations = 1;
    one.seed = splitmix64_next(seed_chain);
    const DirectedSwapStats step = directed_swap_arcs(arcs, one);
    stats.iterations.push_back(step.iterations.front());
    reverse_directed_triangles(arcs, splitmix64_next(seed_chain),
                               arcs.size());
  }
  return stats;
}

}  // namespace nullgraph
