#include "core/double_edge_swap.hpp"

#include <unordered_map>

#include "permute/permutation.hpp"
#include "util/rng.hpp"

namespace nullgraph {

namespace {

/// Stateless fair coin for (seed, pair): selects the swap partnering.
bool pair_coin(std::uint64_t seed, std::uint64_t pair) {
  std::uint64_t state = seed ^ (pair * 0x9e3779b97f4a7c15ULL);
  return (splitmix64_next(state) >> 63) != 0;
}

/// The two candidate partnerings of Algorithm III.1 lines 11-16.
void partner_by_coin(const Edge& e, const Edge& f, bool coin, Edge& g,
                     Edge& h) {
  if (coin) {
    g = {e.u, f.u};  // {u, x}
    h = {e.v, f.v};  // {v, y}
  } else {
    g = {e.u, f.v};  // {u, y}
    h = {e.v, f.u};  // {v, x}
  }
}

/// Coin partnering: one coin seed per iteration, one coin per pair.
struct CoinPartnering {
  using Item = Edge;
  static constexpr const char* kPhase = "swaps";
  static constexpr const char* kSpan = "swap iteration";
  std::uint64_t coin_seed = 0;

  void begin_iteration(std::uint64_t& seed_chain) {
    coin_seed = splitmix64_next(seed_chain);
  }
  void propose(std::size_t k, const Edge& e, const Edge& f, Edge& g,
               Edge& h) const {
    partner_by_coin(e, f, pair_coin(coin_seed, k), g, h);
  }
};

}  // namespace

SwapStats swap_edges(EdgeList& edges, const SwapConfig& config) {
  return run_swap_chain(edges, config, CoinPartnering{});
}

SwapStats swap_edges_serial(EdgeList& edges, const SwapConfig& config) {
  // Reference MCMC with an EXACT edge table: replaced edges are removed, so
  // (unlike the parallel variant) no conservative rejections occur within
  // an iteration. Multi-edge inputs use per-key multiplicity counts.
  SwapStats stats;
  stats.iterations.resize(config.iterations);
  const std::size_t m = edges.size();
  if (m < 2) {
    for (SwapIterationStats& it : stats.iterations)
      for (const Edge& e : edges)
        if (e.is_loop()) ++it.input_self_loops;
    return stats;
  }

  std::unordered_map<EdgeKey, std::uint32_t> table;
  table.reserve(m * 2);
  for (const Edge& e : edges) ++table[e.key()];
  auto remove_key = [&table](EdgeKey key) {
    const auto it = table.find(key);
    if (it->second == 1)
      table.erase(it);
    else
      --it->second;
  };

  std::vector<std::uint8_t> ever_swapped;
  if (config.track_swapped_edges) ever_swapped.assign(m, 0);

  std::uint64_t seed_chain = config.seed;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    SwapIterationStats& it_stats = stats.iterations[iter];
    // Input census from the exact multiplicity table (kept incrementally,
    // unlike the parallel variant's refill): mirrors census() semantics.
    for (const auto& [key, mult] : table) {
      if (Edge::from_key(key).is_loop())
        it_stats.input_self_loops += mult;
      else
        it_stats.input_multi_edges += mult - 1;
    }
    const std::uint64_t permute_seed = splitmix64_next(seed_chain);
    const std::uint64_t coin_seed = splitmix64_next(seed_chain);
    const std::vector<std::uint64_t> targets = knuth_targets(m, permute_seed);
    const std::span<const std::uint64_t> target_span(targets.data(),
                                                     targets.size());
    apply_targets_serial(std::span<Edge>(edges), target_span);
    if (config.track_swapped_edges) {
      apply_targets_serial(std::span<std::uint8_t>(ever_swapped),
                           target_span);
    }

    const std::size_t pairs = m / 2;
    for (std::size_t k = 0; k < pairs; ++k) {
      const Edge e = edges[2 * k];
      const Edge f = edges[2 * k + 1];
      Edge g, h;
      partner_by_coin(e, f, pair_coin(coin_seed, k), g, h);
      if (g.is_loop() || h.is_loop()) {
        ++it_stats.rejected_loop;
        continue;
      }
      if (g.key() == h.key() || table.contains(g.key()) ||
          table.contains(h.key())) {
        ++it_stats.rejected_existing;
        continue;
      }
      remove_key(e.key());
      remove_key(f.key());
      ++table[g.key()];
      ++table[h.key()];
      edges[2 * k] = g;
      edges[2 * k + 1] = h;
      ++it_stats.swapped;
      if (config.track_swapped_edges) {
        ever_swapped[2 * k] = 1;
        ever_swapped[2 * k + 1] = 1;
      }
    }
    it_stats.attempted = pairs;
    stats.final_chain_state = seed_chain;
  }

  if (config.track_swapped_edges) {
    std::size_t count = 0;
    for (std::uint8_t flag : ever_swapped) count += flag;
    stats.edges_ever_swapped = count;
  }
  return stats;
}

}  // namespace nullgraph
