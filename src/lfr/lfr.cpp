#include "lfr/lfr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/null_model.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "exec/exec.hpp"
#include "gen/powerlaw.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace nullgraph {

namespace {

/// Power-law community sizes covering exactly n vertices.
std::vector<std::uint64_t> sample_community_sizes(const LfrParams& params,
                                                  Xoshiro256ss& rng) {
  std::vector<double> weights(params.cmax - params.cmin + 1);
  for (std::uint64_t s = params.cmin; s <= params.cmax; ++s)
    weights[s - params.cmin] =
        std::pow(static_cast<double>(s), -params.community_exponent);
  std::vector<double> cumulative(weights.size());
  std::partial_sum(weights.begin(), weights.end(), cumulative.begin());
  const double total = cumulative.back();

  std::vector<std::uint64_t> sizes;
  std::uint64_t covered = 0;
  while (covered < params.n) {
    const double u = rng.uniform() * total;
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    std::uint64_t size =
        params.cmin + static_cast<std::uint64_t>(it - cumulative.begin());
    if (covered + size > params.n) size = params.n - covered;
    sizes.push_back(size);
    covered += size;
  }
  // A trimmed last community below cmin merges into its predecessor.
  if (sizes.size() > 1 && sizes.back() < params.cmin) {
    sizes[sizes.size() - 2] += sizes.back();
    sizes.pop_back();
  }
  return sizes;
}

void make_sum_even(std::vector<std::uint64_t>& degrees,
                   std::uint64_t ceiling) {
  std::uint64_t sum = 0;
  for (std::uint64_t d : degrees) sum += d;
  if (sum % 2 == 0 || degrees.empty()) return;
  // Bump the first adjustable entry; prefer +1 (stays within ceiling).
  for (std::uint64_t& d : degrees) {
    if (d + 1 <= ceiling) {
      ++d;
      return;
    }
  }
  for (std::uint64_t& d : degrees) {
    if (d > 0) {
      --d;
      return;
    }
  }
}

}  // namespace

LfrGraph generate_lfr(const LfrParams& params) {
  if (params.mu < 0.0 || params.mu > 1.0)
    throw std::invalid_argument("generate_lfr: mu must lie in [0, 1]");
  if (params.cmin < 2 || params.cmin > params.cmax ||
      params.cmax > params.n)
    throw std::invalid_argument("generate_lfr: bad community size bounds");
  if ((1.0 - params.mu) * static_cast<double>(params.dmax) >
      static_cast<double>(params.cmax - 1))
    throw std::invalid_argument(
        "generate_lfr: internal degrees cannot fit the largest community");

  Xoshiro256ss rng(params.seed);
  std::uint64_t seed_chain = params.seed ^ 0x5851f42d4c957f2dULL;

  // 1. Global degrees and their mu split.
  std::vector<std::uint64_t> degree = sample_powerlaw_sequence(
      params.n, params.degree_exponent, params.dmin, params.dmax,
      splitmix64_next(seed_chain));
  std::vector<std::uint64_t> internal(params.n), external(params.n);
  for (std::uint64_t v = 0; v < params.n; ++v) {
    internal[v] = static_cast<std::uint64_t>(std::llround(
        (1.0 - params.mu) * static_cast<double>(degree[v])));
    internal[v] = std::min(internal[v], degree[v]);
    external[v] = degree[v] - internal[v];
  }

  // 2. Communities and the capacity-respecting assignment: vertices in
  // descending internal degree pick a random community that still has room
  // and is large enough (internal degree <= size - 1).
  const std::vector<std::uint64_t> sizes = sample_community_sizes(params, rng);
  const std::size_t num_communities = sizes.size();
  std::vector<std::uint64_t> remaining = sizes;
  std::vector<std::uint32_t> community(params.n, 0);

  std::vector<std::uint32_t> by_internal(params.n);
  std::iota(by_internal.begin(), by_internal.end(), 0u);
  std::stable_sort(by_internal.begin(), by_internal.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return internal[a] > internal[b];
                   });
  // Communities sorted descending by size; the feasible set for a vertex is
  // a prefix that only grows as internal degrees shrink.
  std::vector<std::size_t> community_order(num_communities);
  std::iota(community_order.begin(), community_order.end(), 0u);
  std::sort(community_order.begin(), community_order.end(),
            [&](std::size_t a, std::size_t b) { return sizes[a] > sizes[b]; });
  for (const std::uint32_t v : by_internal) {
    std::size_t feasible = 0;
    while (feasible < num_communities &&
           sizes[community_order[feasible]] > internal[v])
      ++feasible;
    if (feasible == 0) {
      // No community large enough: clamp the internal degree (counted as
      // external instead) and use the largest community.
      const std::uint64_t cap = sizes[community_order[0]] - 1;
      external[v] += internal[v] - cap;
      internal[v] = cap;
      feasible = 1;
    }
    // Random feasible community with room; fall back to a linear scan when
    // sampling keeps hitting full ones.
    std::size_t chosen = num_communities;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const std::size_t c = community_order[rng.bounded(feasible)];
      if (remaining[c] > 0) {
        chosen = c;
        break;
      }
    }
    if (chosen == num_communities) {
      for (std::size_t k = 0; k < feasible; ++k) {
        if (remaining[community_order[k]] > 0) {
          chosen = community_order[k];
          break;
        }
      }
    }
    if (chosen == num_communities)
      throw std::invalid_argument(
          "generate_lfr: ran out of community capacity for high internal "
          "degrees; increase cmax or mu");
    community[v] = static_cast<std::uint32_t>(chosen);
    --remaining[chosen];
  }

  // 3. One null-model layer per community (internal degrees)...
  std::vector<std::vector<std::uint32_t>> members(num_communities);
  for (std::uint32_t v = 0; v < params.n; ++v)
    members[community[v]].push_back(v);

  // One governor spans every layer: the deadline clock starts here, the
  // layers borrow it through GovernanceConfig::external, and the seed chain
  // still advances for skipped layers so a curtailed run never perturbs the
  // seeds of the layers that did complete.
  const GovernorScope governor(params.governance);
  const RunGovernor* gov = governor.get();
  GenerateConfig layer_config;
  layer_config.swap_iterations = params.swap_iterations;
  layer_config.governance.external = gov;
  layer_config.obs = params.obs;
  obs::Counter* c_layers = params.obs.metrics != nullptr
                               ? params.obs.metrics->counter(
                                     "lfr.community_layers_completed")
                               : nullptr;

  LfrGraph graph;
  EdgeList merged;
  for (std::size_t c = 0; c < num_communities; ++c) {
    layer_config.seed = splitmix64_next(seed_chain);
    if (gov != nullptr && gov->should_stop() != StatusCode::kOk) continue;
    if (members[c].size() < 2) {
      ++graph.communities_completed;
      continue;
    }
    obs::TraceSpan layer_span(params.obs.trace, "lfr community layer");
    std::vector<std::uint64_t> local_degrees(members[c].size());
    for (std::size_t k = 0; k < members[c].size(); ++k)
      local_degrees[k] = internal[members[c][k]];
    make_sum_even(local_degrees, members[c].size() - 1);
    GenerateResult layer = generate_for_sequence(local_degrees, layer_config);
    for (const Edge& e : layer.edges)
      merged.push_back({members[c][e.u], members[c][e.v]});
    if (gov == nullptr || !gov->stopped()) {
      ++graph.communities_completed;
      if (c_layers != nullptr) c_layers->add(1);
    }
  }

  // 4. ...plus one global external layer.
  {
    make_sum_even(external, params.n);  // ceiling n is never binding
    layer_config.seed = splitmix64_next(seed_chain);
    if (gov == nullptr || gov->should_stop() == StatusCode::kOk) {
      obs::TraceSpan layer_span(params.obs.trace, "lfr external layer");
      GenerateResult layer = generate_for_sequence(external, layer_config);
      merged.insert(merged.end(), layer.edges.begin(), layer.edges.end());
    }
  }

  // 5. Merge: layers are individually simple; drop the rare cross-layer
  // duplicate (an external edge landing inside a community on a pair that
  // is already internally connected).
  const std::size_t before = merged.size();
  graph.edges = erase_nonsimple(merged);
  graph.merged_duplicates = before - graph.edges.size();
  graph.community = std::move(community);
  graph.num_communities = num_communities;
  graph.achieved_mu = measured_mu(graph.edges, graph.community);
  if (gov != nullptr && gov->stopped()) graph.curtailed = gov->stop_reason();
  return graph;
}

double measured_mu(const EdgeList& edges,
                   const std::vector<std::uint32_t>& community) {
  if (edges.empty()) return 0.0;
  const exec::ParallelContext ctx;
  const std::size_t external = exec::reduce<std::size_t>(
      ctx, edges.size(), exec::kDefaultGrain, 0,
      [&](const exec::Chunk& chunk) {
        std::size_t mine = 0;
        for (std::size_t i = chunk.begin; i < chunk.end; ++i)
          if (community[edges[i].u] != community[edges[i].v]) ++mine;
        return mine;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  return static_cast<double>(external) / static_cast<double>(edges.size());
}

}  // namespace nullgraph
