#include "directed/directed_generators.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "directed/directed_swap.hpp"
#include "exec/exec.hpp"
#include "skip/pair_space.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nullgraph {

double DirectedProbabilityMatrix::max_value() const noexcept {
  double best = 0.0;
  for (double v : values_) best = std::max(best, v);
  return best;
}

double DirectedProbabilityMatrix::expected_out_degree(
    std::size_t i, const DirectedDegreeDistribution& dist) const {
  double sum = 0.0;
  for (std::size_t j = 0; j < num_classes_; ++j)
    sum += static_cast<double>(dist.class_at(j).count) * at(i, j);
  return sum - at(i, i);
}

double DirectedProbabilityMatrix::expected_in_degree(
    std::size_t j, const DirectedDegreeDistribution& dist) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < num_classes_; ++i)
    sum += static_cast<double>(dist.class_at(i).count) * at(i, j);
  return sum - at(j, j);
}

double DirectedProbabilityMatrix::expected_arcs(
    const DirectedDegreeDistribution& dist) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < num_classes_; ++i) {
    const double ni = static_cast<double>(dist.class_at(i).count);
    for (std::size_t j = 0; j < num_classes_; ++j) {
      const double nj = static_cast<double>(dist.class_at(j).count);
      const double space = i == j ? ni * (ni - 1.0) : ni * nj;
      sum += at(i, j) * space;
    }
  }
  return sum;
}

DirectedProbabilityMatrix directed_greedy_probabilities(
    const DirectedDegreeDistribution& dist, int rounds) {
  const std::size_t nc = dist.num_classes();
  DirectedProbabilityMatrix P(nc);
  if (nc == 0) return P;
  std::vector<double> out_stubs(nc), in_stubs(nc), counts(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    const DirectedDegreeClass& cls = dist.class_at(c);
    counts[c] = static_cast<double>(cls.count);
    out_stubs[c] = static_cast<double>(cls.out_degree) * counts[c];
    in_stubs[c] = static_cast<double>(cls.in_degree) * counts[c];
  }
  constexpr double kEps = 1e-9;
  // Classes ascend by out-degree; allocate the heaviest out-classes first
  // so the hubs' arcs are never crowded out by space caps.
  for (std::size_t step = 0; step < nc; ++step) {
    const std::size_t i = nc - 1 - step;
    for (int round = 0; round < rounds && out_stubs[i] > kEps; ++round) {
      double weight = 0.0;
      for (std::size_t j = 0; j < nc; ++j)
        if (in_stubs[j] > kEps && P.at(i, j) < 1.0) weight += in_stubs[j];
      if (weight <= kEps) break;
      const double budget = out_stubs[i];
      double allocated = 0.0;
      for (std::size_t j = 0; j < nc; ++j) {
        if (in_stubs[j] <= kEps) continue;
        const double space =
            i == j ? counts[i] * (counts[i] - 1.0) : counts[i] * counts[j];
        const double cap = (1.0 - P.at(i, j)) * space;
        if (cap <= kEps) continue;
        const double arcs =
            std::min({budget * in_stubs[j] / weight, cap, in_stubs[j]});
        if (arcs <= 0.0) continue;
        P.add(i, j, arcs / space);
        in_stubs[j] -= arcs;
        allocated += arcs;
      }
      out_stubs[i] = std::max(0.0, out_stubs[i] - allocated);
      if (allocated <= kEps * budget) break;  // caps everywhere
    }
  }
  return P;
}

namespace {

/// Ordered-pair space between from-class (n_from vertices at from_offset)
/// and to-class; the diagonal space skips self-pairs.
struct ArcSpace {
  std::uint64_t size = 0;
  std::uint64_t to_count = 0;
  std::uint64_t from_offset = 0;
  std::uint64_t to_offset = 0;
  bool diagonal = false;

  Arc decode(std::uint64_t t) const noexcept {
    if (!diagonal) {
      return {static_cast<VertexId>(from_offset + t / to_count),
              static_cast<VertexId>(to_offset + t % to_count)};
    }
    // n(n-1) ordered non-diagonal pairs: row u holds n-1 targets, with the
    // slot for v == u skipped.
    const std::uint64_t u = t / (to_count - 1);
    const std::uint64_t r = t % (to_count - 1);
    const std::uint64_t v = r + (r >= u ? 1 : 0);
    return {static_cast<VertexId>(from_offset + u),
            static_cast<VertexId>(to_offset + v)};
  }
};

}  // namespace

ArcList directed_edge_skip(const DirectedProbabilityMatrix& P,
                           const DirectedDegreeDistribution& dist,
                           std::uint64_t seed, std::uint64_t arcs_per_task,
                           const RunGovernor* governor) {
  const std::size_t nc = dist.num_classes();
  const std::uint64_t num_pairs = nc * nc;
  exec::ParallelContext ctx;
  ctx.seed = seed;
  ctx.governor = governor;
  ctx.phase = "directed edge generation";
  // Per-pair streams stay keyed by (seed, pair, subtask), so the arc set
  // is invariant under both thread count and exec chunking.
  return exec::collect<Arc>(
      ctx, num_pairs, 64, [&](const exec::Chunk& chunk, ArcList& mine) {
        for (std::uint64_t pair = chunk.begin; pair < chunk.end; ++pair) {
          const std::size_t i = static_cast<std::size_t>(pair / nc);
          const std::size_t j = static_cast<std::size_t>(pair % nc);
          const double p = P.at(i, j);
          // !(p > 0): a NaN entry (corrupted matrix) yields no arcs.
          if (!(p > 0.0)) continue;
          ArcSpace space;
          const std::uint64_t ni = dist.class_at(i).count;
          const std::uint64_t nj = dist.class_at(j).count;
          space.to_count = nj;
          space.from_offset = dist.class_offset(i);
          space.to_offset = dist.class_offset(j);
          space.diagonal = i == j;
          space.size = space.diagonal ? ni * (ni - 1) : ni * nj;
          if (space.diagonal && ni < 2) continue;
          // Large spaces are split into subtasks with independent stateless
          // seeds; the split depends only on the data.
          const double expected = p * static_cast<double>(space.size);
          const std::uint64_t subtasks =
              expected > static_cast<double>(arcs_per_task)
                  ? static_cast<std::uint64_t>(
                        expected / static_cast<double>(arcs_per_task)) + 1
                  : 1;
          for (std::uint64_t c = 0; c < subtasks; ++c) {
            const auto [begin, end] = block_range(
                static_cast<std::size_t>(c),
                static_cast<std::size_t>(subtasks), space.size);
            Xoshiro256ss rng(skip_detail::task_seed(seed, pair, c));
            skip_detail::traverse(p, begin, end, rng, [&](std::uint64_t t) {
              mine.push_back(space.decode(t));
            });
          }
        }
      });
}

ArcList kleitman_wang(const std::vector<std::uint64_t>& in_degrees,
                      const std::vector<std::uint64_t>& out_degrees) {
  const std::size_t n = in_degrees.size();
  if (out_degrees.size() != n)
    throw std::invalid_argument("kleitman_wang: sequence length mismatch");
  std::uint64_t total_in = 0, total_out = 0;
  for (std::size_t v = 0; v < n; ++v) {
    total_in += in_degrees[v];
    total_out += out_degrees[v];
  }
  if (total_in != total_out)
    throw std::invalid_argument("kleitman_wang: in/out totals differ");

  std::vector<std::uint64_t> residual_in = in_degrees;
  std::vector<std::uint64_t> residual_out = out_degrees;
  ArcList arcs;
  arcs.reserve(total_out);
  // Process sources in descending out-degree (any order is valid for the
  // Kleitman-Wang theorem as long as targets are the largest residual
  // in-degrees excluding the source).
  std::vector<VertexId> sources(n);
  std::iota(sources.begin(), sources.end(), 0u);
  std::stable_sort(sources.begin(), sources.end(),
                   [&](VertexId a, VertexId b) {
                     return out_degrees[a] > out_degrees[b];
                   });
  std::vector<VertexId> candidates;
  candidates.reserve(n);
  for (const VertexId source : sources) {
    const std::uint64_t want = out_degrees[source];
    if (want == 0) break;
    candidates.clear();
    for (VertexId v = 0; v < n; ++v)
      if (v != source && residual_in[v] > 0) candidates.push_back(v);
    if (candidates.size() < want)
      throw std::invalid_argument("kleitman_wang: not digraphical");
    // Kleitman-Wang ordering: largest residual in-degree first, ties by
    // larger remaining out-degree (the lexicographic (in, out) order the
    // theorem requires), then id for determinism. Breaking in-degree ties
    // toward exhausted-out vertices can strand in-stubs on the source.
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(want),
                     candidates.end(), [&](VertexId a, VertexId b) {
                       if (residual_in[a] != residual_in[b])
                         return residual_in[a] > residual_in[b];
                       if (residual_out[a] != residual_out[b])
                         return residual_out[a] > residual_out[b];
                       return a < b;
                     });
    for (std::uint64_t k = 0; k < want; ++k) {
      const VertexId target = candidates[k];
      arcs.push_back({source, target});
      --residual_in[target];
    }
    residual_out[source] = 0;
  }
  for (std::size_t v = 0; v < n; ++v)
    if (residual_in[v] != 0)
      throw std::invalid_argument("kleitman_wang: not digraphical");
  return arcs;
}

bool is_digraphical(const std::vector<std::uint64_t>& in_degrees,
                    const std::vector<std::uint64_t>& out_degrees) {
  try {
    kleitman_wang(in_degrees, out_degrees);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

ArcList generate_directed_null_graph(const DirectedDegreeDistribution& dist,
                                     std::uint64_t seed,
                                     std::size_t swap_iterations,
                                     const RunGovernor* governor) {
  std::uint64_t seed_chain = seed;
  const DirectedProbabilityMatrix P = directed_greedy_probabilities(dist);
  ArcList arcs = directed_edge_skip(P, dist, splitmix64_next(seed_chain),
                                    std::uint64_t{1} << 16, governor);
  DirectedSwapConfig config;
  config.iterations = swap_iterations;
  config.seed = splitmix64_next(seed_chain);
  config.governor = governor;
  directed_swap_arcs(arcs, config);
  return arcs;
}

}  // namespace nullgraph
