#include "gen/configuration_model.hpp"

#include "exec/exec.hpp"
#include "permute/permutation.hpp"
#include "util/rng.hpp"

namespace nullgraph {

EdgeList configuration_multigraph(const DegreeDistribution& dist,
                                  std::uint64_t seed,
                                  const RunGovernor* governor) {
  const std::uint64_t stubs = dist.num_stubs();
  std::vector<VertexId> stub_owner(stubs);
  // Stub array: vertex v appears degree(v) times. Classes own contiguous
  // id and stub ranges, so the fill parallelizes per class. The fill and
  // the pairing run ungoverned (a skipped chunk would leave zero-vertex
  // stubs); a run already stopped skips the shuffle and pairs the stubs in
  // fill order.
  const std::size_t nc = dist.num_classes();
  std::vector<std::uint64_t> stub_offset(nc + 1, 0);
  for (std::size_t c = 0; c < nc; ++c) {
    stub_offset[c + 1] = stub_offset[c] +
                         dist.degree_of_class(c) * dist.count_of_class(c);
  }
  const exec::ParallelContext ctx;
  exec::for_chunks(ctx, nc, 1, [&](const exec::Chunk& chunk) {
    for (std::size_t c = chunk.begin; c < chunk.end; ++c) {
      const std::uint64_t d = dist.degree_of_class(c);
      std::uint64_t pos = stub_offset[c];
      for (std::uint64_t v = dist.class_offset(c);
           v < dist.class_offset(c + 1); ++v) {
        for (std::uint64_t k = 0; k < d; ++k)
          stub_owner[pos++] = static_cast<VertexId>(v);
      }
    }
  });
  if (governor == nullptr || governor->should_stop() == StatusCode::kOk)
    serial_permute(std::span<VertexId>(stub_owner), seed);
  EdgeList edges(stubs / 2);
  exec::for_chunks(ctx, edges.size(), exec::kDefaultGrain,
                   [&](const exec::Chunk& chunk) {
                     for (std::size_t e = chunk.begin; e < chunk.end; ++e)
                       edges[e] = {stub_owner[2 * e], stub_owner[2 * e + 1]};
                   });
  return edges;
}

EdgeList erased_configuration(const DegreeDistribution& dist,
                              std::uint64_t seed,
                              const RunGovernor* governor) {
  EdgeList edges = configuration_multigraph(dist, seed, governor);
  return erase_nonsimple(edges);
}

std::optional<EdgeList> repeated_configuration(const DegreeDistribution& dist,
                                               std::uint64_t seed,
                                               int max_attempts,
                                               const RunGovernor* governor) {
  std::uint64_t state = seed;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (governor != nullptr && governor->should_stop() != StatusCode::kOk)
      return std::nullopt;
    EdgeList edges = configuration_multigraph(dist, splitmix64_next(state),
                                              governor);
    if (is_simple(edges)) return edges;
  }
  return std::nullopt;
}

}  // namespace nullgraph
