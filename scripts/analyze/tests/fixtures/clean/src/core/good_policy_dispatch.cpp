// Fixture: template dispatch reaches only pure policy methods, and an
// ordinary member call with several same-named candidates (record) stays
// untraversed — the receiver is not a template-dispatch parameter.
#include <cstdio>

#include "exec/exec.hpp"
#include "util/rng.hpp"

namespace {

struct CoinPolicy {
  std::uint64_t propose(std::size_t k, std::uint64_t seed) const {
    std::uint64_t state = seed ^ k;
    return nullgraph::splitmix64_next(state);
  }
};

struct FixedPolicy {
  std::uint64_t propose(std::size_t k, std::uint64_t) const { return k; }
};

struct Journal {
  void record(int value) { std::fprintf(stderr, "%d\n", value); }
};

struct Tally {
  void record(int value) { total += value; }
  int total = 0;
};

template <class Policy>
void run_chain(const exec::ParallelContext& ctx, std::uint64_t seed,
               Policy policy, Tally& tally) {
  exec::for_chunks(ctx, 1024, 64, [&](const exec::Chunk& chunk) {
    std::uint64_t sum = 0;
    for (std::size_t k = chunk.begin; k < chunk.end; ++k)
      sum += policy.propose(k, seed);
    tally.record(static_cast<int>(sum));
  });
}

}  // namespace
