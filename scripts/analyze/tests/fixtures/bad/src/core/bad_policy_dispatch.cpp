// Fixture: a swap-chain-style template whose chunk callback calls its
// policy through a template-dispatch parameter. Two classes define
// propose(), so only the dispatch rule lets the analyzer reach them.
#include <chrono>
#include <thread>

#include "exec/exec.hpp"
#include "util/rng.hpp"

namespace {

struct SleepyPolicy {
  void propose(std::size_t k, std::uint64_t seed) const {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // blocks
    nullgraph::Xoshiro256ss engine(seed + k);  // run seed, not chunk seed
  }
};

struct PurePolicy {
  void propose(std::size_t k, std::uint64_t seed) const { (void)(k + seed); }
};

template <class Policy>
void run_chain(const exec::ParallelContext& ctx, std::uint64_t seed,
               Policy policy) {
  exec::for_chunks(ctx, 1024, 64, [&](const exec::Chunk& chunk) {
    for (std::size_t k = chunk.begin; k < chunk.end; ++k)
      policy.propose(k, seed);
  });
}

}  // namespace
