#pragma once
// Degree-preserving rewiring toward a target mixing pattern
// (Xulvi-Brunet & Sokolov): the shared Algorithm III.1 chain
// (core/swap_chain.hpp) with a biased partnering policy. With probability
// `bias` a pair re-pairs its four endpoints toward the requested direction
// (assortative: the two highest-degree and two lowest-degree endpoints
// together; disassortative: highest with lowest); otherwise the uniform
// coin rule applies. A pair already in the target configuration proposes
// its own edges, which the chain rejects as existing. bias = 0 reduces to
// the plain uniform swap chain; bias = 1 drives r toward its extreme
// subject to simplicity. Degrees and simplicity are preserved exactly
// throughout — this generates the "null models with tuned assortativity"
// family used to separate degree effects from mixing effects.

#include <cstdint>
#include <vector>

#include "ds/edge_list.hpp"
#include "exec/phase_timing.hpp"
#include "obs/obs_context.hpp"
#include "robustness/governance.hpp"

namespace nullgraph {

enum class MixingTarget { kAssortative, kDisassortative };

struct RewireConfig {
  std::size_t iterations = 10;
  std::uint64_t seed = 1;
  /// Fraction of proposals forced toward the target (XBS's p parameter).
  double bias = 1.0;
  MixingTarget target = MixingTarget::kAssortative;
  /// Optional run governance, with the same contract as
  /// SwapConfig::governor (iteration cap and stall watchdog included). A
  /// curtailed rewire leaves `edges` a valid simple graph with the original
  /// degrees (committed swaps preserve both).
  const RunGovernor* governor = nullptr;
  /// Optional exec-layer phase records under the "rewire" phase name.
  exec::PhaseTimingSink* timings = nullptr;
  /// Optional telemetry: the chain's counters under the "rewire." prefix
  /// (rewire.attempted / .committed / .rejected_existing / .rejected_loop),
  /// the shared hash-set probe-length histogram, and one trace span per
  /// iteration (same contract as SwapConfig::obs).
  obs::ObsContext obs;
};

/// Per-iteration convergence sample: the biased chain's acceptance rate
/// decays toward zero as the mixing target saturates, and the decay curve
/// is the diagnostic for "has the rewire converged".
struct RewireIterationStats {
  std::size_t attempted = 0;
  std::size_t swapped = 0;
};

struct RewireStats {
  std::size_t attempted = 0;
  std::size_t swapped = 0;
  std::vector<RewireIterationStats> iterations;

  double acceptance() const noexcept {
    return attempted == 0
               ? 0.0
               : static_cast<double>(swapped) / static_cast<double>(attempted);
  }
};

/// Rewires `edges` in place toward the target mixing; returns statistics.
/// Requires a simple input; output stays simple with identical degrees.
RewireStats rewire_assortativity(EdgeList& edges,
                                 const RewireConfig& config = {});

}  // namespace nullgraph
