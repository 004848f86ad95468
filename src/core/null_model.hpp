#pragma once
// End-to-end null-model generation — Algorithm IV.1 and the public face of
// the library.
//
//   problem 1: shuffle_graph()        existing edge list -> uniform sample
//   problem 2: generate_null_graph()  degree distribution -> uniform sample
//
// generate_null_graph runs the paper's three phases: probability heuristic
// (Section IV-A), parallel edge-skipping (Algorithm IV.2), parallel
// double-edge swaps (Algorithm III.1), and reports per-phase wall times —
// the breakdown behind Figure 6.
//
// Every run is wrapped in pipeline guardrails (robustness/): per-phase
// invariant checks accumulate into GenerateResult::report, and
// GenerateConfig::guardrails selects what a violation does — record only
// (default), abort with a typed StatusError (kStrict), or recover via
// bounded retry-with-reseed plus a repair pass (kRepair). Seeded fault
// injection (GuardrailConfig::faults) exists so those paths are testable;
// it is inert unless armed.

#include <cstdint>
#include <string>

#include "core/double_edge_swap.hpp"
#include "ds/degree_distribution.hpp"
#include "ds/edge_list.hpp"
#include "obs/obs_context.hpp"
#include "prob/probability_matrix.hpp"
#include "robustness/governance.hpp"
#include "robustness/invariants.hpp"
#include "robustness/status.hpp"
#include "util/timer.hpp"

namespace nullgraph {

/// Out-of-core spill mode (DESIGN.md §10). When enabled, the generation
/// phase may re-route its output to CRC-framed shard files under `dir`
/// instead of RAM: always when `force` is set, otherwise exactly when the
/// projected in-core footprint would cross the governor's memory ceiling
/// (RunGovernor::would_exceed_memory — the ceiling DEGRADES the run to
/// disk instead of tripping kMemoryBudget). A spilled result returns an
/// empty in-memory edge list; the graph lives in the shard directory and
/// streams out via io/shard_merge.hpp. The swap phase is skipped (the
/// graph never materializes) and recorded as a DegradationEvent.
struct SpillConfig {
  /// Master switch (CLI --spill-dir). Off = exact historical behavior.
  bool enabled = false;
  /// Shard directory: manifest + shard files (created if absent).
  std::string dir;
  /// Explicit shard count; 0 auto-sizes so one shard's expected edges stay
  /// within a quarter of the memory ceiling (or a 256 MiB default when
  /// no ceiling is set).
  std::uint64_t shard_count = 0;
  /// Spill even when the projected footprint fits (--force-spill): drills,
  /// bit-identity tests, and pre-sharding for downstream consumers.
  bool force = false;
};

/// What the spill path did, attached to GenerateResult. `spilled` false
/// means the run stayed in-core and the rest of the fields are zero.
struct SpillSummary {
  bool spilled = false;
  std::string dir;
  std::uint64_t shard_count = 0;
  std::uint64_t edges_on_disk = 0;
  std::uint64_t shards_written = 0;
  /// Resume only: shards whose CRC proved them complete, trusted as-is.
  std::uint64_t shards_reused = 0;
  /// Largest single-shard edge count — the resident high-water mark.
  std::uint64_t max_shard_edges = 0;
};

enum class ProbabilityMethod {
  kGreedyAllocation,   // default: exact stub accounting (DESIGN.md §6)
  kPaperStubMatching,  // Section IV-A as published
  kChungLu,            // capped Chung-Lu (the O(n^2)-edgeskip baseline)
};

struct GenerateConfig {
  std::uint64_t seed = 1;
  std::size_t swap_iterations = 10;
  ProbabilityMethod probability_method = ProbabilityMethod::kGreedyAllocation;
  /// Extra fixed-point refinement sweeps on the probability matrix
  /// (0 = off; the paper's future-work correction).
  int refine_iterations = 0;
  bool track_swapped_edges = false;
  /// Invariant checks, recovery policy, and (test-only) fault injection.
  GuardrailConfig guardrails;
  /// Deadlines, cancellation, stall watchdog, checkpoints (off by default).
  GovernanceConfig governance;
  /// Out-of-core spill mode (off by default; see SpillConfig).
  SpillConfig spill;
  /// Telemetry handles (metrics registry / trace sink, both optional and
  /// borrowed). Default null handles keep every instrumentation site at
  /// one branch — the --report-json / --trace-out CLI flags attach real
  /// sinks. See src/obs/ and DESIGN.md §7.
  obs::ObsContext obs;
};

struct GenerateResult {
  EdgeList edges;
  PhaseTimer timing;  // phases: "probabilities", "edge generation", "swaps"
  SwapStats swap_stats;
  ProbabilityDiagnostics probability_diagnostics;
  /// Per-phase invariant checks and what recovery did about violations
  /// (empty when guardrails.policy == RecoveryPolicy::kOff).
  PipelineReport report;
  /// Out-of-core outcome: when spill.spilled, `edges` is empty and the
  /// graph lives in spill.dir (stream it with io/shard_merge.hpp).
  SpillSummary spill;
};

/// Phase 1 on its own: probabilities for `dist` by the chosen method. The
/// optional governor curtails the heuristic at per-row granularity; the
/// optional sink collects exec-layer records under "probabilities".
ProbabilityMatrix generate_probabilities(
    const DegreeDistribution& dist, ProbabilityMethod method,
    int refine_iterations = 0, const RunGovernor* governor = nullptr,
    exec::PhaseTimingSink* timings = nullptr);

/// Problem 2 (Algorithm IV.1): uniformly random simple graph matching
/// `dist` in expectation. Vertex ids follow the DegreeDistribution
/// convention (ascending degree classes, contiguous ids).
/// Under RecoveryPolicy::kStrict the first invariant violation throws a
/// StatusError carrying the typed code (kNotGraphical,
/// kProbabilityOverflow, kNonSimpleOutput, kDegreeMismatch,
/// kSwapStagnation).
GenerateResult generate_null_graph(const DegreeDistribution& dist,
                                   const GenerateConfig& config = {});

/// Problem 1: uniformly randomize an existing edge list while preserving
/// its exact degree sequence and simplicity (pure swap phase). Dirty
/// (multigraph) input is legal — swaps progressively clean it — but if the
/// output is still non-simple the report records kSwapStagnation (chain
/// made no progress) or kNonSimpleOutput, and kRepair finishes the job
/// with the repair pass.
GenerateResult shuffle_graph(EdgeList edges, const GenerateConfig& config = {});

/// Exception-free variants: run with checks at least at kReport strength
/// and fold any violation (or thrown StatusError) into the returned
/// Result's Status instead of throwing.
Result<GenerateResult> generate_null_graph_checked(
    const DegreeDistribution& dist, const GenerateConfig& config = {});
Result<GenerateResult> shuffle_graph_checked(EdgeList edges,
                                             const GenerateConfig& config = {});

/// Continuation of a checkpointed run (see io/checkpoint.hpp): resumes the
/// swap chain from the snapshot's edge list and RNG stream position and
/// runs the remaining iterations. With the same thread count as the
/// original run the final edge list is bit-identical to the uninterrupted
/// one (determinism is a single-thread contract for the parallel swap
/// phase, matching DESIGN.md). GenerateConfig::seed and swap_iterations are
/// ignored — the checkpoint carries both; guardrails (retry-with-reseed,
/// repair, fault injection) and governance apply as in shuffle_graph, with
/// the retry seeds derived from the checkpoint. A snapshot whose degree
/// fingerprint no longer matches its edge list records kCheckpointInvalid
/// (strict: throws).
struct Checkpoint;  // io/checkpoint.hpp
GenerateResult resume_null_graph(const Checkpoint& checkpoint,
                                 const GenerateConfig& config = {});

/// generate_null_graph for an explicit per-vertex target degree sequence:
/// output edges are relabeled so vertex i aims at degrees[i]. Within a
/// degree class vertices are exchangeable, so any consistent relabeling
/// yields the same distribution over graphs; used by the LFR layers.
GenerateResult generate_for_sequence(
    const std::vector<std::uint64_t>& degrees,
    const GenerateConfig& config = {});

}  // namespace nullgraph
