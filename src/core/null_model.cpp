#include "core/null_model.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <utility>

#include "core/out_of_core.hpp"
#include "exec/exec.hpp"
#include "io/checkpoint.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prob/heuristics.hpp"
#include "robustness/fault_injection.hpp"
#include "robustness/repair.hpp"
#include "skip/edge_skip.hpp"
#include "util/rng.hpp"

namespace nullgraph {

namespace {

/// Marks every earlier failed check of `code` repaired (called once the
/// repair pass has restored the corresponding invariant).
void mark_repaired(PipelineReport& report, StatusCode code) {
  for (PhaseCheck& check : report.checks)
    if (check.status.code() == code) check.repaired = true;
}

/// Estimated swap-phase buffer footprint (edge list + hash table +
/// permutation targets), checked against RunBudget::max_memory_bytes.
std::size_t swap_footprint_bytes(std::size_t m) {
  const std::size_t expected_keys = m + 2 * (m / 2);
  const std::size_t table_capacity =
      std::bit_ceil(expected_keys < 8 ? std::size_t{16} : 2 * expected_keys);
  return m * sizeof(Edge) + table_capacity * sizeof(std::uint64_t) +
         m * sizeof(std::uint64_t);
}

/// Installs the governance fields on a SwapConfig: governor, slow-phase
/// fault, and (when configured) the checkpoint sink that snapshots the
/// chain every `checkpoint_every` completed iterations and at the end.
/// Snapshot writes get one retry after a backoff (ENOSPC/EIO are often
/// transient); a write that fails twice is surfaced as a typed kIoError
/// check in `report` — never thrown, because a failed snapshot must not
/// abort the run it exists to protect.
void wire_swap_governance(SwapConfig& swap_config, const RunGovernor* gov,
                          const GovernanceConfig& governance,
                          const GuardrailConfig& guard,
                          PipelineReport* report) {
  swap_config.governor = gov;
  swap_config.slow_iteration_ms = guard.faults.slow_phase_ms;
  if (gov == nullptr || governance.checkpoint_every == 0 ||
      governance.checkpoint_path.empty())
    return;
  const std::size_t every = governance.checkpoint_every;
  const std::string path = governance.checkpoint_path;
  const std::uint64_t swap_seed = swap_config.seed;
  const obs::ObsContext obs = swap_config.obs;
  // shared_ptr: SwapConfig (and the closure) is copied by value on its way
  // into the swap phase, but the injection countdown must be one counter
  // across all copies or the drill would fail more writes than armed.
  auto inject_left =
      std::make_shared<std::size_t>(guard.faults.fail_checkpoint_writes);
  swap_config.on_iteration = [every, path, swap_seed, obs, report,
                              inject_left](const SwapProgress& p) {
    if (p.completed_iterations % every != 0 &&
        p.completed_iterations != p.total_iterations)
      return;
    Checkpoint ckpt;
    ckpt.swap_seed = swap_seed;
    ckpt.total_iterations = p.total_iterations;
    ckpt.completed_iterations = p.completed_iterations;
    ckpt.chain_state = p.chain_state;
    ckpt.degree_fingerprint = degree_fingerprint(*p.edges);
    ckpt.edges = *p.edges;
    CheckpointRetryPolicy policy;
    policy.inject_io_failures = inject_left.get();
    const Status status = write_checkpoint_with_retry(path, ckpt, policy);
    if (!status.ok()) {
      if (report != nullptr)
        report->checks.push_back({"checkpoint", status, false});
      if (obs.metrics != nullptr)
        obs.metrics->counter("checkpoint.write_failures")->add(1);
    } else if (obs.metrics != nullptr) {
      obs.metrics->counter("checkpoint.writes")->add(1);
    }
    obs::emit_event(obs, obs::EventKind::kCheckpoint, "swaps",
                    static_cast<std::uint64_t>(p.completed_iterations),
                    status.ok() ? "written" : "write failed");
  };
}

SwapStats run_swaps(EdgeList& edges, const SwapConfig& config,
                    bool force_stall) {
  if (force_stall) {
    // Injected stall: the phase "runs" its iterations but commits nothing,
    // reproducing the rare-event MCMC stagnation deterministically. The
    // input census is real (nothing moves between iterations), so the
    // piggybacked simplicity counts stay truthful.
    SwapStats stats;
    stats.iterations.resize(config.iterations - config.start_iteration);
    const SimplicityCensus c = census(edges);
    for (SwapIterationStats& it : stats.iterations) {
      it.input_self_loops = c.self_loops;
      it.input_multi_edges = c.multi_edges;
    }
    return stats;
  }
  return swap_edges(edges, config);
}

bool chain_stalled(const SwapStats& stats) {
  return !stats.iterations.empty() && stats.iterations.back().swapped == 0;
}

/// Census of the edge list as it entered the swap phase, free when at
/// least one iteration ran (the table-refill pass counted it).
SimplicityCensus input_census(const EdgeList& edges, const SwapStats& stats) {
  if (!stats.iterations.empty()) {
    const SwapIterationStats& first = stats.iterations.front();
    return {first.input_self_loops, first.input_multi_edges};
  }
  return census(edges);
}

/// Census of the swap phase's output. Free when the final iteration
/// started clean — committed swaps never create loops or duplicates, so a
/// clean start proves a clean finish; only a dirty chain pays for a real
/// census.
SimplicityCensus output_census(const EdgeList& edges, const SwapStats& stats) {
  if (!stats.iterations.empty()) {
    const SwapIterationStats& last = stats.iterations.back();
    if (last.input_self_loops == 0 && last.input_multi_edges == 0) return {};
  }
  return census(edges);
}

/// Retry-and-repair tail of the guarded swap phase (every policy but
/// kOff). `expected_fp` is the pre-fault degree fingerprint the phase must
/// preserve; `pristine` (kRepair only) is the pre-fault edge list whose
/// exact degrees become the repair target when a repair triggers. When
/// `input_phase` is set, the phase's input simplicity is recorded under
/// that name (generate's "edge generation" check — evaluated from the
/// swap table's free counts, so under kStrict the abort surfaces after
/// the swap pass rather than before it).
void swap_phase_with_recovery(EdgeList& edges, GenerateResult& result,
                              const GuardrailConfig& guard,
                              SwapConfig swap_config,
                              std::uint64_t expected_fp,
                              const EdgeList& pristine,
                              std::uint64_t retry_chain,
                              const char* input_phase) {
  const obs::ObsContext& obs = swap_config.obs;
  result.swap_stats =
      run_swaps(edges, swap_config, guard.faults.force_swap_stall);

  if (input_phase) {
    // kRepair defers to the post-swap repair pass; record the violation
    // now, mark_repaired flips it once the pass succeeds.
    record(result.report,
           guard.policy == RecoveryPolicy::kRepair ? RecoveryPolicy::kReport
                                                   : guard.policy,
           input_phase,
           check_simple(input_census(edges, result.swap_stats)));
  }

  Status simple = check_simple(output_census(edges, result.swap_stats));
  Status degrees = check_degree_fingerprint(expected_fp, edges);

  if (guard.policy == RecoveryPolicy::kRepair) {
    // Retry-with-reseed first: a fresh permutation stream can unstick a
    // stalled chain. Pointless for degree damage (swaps preserve degrees),
    // so only simplicity violations earn retries.
    while (!simple.ok() && degrees.ok() &&
           result.report.retries_used < guard.max_retries) {
      ++result.report.retries_used;
      if (obs.metrics != nullptr)
        obs.metrics->counter("recovery.swap_retries")->add(1);
      if (obs.trace != nullptr) obs.trace->instant("swap retry (reseed)");
      // A resumed chain takes its stream from resume_chain_state, so the
      // reseed goes there too; a fresh chain (start 0) reads `seed`.
      swap_config.seed = swap_config.resume_chain_state =
          splitmix64_next(retry_chain);
      result.swap_stats =
          run_swaps(edges, swap_config, guard.faults.force_swap_stall);
      simple = check_simple(output_census(edges, result.swap_stats));
    }
    if (!simple.ok() || !degrees.ok()) {
      obs::TraceSpan repair_span(obs.trace, "repair pass");
      if (obs.metrics != nullptr)
        obs.metrics->counter("recovery.repairs")->add(1);
      const std::vector<std::uint64_t> target = degrees_of(pristine);
      result.report.repair =
          repair_to_degrees(edges, target, splitmix64_next(retry_chain));
      if (check_simple(edges).ok()) {
        mark_repaired(result.report, StatusCode::kNonSimpleOutput);
        mark_repaired(result.report, StatusCode::kSwapStagnation);
      }
      if (check_degrees_preserved(target, edges).ok())
        mark_repaired(result.report, StatusCode::kDegreeMismatch);
      if (!result.report.repair.complete())
        record(result.report, guard.policy, "repair",
               Status(StatusCode::kRepairIncomplete,
                      std::to_string(result.report.repair.residual_deficit) +
                          " deficit stubs unplaced"));
    }
  }

  // Classify a persistent simplicity failure: no progress in the final
  // iteration means the chain stagnated rather than merely ran short.
  if (!simple.ok() && chain_stalled(result.swap_stats))
    simple = Status(StatusCode::kSwapStagnation,
                    "swap chain made no progress (" + simple.message() + ")");
  const bool simple_fixed = !simple.ok() && check_simple(edges).ok();
  record(result.report, guard.policy, "swaps", std::move(simple),
         simple_fixed);
  const bool degrees_fixed =
      !degrees.ok() && check_degree_fingerprint(expected_fp, edges).ok();
  record(result.report, guard.policy, "degrees", std::move(degrees),
         degrees_fixed);
}

/// What differs between the swap phases of generate, shuffle and resume.
struct SwapPlan {
  std::size_t iterations = 0;
  std::uint64_t seed = 0;
  /// kRepair's reseed stream: retry k runs on its k-th draw.
  std::uint64_t retry_chain = 0;
  /// Resume only: the checkpoint's chain position, and the degree
  /// fingerprint it recorded for its edge list.
  std::size_t start_iteration = 0;
  std::uint64_t resume_chain_state = 0;
  std::optional<std::uint64_t> checkpoint_fp;
  /// Generate only: the phase whose output is the swap input.
  const char* input_phase = nullptr;
};

/// The guarded swap phase (Algorithm III.1 under guardrails and
/// governance) on result.edges: the tail of generate, all of shuffle, the
/// rest of a resumed chain.
void guarded_swap_phase(GenerateResult& result, const GenerateConfig& config,
                        const RunGovernor* gov, exec::PhaseTimingSink& sink,
                        const SwapPlan& plan) {
  const GuardrailConfig& guard = config.guardrails;
  // Snapshot of the input, taken before faults can damage it: a streaming
  // degree fingerprint for the preservation check, plus (under kRepair
  // only) a copy of the edge list — cheaper than counting degrees up
  // front, and the exact repair target is derived from it on demand.
  std::uint64_t expected_fp = 0;
  EdgeList pristine;
  if (guard.policy != RecoveryPolicy::kOff) {
    expected_fp = degree_fingerprint(result.edges);
    // A checkpoint's fingerprint was computed from its own edge list when
    // it was written, so a mismatch means memory corruption or a tampered
    // file that still passes CRC — reject rather than resume a broken chain.
    if (plan.checkpoint_fp)
      record(result.report, guard.policy, "checkpoint",
             expected_fp == *plan.checkpoint_fp
                 ? Status::Ok()
                 : Status(StatusCode::kCheckpointInvalid,
                          "degree fingerprint does not match snapshot"));
    if (guard.policy == RecoveryPolicy::kRepair) pristine = result.edges;
  }
  if (guard.faults.edge_faults())
    result.report.faults_injected =
        inject_edge_faults(result.edges, guard.faults, config.obs);

  result.timing.start("swaps");
  {
    obs::TraceSpan span(config.obs.trace, "swaps");
    obs::PhaseEventScope events(config.obs, "swaps");
    SwapConfig swap_config;
    swap_config.iterations = plan.iterations;
    swap_config.seed = plan.seed;
    swap_config.start_iteration = plan.start_iteration;
    swap_config.resume_chain_state = plan.resume_chain_state;
    swap_config.track_swapped_edges = config.track_swapped_edges;
    swap_config.timings = &sink;
    swap_config.obs = config.obs;
    wire_swap_governance(swap_config, gov, config.governance, guard,
                         &result.report);
    // The memory ceiling is checked against the phase's estimated footprint
    // BEFORE swap_edges allocates; a trip makes the phase return immediately
    // with its input as best-so-far.
    if (gov != nullptr)
      (void)gov->memory_exceeded(swap_footprint_bytes(result.edges.size()));
    if (guard.policy == RecoveryPolicy::kOff)
      result.swap_stats = swap_edges(result.edges, swap_config);
    else
      swap_phase_with_recovery(result.edges, result, guard, swap_config,
                               expected_fp, pristine, plan.retry_chain,
                               plan.input_phase);
  }
  result.timing.stop();
  record_curtailment(result.report, gov, config.obs, "swaps",
                     result.swap_stats.iterations.size(),
                     plan.iterations - plan.start_iteration,
                     result.swap_stats.acceptance());
  result.report.phase_timings = sink.snapshot();
}

template <typename Fn>
auto run_checked(Fn&& fn) -> Result<decltype(fn())> {
  try {
    auto result = fn();
    Status err = result.report.first_error();
    if (!err.ok()) return err;
    return result;  // implicit move into Result<T>
  } catch (const StatusError& error) {
    return error.status();
  } catch (const std::exception& error) {
    return Status(StatusCode::kInternal, error.what());
  }
}

}  // namespace

ProbabilityMatrix generate_probabilities(const DegreeDistribution& dist,
                                         ProbabilityMethod method,
                                         int refine_iterations,
                                         const RunGovernor* governor,
                                         exec::PhaseTimingSink* timings) {
  ProbabilityMatrix matrix;
  switch (method) {
    case ProbabilityMethod::kGreedyAllocation:
      matrix = greedy_probabilities(dist, 32, governor);
      break;
    case ProbabilityMethod::kPaperStubMatching:
      matrix = stub_matching_probabilities(dist, governor);
      break;
    case ProbabilityMethod::kChungLu:
      matrix = chung_lu_probabilities(dist, governor, timings);
      break;
  }
  if (refine_iterations > 0)
    refine_probabilities(matrix, dist, refine_iterations, governor, timings);
  return matrix;
}

GenerateResult generate_null_graph(const DegreeDistribution& dist,
                                   const GenerateConfig& config) {
  GenerateResult result;
  const GuardrailConfig& guard = config.guardrails;
  const bool checking = guard.policy != RecoveryPolicy::kOff;
  std::uint64_t seed_chain = config.seed;

  // The governor is constructed here (starting the deadline clock) and
  // threaded through every phase; a null pointer keeps the phases on their
  // historical ungoverned paths. The timing sink collects exec-layer
  // chunk/wall records from every phase into report.phase_timings.
  const GovernorScope governor(config.governance);
  const RunGovernor* gov = governor.get();
  exec::PhaseTimingSink sink;

  // A non-graphical input has no repair (we never rewrite the caller's
  // distribution): strict aborts, other policies record and proceed with
  // the usual best-effort realization.
  if (checking)
    record(result.report, guard.policy, "input", check_graphical(dist));

  result.timing.start("probabilities");
  ProbabilityMatrix P;
  {
    obs::TraceSpan span(config.obs.trace, "probabilities");
    obs::PhaseEventScope events(config.obs, "probabilities");
    P = generate_probabilities(dist, config.probability_method,
                               config.refine_iterations, gov, &sink);
  }
  result.timing.stop();
  record_curtailment(result.report, gov, config.obs, "probabilities", 0,
                     dist.num_classes());
  if (guard.faults.corrupt_prob_entries > 0)
    result.report.prob_entries_corrupted =
        inject_probability_faults(P, guard.faults, config.obs);
  if (checking) {
    Status status = check_probability_matrix(P, dist);
    bool repaired = false;
    if (!status.ok() && guard.policy == RecoveryPolicy::kRepair) {
      result.report.probability_entries_sanitized = sanitize_probabilities(P);
      repaired = check_probability_matrix(P, dist).ok();
    }
    record(result.report, guard.policy, "probabilities", std::move(status),
           repaired);
  }
  result.probability_diagnostics = diagnose(P, dist);

  // Out-of-core branch: when spill mode is armed and the projected
  // generation footprint would cross the memory ceiling (or --force-spill
  // is set), the ceiling DEGRADES the run to disk instead of tripping
  // kMemoryBudget. The spill driver consumes the same seed-chain draw the
  // in-core edge phase would, so shard concatenation is bit-identical to
  // the list this function would have produced.
  if (config.spill.enabled) {
    const std::size_t projected =
        generation_footprint_bytes(P.expected_edges(dist));
    if (config.spill.force ||
        (gov != nullptr && gov->would_exceed_memory(projected)))
      return generate_null_graph_spilled(dist, P, config, gov,
                                         std::move(result), &sink,
                                         splitmix64_next(seed_chain));
  }

  result.timing.start("edge generation");
  {
    obs::TraceSpan span(config.obs.trace, "edge generation");
    obs::PhaseEventScope events(config.obs, "edge generation");
    EdgeSkipConfig skip_config;
    skip_config.seed = splitmix64_next(seed_chain);
    skip_config.governor = gov;
    skip_config.timings = &sink;
    result.edges = edge_skip_generate(P, dist, skip_config);
  }
  result.timing.stop();
  record_curtailment(result.report, gov, config.obs, "edge generation",
                     result.edges.size(), 0);

  SwapPlan plan;
  plan.iterations = config.swap_iterations;
  plan.seed = splitmix64_next(seed_chain);
  plan.retry_chain = splitmix64_next(seed_chain);
  plan.input_phase = "edge generation";
  guarded_swap_phase(result, config, gov, sink, plan);
  return result;
}

GenerateResult shuffle_graph(EdgeList edges, const GenerateConfig& config) {
  GenerateResult result;
  result.edges = std::move(edges);
  std::uint64_t seed_chain = config.seed;
  const GovernorScope governor(config.governance);
  exec::PhaseTimingSink sink;
  // The input's own degree sequence is the contract. No input simplicity
  // check: dirty shuffle inputs are legitimate — the swap chain is the
  // documented multigraph cleaner.
  SwapPlan plan;
  plan.iterations = config.swap_iterations;
  plan.seed = splitmix64_next(seed_chain);
  plan.retry_chain = splitmix64_next(seed_chain);
  guarded_swap_phase(result, config, governor.get(), sink, plan);
  return result;
}

GenerateResult resume_null_graph(const Checkpoint& checkpoint,
                                 const GenerateConfig& config) {
  GenerateResult result;
  result.edges = checkpoint.edges;
  const GovernorScope governor(config.governance);
  exec::PhaseTimingSink sink;
  SwapPlan plan;
  plan.iterations = static_cast<std::size_t>(checkpoint.total_iterations);
  plan.seed = checkpoint.swap_seed;
  // The retry stream comes from the checkpoint alone, so a resumed kRepair
  // run is as reproducible as an uninterrupted one.
  plan.retry_chain = checkpoint.chain_state ^ 0x2545f4914f6cdd1dULL;
  plan.start_iteration =
      static_cast<std::size_t>(checkpoint.completed_iterations);
  plan.resume_chain_state = checkpoint.chain_state;
  plan.checkpoint_fp = checkpoint.degree_fingerprint;
  guarded_swap_phase(result, config, governor.get(), sink, plan);
  return result;
}

Result<GenerateResult> generate_null_graph_checked(
    const DegreeDistribution& dist, const GenerateConfig& config) {
  GenerateConfig checked = config;
  if (checked.guardrails.policy == RecoveryPolicy::kOff)
    checked.guardrails.policy = RecoveryPolicy::kReport;
  return run_checked([&] { return generate_null_graph(dist, checked); });
}

Result<GenerateResult> shuffle_graph_checked(EdgeList edges,
                                             const GenerateConfig& config) {
  GenerateConfig checked = config;
  if (checked.guardrails.policy == RecoveryPolicy::kOff)
    checked.guardrails.policy = RecoveryPolicy::kReport;
  return run_checked(
      [&] { return shuffle_graph(std::move(edges), checked); });
}

GenerateResult generate_for_sequence(const std::vector<std::uint64_t>& degrees,
                                     const GenerateConfig& config) {
  const DegreeDistribution dist =
      DegreeDistribution::from_degree_sequence(degrees);
  GenerateResult result = generate_null_graph(dist, config);
  // The generator numbers vertices by ascending degree class; map id k back
  // to the k-th caller vertex in ascending-degree order (stable, so the
  // mapping is deterministic).
  std::vector<VertexId> by_degree(degrees.size());
  std::iota(by_degree.begin(), by_degree.end(), 0u);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return degrees[a] < degrees[b];
                   });
  // Ungoverned: a skipped relabel chunk would leave a mixed id space.
  const exec::ParallelContext relabel_ctx;
  exec::for_chunks(relabel_ctx, result.edges.size(), exec::kDefaultGrain,
                   [&](const exec::Chunk& chunk) {
                     for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                       Edge& e = result.edges[i];
                       e = {by_degree[e.u], by_degree[e.v]};
                     }
                   });
  return result;
}

}  // namespace nullgraph
