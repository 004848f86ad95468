#include "core/out_of_core.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ds/shard_census.hpp"
#include "io/shard_merge.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "skip/sharded_skip.hpp"
#include "util/rng.hpp"

namespace nullgraph {

namespace {

std::string mib_string(std::size_t bytes) {
  return std::to_string((bytes + (std::size_t{1} << 20) - 1) >> 20) + " MiB";
}

/// Borrowed spill-phase instruments, all null when no registry is attached.
struct SpillInstruments {
  obs::Counter* shards_written = nullptr;
  obs::Counter* shards_reused = nullptr;
  obs::Counter* edges_spilled = nullptr;
  obs::Counter* bytes_written = nullptr;
  obs::Counter* write_retries = nullptr;
  obs::Counter* write_failures = nullptr;
  obs::Gauge* shard_count = nullptr;
  obs::Gauge* max_shard_edges = nullptr;
};

SpillInstruments spill_instruments(const obs::ObsContext& obs) {
  SpillInstruments ins;
  if (obs.metrics == nullptr) return ins;
  ins.shards_written = obs.metrics->counter("spill.shards_written");
  ins.shards_reused = obs.metrics->counter("spill.shards_reused");
  ins.edges_spilled = obs.metrics->counter("spill.edges_spilled");
  ins.bytes_written = obs.metrics->counter("spill.bytes_written");
  ins.write_retries = obs.metrics->counter("spill.write_retries");
  ins.write_failures = obs.metrics->counter("spill.write_failures");
  ins.shard_count = obs.metrics->gauge("spill.shard_count");
  ins.max_shard_edges = obs.metrics->gauge("spill.max_shard_edges");
  return ins;
}

/// Everything that regenerates a run's shards bit-identically: the
/// generation inputs (borrowed), the shard plan, and the skip seed and
/// task size in `skip_config`, whose governor also bounds the loop.
struct ShardSource {
  const DegreeDistribution* dist = nullptr;
  const ProbabilityMatrix* P = nullptr;
  SkipShardPlan plan;
  EdgeSkipConfig skip_config;
  std::string dir;
  std::uint64_t shard_count = 0;
};

/// Rebuilds the generation inputs a spill directory's manifest describes:
/// the degree distribution, the probability matrix (same method/refine as
/// the original run), and the shard plan, into `dist`, `P` and `src`.
/// Deterministic — the manifest's seed/edges_per_task land in
/// `src.skip_config`, so regenerated shards are bit-identical to the
/// originals. kShardCorrupt when the manifest's fields cannot name a
/// valid pipeline.
Status pipeline_from_manifest(const ShardManifest& manifest,
                              const std::string& dir, const RunGovernor* gov,
                              exec::PhaseTimingSink* sink,
                              DegreeDistribution& dist, ProbabilityMatrix& P,
                              ShardSource& src) {
  if (manifest.probability_method >
      static_cast<std::uint64_t>(ProbabilityMethod::kChungLu))
    return Status(StatusCode::kShardCorrupt,
                  "manifest probability method " +
                      std::to_string(manifest.probability_method) +
                      " is not a known heuristic");
  std::vector<DegreeClass> classes;
  classes.reserve(manifest.classes.size());
  for (const auto& [degree, count] : manifest.classes)
    classes.push_back({degree, count});
  try {
    dist = DegreeDistribution(std::move(classes));
  } catch (const std::exception& error) {
    return Status(StatusCode::kShardCorrupt,
                  std::string("manifest degree classes invalid: ") +
                      error.what());
  }
  if (dist.empty() || manifest.shard_count == 0 ||
      manifest.edges_per_task == 0)
    return Status(StatusCode::kShardCorrupt,
                  "manifest names an empty run (no classes/shards)");
  P = generate_probabilities(
      dist, static_cast<ProbabilityMethod>(manifest.probability_method),
      static_cast<int>(manifest.refine_iterations), gov, sink);
  src.dist = &dist;
  src.P = &P;
  src.skip_config.seed = manifest.seed;
  src.skip_config.edges_per_task = manifest.edges_per_task;
  src.skip_config.governor = gov;
  src.skip_config.timings = sink;
  src.plan = plan_edge_skip(P, dist, src.skip_config);
  src.dir = dir;
  src.shard_count = manifest.shard_count;
  return Status::Ok();
}

/// One shard's regenerate-and-commit step, shared by the spill loop and
/// fsck --repair.
struct ShardCommit {
  EdgeList edges;
  /// Governance stopped the run mid-shard: the partial unit range was NOT
  /// committed (a later resume regenerates the shard whole).
  bool stopped = false;
  Status status;  // the atomic commit's outcome
  SpillWriteStats wstats;
};

ShardCommit regenerate_shard(const ShardSource& src, std::uint64_t s,
                             const CheckpointRetryPolicy& policy) {
  ShardCommit commit;
  commit.edges = edge_skip_generate_shard(*src.P, *src.dist, src.plan,
                                          src.skip_config, s, src.shard_count);
  const RunGovernor* gov = src.skip_config.governor;
  commit.stopped = gov != nullptr && gov->stopped();
  if (!commit.stopped)
    commit.status = write_spill_shard(src.dir, s, src.shard_count,
                                      commit.edges, policy, &commit.wstats);
  return commit;
}

/// Trusts shard `s` when its file is CRC-complete and its header names
/// this run's geometry (anything else — missing, torn, another run's —
/// is regenerated). With a census, one streaming pass verifies AND
/// yields the edges it needs.
bool reuse_shard(const ShardSource& src, std::uint64_t s,
                 ShardLocalCensus* shard_census, std::uint64_t& edges_out) {
  const std::string path = shard_path(src.dir, s);
  SpillShardInfo info;
  if (shard_census == nullptr) {
    if (!validate_spill_shard(path, s, src.shard_count, &info).ok())
      return false;
    edges_out = info.edge_count;
    return true;
  }
  EdgeList edges;
  const Status read = read_spill_shard_blocks(
      path,
      [&edges](const Edge* block, std::size_t n) {
        edges.insert(edges.end(), block, block + n);
      },
      &info);
  if (!read.ok() || info.shard_index != s ||
      info.shard_count != src.shard_count)
    return false;
  shard_census->add_shard(edges);
  edges_out = edges.size();
  return true;
}

/// The swap phase cannot run against a graph that never materializes in
/// memory; every spilled run records that as a degradation, not a failure.
void record_swaps_skipped(PipelineReport& report, std::size_t iterations) {
  if (iterations == 0) return;
  report.degradations.push_back(
      {"swaps", "skipped", StatusCode::kMemoryBudget,
       "out-of-core graph stays on disk; rerun in-core (or raise "
       "--max-memory-mb) to mix via swaps"});
}

/// The spill shard loop. A fresh spill (`trust_existing` false) writes the
/// manifest first and generates every shard; resume_from_spill (true)
/// trusts every shard reuse_shard accepts and regenerates the rest. Serial
/// across shards (each shard is parallel inside): at most ONE shard's
/// edges + census table are resident at a time, which is the
/// bounded-memory contract the shard count was sized for.
void spill_shards(const ShardSource& src, bool trust_existing,
                  const GenerateConfig& config, GenerateResult& result) {
  const GuardrailConfig& guard = config.guardrails;
  const bool checking = guard.policy != RecoveryPolicy::kOff;
  const SpillInstruments ins = spill_instruments(config.obs);
  const RunGovernor* gov = src.skip_config.governor;
  const std::uint64_t shard_count = src.shard_count;
  result.spill.spilled = true;
  result.spill.dir = src.dir;
  result.spill.shard_count = shard_count;
  if (ins.shard_count != nullptr)
    ins.shard_count->set(static_cast<std::int64_t>(shard_count));

  if (!trust_existing) {
    Status setup = ensure_spill_dir(src.dir);
    if (setup.ok()) {
      ShardManifest manifest;
      manifest.seed = src.skip_config.seed;
      manifest.edges_per_task = src.skip_config.edges_per_task;
      manifest.shard_count = shard_count;
      manifest.probability_method =
          static_cast<std::uint64_t>(config.probability_method);
      manifest.refine_iterations =
          static_cast<std::uint64_t>(std::max(config.refine_iterations, 0));
      manifest.classes.reserve(src.dist->num_classes());
      for (const DegreeClass& c : src.dist->classes())
        manifest.classes.push_back({c.degree, c.count});
      setup = write_shard_manifest(src.dir, manifest);
    }
    if (!setup.ok()) {
      if (ins.write_failures != nullptr) ins.write_failures->add(1);
      record(result.report, guard.policy, "spill", std::move(setup));
      return;
    }
  }

  ShardLocalCensus shard_census;
  // Bounded exponential backoff, the injection countdown armed from
  // FaultPlan::fail_spill_writes, retries counted.
  std::size_t inject_left = guard.faults.fail_spill_writes;
  CheckpointRetryPolicy policy;
  policy.inject_io_failures = &inject_left;
  policy.retries = ins.write_retries;
  Status write_status = Status::Ok();
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    if (gov != nullptr && gov->stopped()) break;
    std::uint64_t shard_edges = 0;
    if (trust_existing &&
        reuse_shard(src, s, checking ? &shard_census : nullptr,
                    shard_edges)) {
      ++result.spill.shards_reused;
      if (ins.shards_reused != nullptr) ins.shards_reused->add(1);
    } else {
      if (guard.faults.slow_phase_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(guard.faults.slow_phase_ms));
      const ShardCommit commit = regenerate_shard(src, s, policy);
      if (commit.stopped) break;
      write_status = commit.status;
      if (!write_status.ok()) break;
      if (checking) shard_census.add_shard(commit.edges);
      shard_edges = commit.edges.size();
      ++result.spill.shards_written;
      if (ins.shards_written != nullptr) ins.shards_written->add(1);
      if (ins.edges_spilled != nullptr) ins.edges_spilled->add(shard_edges);
      if (ins.bytes_written != nullptr)
        ins.bytes_written->add(commit.wstats.bytes_written);
      if (config.obs.events != nullptr) {
        // Per committed SHARD (not per edge): firmly outside the hot loop.
        const std::string detail =
            "shard " + std::to_string(s) + "/" + std::to_string(shard_count) +
            (trust_existing ? " regenerated" : "");
        obs::emit_event(config.obs, obs::EventKind::kShardCommit,
                        "edge generation", shard_edges, detail);
      }
    }
    result.spill.edges_on_disk += shard_edges;
    result.spill.max_shard_edges =
        std::max(result.spill.max_shard_edges, shard_edges);
  }
  if (ins.max_shard_edges != nullptr)
    ins.max_shard_edges->set(
        static_cast<std::int64_t>(result.spill.max_shard_edges));

  const std::uint64_t visited =
      result.spill.shards_written + result.spill.shards_reused;
  record_curtailment(result.report, gov, config.obs, "edge generation",
                     visited, shard_count);
  if (!write_status.ok()) {
    // Unlike a checkpoint, the shard IS the data: a commit that failed
    // even after the backoff retries fails the phase, typed.
    if (ins.write_failures != nullptr) ins.write_failures->add(1);
    record(result.report, guard.policy, "spill", std::move(write_status));
    return;
  }
  if (visited != shard_count) return;
  if (trust_existing) {
    result.report.degradations.push_back(
        {"edge generation", "resume-from-spill", StatusCode::kOk,
         std::to_string(result.spill.shards_reused) + " shards reused, " +
             std::to_string(result.spill.shards_written) +
             " regenerated -> " + src.dir});
    obs::emit_event(config.obs, obs::EventKind::kDegradation,
                    "edge generation", visited,
                    result.report.degradations.back().detail);
  }
  if (checking) {
    // Complete spill: the folded shard-local censuses are a full
    // simplicity proof (shards partition the candidate-pair space).
    record(result.report,
           guard.policy == RecoveryPolicy::kRepair ? RecoveryPolicy::kReport
                                                   : guard.policy,
           "edge generation", check_simple(shard_census.total()));
    record_swaps_skipped(result.report, config.swap_iterations);
  }
}

}  // namespace

std::size_t generation_footprint_bytes(double expected_edges) {
  if (!(expected_edges > 0.0)) return 0;
  const double raw = expected_edges * static_cast<double>(sizeof(Edge));
  // Final list + exec concat transient + census table ≈ 4x raw edge bytes.
  return static_cast<std::size_t>(raw * 4.0);
}

std::uint64_t auto_shard_count(double expected_edges,
                               std::size_t max_memory_bytes,
                               std::uint64_t unit_count) {
  const std::size_t kDefaultTarget = std::size_t{256} << 20;
  const std::size_t ceiling =
      max_memory_bytes != 0 ? max_memory_bytes : kDefaultTarget;
  // A shard's resident cost is ~4x its raw edge bytes (list + census
  // table + transients), so a quarter-ceiling target keeps the whole
  // phase within the ceiling. Floor of 64 KiB: below that the frame
  // overhead dominates and shard counts explode.
  const std::size_t target =
      std::max<std::size_t>(ceiling / 4, std::size_t{64} << 10);
  const double raw =
      std::max(expected_edges, 0.0) * static_cast<double>(sizeof(Edge));
  const std::uint64_t shards =
      static_cast<std::uint64_t>(raw / static_cast<double>(target)) + 1;
  const std::uint64_t cap = std::max<std::uint64_t>(unit_count, 1);
  return std::clamp<std::uint64_t>(shards, 1, cap);
}

GenerateResult generate_null_graph_spilled(
    const DegreeDistribution& dist, const ProbabilityMatrix& P,
    const GenerateConfig& config, const RunGovernor* gov,
    GenerateResult result, exec::PhaseTimingSink* sink,
    std::uint64_t skip_seed) {
  result.timing.start("edge generation");
  {
    obs::TraceSpan span(config.obs.trace, "edge generation (spill)");

    ShardSource src;
    src.dist = &dist;
    src.P = &P;
    src.dir = config.spill.dir;
    src.skip_config.seed = skip_seed;
    src.skip_config.governor = gov;
    src.skip_config.timings = sink;
    src.plan = plan_edge_skip(P, dist, src.skip_config);

    const std::size_t ceiling =
        gov != nullptr ? gov->budget().max_memory_bytes : 0;
    src.shard_count =
        config.spill.shard_count != 0
            ? std::max<std::uint64_t>(config.spill.shard_count, 1)
            : auto_shard_count(src.plan.expected_edges, ceiling,
                               src.plan.unit_count());
    const std::size_t projected =
        generation_footprint_bytes(src.plan.expected_edges);
    const bool over_ceiling =
        gov != nullptr && gov->would_exceed_memory(projected);

    // The degradation is recorded up front — visible in the report even
    // when a later shard write fails and the run surfaces kIoError.
    {
      DegradationEvent event;
      event.phase = "edge generation";
      event.action = "spill-to-disk";
      event.trigger =
          over_ceiling ? StatusCode::kMemoryBudget : StatusCode::kOk;
      event.detail = "projected " + mib_string(projected) +
                     (over_ceiling ? " exceeds ceiling " + mib_string(ceiling)
                                   : " (forced)") +
                     "; " + std::to_string(src.shard_count) + " shards -> " +
                     config.spill.dir;
      obs::emit_event(config.obs, obs::EventKind::kDegradation,
                      "edge generation", src.shard_count, event.detail);
      result.report.degradations.push_back(std::move(event));
    }
    if (config.obs.trace != nullptr)
      config.obs.trace->instant("spill-to-disk");

    spill_shards(src, /*trust_existing=*/false, config, result);
  }
  result.timing.stop();
  result.report.phase_timings = sink->snapshot();
  return result;
}

Result<GenerateResult> resume_from_spill(const std::string& dir,
                                         const GenerateConfig& config) {
  Result<ShardManifest> manifest_result = read_shard_manifest(dir);
  if (!manifest_result.ok()) return manifest_result.status();
  const ShardManifest manifest = std::move(manifest_result).value();

  GenerateResult result;
  const GuardrailConfig& guard = config.guardrails;
  const GovernorScope governor(config.governance);
  exec::PhaseTimingSink sink;

  try {
    // Rebuild the pipeline the manifest describes: same distribution,
    // heuristic, seed, and plan as the interrupted run.
    result.timing.start("probabilities");
    DegreeDistribution dist;
    ProbabilityMatrix P;
    ShardSource src;
    Status rebuilt;
    {
      obs::TraceSpan span(config.obs.trace, "probabilities");
      rebuilt = pipeline_from_manifest(manifest, dir, governor.get(), &sink,
                                       dist, P, src);
    }
    result.timing.stop();
    if (!rebuilt.ok()) return rebuilt;
    if (guard.policy != RecoveryPolicy::kOff) {
      record(result.report, guard.policy, "input", check_graphical(dist));
      record(result.report, guard.policy, "probabilities",
             check_probability_matrix(P, dist));
    }
    result.probability_diagnostics = diagnose(P, dist);

    result.timing.start("edge generation");
    {
      obs::TraceSpan span(config.obs.trace, "edge generation (resume)");
      spill_shards(src, /*trust_existing=*/true, config, result);
    }
    result.timing.stop();
  } catch (const StatusError& error) {
    return error.status();
  }
  result.report.phase_timings = sink.snapshot();
  return result;
}

Result<FsckReport> fsck_spill_dir(const std::string& dir,
                                  const FsckOptions& options) {
  Result<ShardManifest> manifest_result = read_shard_manifest(dir);
  if (!manifest_result.ok()) return manifest_result.status();
  const ShardManifest manifest = std::move(manifest_result).value();

  FsckReport report;
  report.shard_count = manifest.shard_count;
  report.shards.reserve(manifest.shard_count);

  // Repair inputs are rebuilt lazily: a clean directory never pays for the
  // probability phase.
  bool ctx_ready = false;
  DegreeDistribution dist;
  ProbabilityMatrix P;
  ShardSource src;
  exec::PhaseTimingSink sink;
  std::size_t inject_left = 0;  // fsck never injects write faults
  CheckpointRetryPolicy policy;
  policy.inject_io_failures = &inject_left;

  for (std::uint64_t s = 0; s < manifest.shard_count; ++s) {
    const std::string path = shard_path(dir, s);
    ShardVerdict verdict;
    verdict.shard = s;
    SpillShardInfo info;
    const Status status =
        validate_spill_shard(path, s, manifest.shard_count, &info);
    if (status.ok()) {
      verdict.state = ShardState::kOk;
      verdict.edges = info.edge_count;
    } else {
      verdict.state = status.code() == StatusCode::kIoError
                          ? ShardState::kMissing
                          : ShardState::kCorrupt;
      verdict.detail = status.message();
      if (options.repair) {
        if (!ctx_ready) {
          const Status rebuilt = pipeline_from_manifest(
              manifest, dir, nullptr, &sink, dist, P, src);
          if (!rebuilt.ok()) return rebuilt;  // directory not trustworthy
          ctx_ready = true;
        }
        const Status rewrite = regenerate_shard(src, s, policy).status;
        if (rewrite.ok() &&
            validate_spill_shard(path, s, manifest.shard_count, &info).ok()) {
          verdict.state = ShardState::kRepaired;
          verdict.edges = info.edge_count;
        } else {
          verdict.state = ShardState::kUnrepairable;
          verdict.detail += rewrite.ok()
                                ? "; rewrite did not verify"
                                : "; rewrite failed: " + rewrite.message();
        }
      }
    }
    if (verdict.healthy()) report.total_edges += verdict.edges;
    report.shards.push_back(std::move(verdict));
  }

  bool all_healthy = true;
  for (const ShardVerdict& v : report.shards)
    if (!v.healthy()) all_healthy = false;
  if (options.deep && all_healthy && manifest.shard_count > 0) {
    Result<SimplicityCensus> deep =
        merged_census_external(dir, manifest.shard_count);
    if (!deep.ok()) return deep.status();
    report.deep_ran = true;
    report.deep_census = std::move(deep).value();
  }
  return report;
}

}  // namespace nullgraph
