#pragma once
// Out-of-core generation driver (DESIGN.md §10): the spill path of
// generate_null_graph, shard-granular resume, and the fsck engine.
//
// Memory-pressure degradation state machine:
//
//   in-core ──(spill disabled, swap footprint over ceiling)──> kMemoryBudget
//   in-core ──(spill enabled, projected generation footprint
//              over ceiling, or --force-spill)──────────────> SPILL
//   SPILL: write the manifest, then per shard s = 0..S-1 of the
//          canonical unit order (skip/sharded_skip.hpp): generate shard ->
//          CRC-framed atomic commit (io/spill.hpp, bounded-backoff retry)
//          -> shard-local census (ds/shard_census.hpp) -> drop from memory.
//   SPILL ──(all shards committed)──> done: DegradationEvent recorded,
//          edges on disk, swaps skipped (second DegradationEvent).
//   SPILL ──(commit fails after retries)──> typed kIoError check (the
//          shard IS the data; unlike checkpoints the loss is surfaced).
//   SPILL ──(SIGKILL at any byte)──> resume_from_spill: the manifest
//          names every shard; CRC-complete shards are trusted, missing or
//          torn ones regenerate bit-identically from their stateless RNG
//          streams — the final shard set equals the uninterrupted run's.
//          Resume runs the same shard loop, trusting what it finds.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/null_model.hpp"
#include "exec/phase_timing.hpp"
#include "io/spill.hpp"

namespace nullgraph {

/// Projected resident footprint of generating `expected_edges` in-core:
/// the final list, the exec-layer concat transients, and the census table
/// (≈4x raw edge bytes). The spill decision compares this projection —
/// not an observed allocation — so the ceiling is honored BEFORE the
/// allocation that would break it.
std::size_t generation_footprint_bytes(double expected_edges);

/// Shard count that keeps one shard's expected edges within a quarter of
/// the memory ceiling (256 MiB default when unlimited), clamped to
/// [1, unit_count]: a shard is never smaller than one unit.
std::uint64_t auto_shard_count(double expected_edges,
                               std::size_t max_memory_bytes,
                               std::uint64_t unit_count);

/// Pipeline-internal: the spill branch of generate_null_graph, entered
/// after the probability phase with its partial `result` (input +
/// probability checks, phase timings so far). `skip_seed` is the value
/// generate_null_graph would have handed EdgeSkipConfig — sharing it is
/// what makes spilled output bit-identical to the in-core edge list.
GenerateResult generate_null_graph_spilled(
    const DegreeDistribution& dist, const ProbabilityMatrix& P,
    const GenerateConfig& config, const RunGovernor* gov,
    GenerateResult result, exec::PhaseTimingSink* sink,
    std::uint64_t skip_seed);

/// Continues a spilled run from its directory alone: everything needed
/// (distribution, seed, shard plan) comes from the manifest, so a
/// SIGKILLed process resumes with `--resume <dir>` and no other inputs.
/// CRC-valid shards are trusted and re-censused; missing or corrupt ones
/// regenerate bit-identically. config contributes governance, guardrails,
/// and telemetry only (seed/method fields are ignored — the manifest
/// carries them). kIoError when the directory/manifest is unreadable,
/// kShardCorrupt when the manifest is torn.
Result<GenerateResult> resume_from_spill(const std::string& dir,
                                         const GenerateConfig& config);

/// `nullgraph fsck` engine.
struct FsckOptions {
  /// Regenerate missing/corrupt shards from the manifest (bit-identical).
  bool repair = false;
  /// Cross-shard simplicity proof via the external k-way merge census.
  bool deep = false;
};

enum class ShardState {
  kOk,            // CRC-complete, header matches
  kMissing,       // file absent/unopenable
  kCorrupt,       // torn frame, CRC mismatch, or header disagreement
  kRepaired,      // was missing/corrupt, regenerated and re-verified
  kUnrepairable,  // repair was requested but the rewrite failed
};

struct ShardVerdict {
  std::uint64_t shard = 0;
  ShardState state = ShardState::kOk;
  std::uint64_t edges = 0;
  std::string detail;  // empty for kOk

  [[nodiscard]] bool healthy() const noexcept {
    return state == ShardState::kOk || state == ShardState::kRepaired;
  }
};

struct FsckReport {
  std::uint64_t shard_count = 0;
  std::vector<ShardVerdict> shards;
  std::uint64_t total_edges = 0;  // over healthy shards
  bool deep_ran = false;
  SimplicityCensus deep_census;

  [[nodiscard]] bool ok() const noexcept {
    for (const ShardVerdict& v : shards)
      if (!v.healthy()) return false;
    return !deep_ran || deep_census.simple();
  }
};

/// Verifies (and with options.repair, repairs) a spill directory.
/// The Result is an error only when the directory itself is unusable
/// (unreadable or torn manifest); per-shard damage is reported in the
/// verdicts, and callers map !ok() to kShardCorrupt (CLI exit 21).
Result<FsckReport> fsck_spill_dir(const std::string& dir,
                                  const FsckOptions& options = {});

}  // namespace nullgraph
