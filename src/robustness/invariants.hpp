#pragma once
// Per-phase invariant checks and the PipelineReport they accumulate into.
//
// Each phase of Algorithm IV.1 has a property the correctness argument
// leans on but the code historically never verified at runtime:
//   input           the distribution is graphical (Erdős–Gallai)
//   probabilities   every entry finite and in [0,1]; expected degrees
//                   close to target
//   edge generation simple output (census-based)
//   swaps           simplicity no worse, degree sequence preserved
// check_* functions verify one property and return a typed Status;
// PipelineReport records one PhaseCheck per check plus what recovery did
// about any violation. GuardrailConfig selects how violations are handled.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ds/degree_distribution.hpp"
#include "ds/edge_list.hpp"
#include "exec/phase_timing.hpp"
#include "obs/obs_context.hpp"
#include "prob/probability_matrix.hpp"
#include "robustness/fault_injection.hpp"
#include "robustness/governance.hpp"
#include "robustness/repair.hpp"
#include "robustness/status.hpp"

namespace nullgraph {

enum class RecoveryPolicy {
  kOff,     // no checks, no report (the pre-guardrail fast path)
  kReport,  // default: run checks, record violations, never alter output
  kStrict,  // first violation aborts with its typed StatusError
  kRepair,  // retry-with-reseed, then repair pass; report what was done
};

struct GuardrailConfig {
  RecoveryPolicy policy = RecoveryPolicy::kReport;
  /// Swap-phase retries with a reseeded chain before repair kicks in
  /// (kRepair only).
  std::size_t max_retries = 2;
  /// Seeded fault injection; inert unless armed (see fault_injection.hpp).
  FaultPlan faults;
};

struct PhaseCheck {
  std::string phase;   // "input", "probabilities", "edge generation", "swaps"
  Status status;       // violation found by the check (kOk when clean)
  bool repaired = false;  // recovery restored the invariant afterwards

  /// A check "holds" when the invariant was clean or has been repaired.
  bool holds() const noexcept { return status.ok() || repaired; }
};

/// One phase cut short by run governance (deadline, cancellation, stall
/// watchdog, or memory budget). Informational, never a failed check: a
/// curtailed run still returns its best-so-far graph, and kStrict does not
/// throw on curtailments — the caller reads the typed reason instead.
struct Curtailment {
  std::string phase;       // which phase was cut short
  StatusCode reason = StatusCode::kOk;  // kDeadlineExceeded / kCancelled / ...
  /// Work completed when the cut happened, e.g. swap iterations finished
  /// out of those requested.
  std::size_t completed = 0;
  std::size_t requested = 0;
  /// Swap phase only: accepted-swap fraction over the whole chain so far —
  /// "how mixed" the returned graph is. 0 for non-swap phases.
  double acceptance = 0.0;
};

/// One graceful-degradation decision: the run KEPT GOING in a reduced mode
/// instead of tripping a budget abort. Curtailment's sibling — curtailments
/// record work cut short, degradations record work re-routed (the memory
/// ceiling's spill-and-continue path: "edge generation" re-routed to disk,
/// "swaps" skipped because the graph never materializes in memory).
/// Informational like curtailments: never a failed check, never an abort,
/// and never an exit-code change — the run report is where they surface.
struct DegradationEvent {
  std::string phase;   // phase that degraded
  std::string action;  // what it did instead, e.g. "spill-to-disk"
  StatusCode trigger = StatusCode::kOk;  // budget that WOULD have tripped
  std::string detail;  // specifics for the report (dir, shard count, ...)
};

struct PipelineReport {
  std::vector<PhaseCheck> checks;
  std::vector<Curtailment> curtailments;
  std::vector<DegradationEvent> degradations;
  /// Per-phase execution records from the exec layer: wall time, chunk
  /// counts, and how many chunks governance skipped. Aggregated by phase
  /// name (see exec/phase_timing.hpp).
  std::vector<exec::PhaseTiming> phase_timings;
  std::size_t retries_used = 0;
  RepairStats repair;
  std::size_t probability_entries_sanitized = 0;
  /// What seeded fault injection actually did to this run (all zero when
  /// the FaultPlan was inert). Recorded so an injected fault is visible in
  /// the --report-json output, not just in the damage it causes.
  EdgeFaultStats faults_injected;
  std::size_t prob_entries_corrupted = 0;
  /// First governance stop reason, kOk for a run that went the distance.
  StatusCode curtailed_by() const noexcept {
    return curtailments.empty() ? StatusCode::kOk : curtailments.front().reason;
  }

  bool ok() const noexcept {
    for (const PhaseCheck& c : checks)
      if (!c.holds()) return false;
    return true;
  }
  /// First unrepaired violation (Ok when none).
  Status first_error() const {
    for (const PhaseCheck& c : checks)
      if (!c.holds()) return c.status;
    return Status::Ok();
  }
  /// One line per check, for logs / --verbose CLI output.
  std::string summary() const;
};

/// Appends a check; under kStrict a violated invariant aborts immediately
/// with its typed status (StatusError).
void record(PipelineReport& report, RecoveryPolicy policy, std::string phase,
            Status status, bool repaired = false);

/// Records a Curtailment for `phase` (and emits its structured event) when
/// `governor` has stopped the run; a no-op otherwise. Curtailments are
/// informational — the best-so-far graph is still returned — so this never
/// throws, even under kStrict. `acceptance` is the swap chain's accepted
/// fraction so far, 0 for non-swap phases.
void record_curtailment(PipelineReport& report, const RunGovernor* governor,
                        const obs::ObsContext& obs, const char* phase,
                        std::size_t completed, std::size_t requested,
                        double acceptance = 0.0);

/// Erdős–Gallai gate on the input distribution.
Status check_graphical(const DegreeDistribution& dist);

/// Bounds and finiteness of every entry, plus the expected-degree system:
/// worst per-class relative error above `degree_tolerance` is reported in
/// the message (entries outside [0,1] are the hard failure).
Status check_probability_matrix(const ProbabilityMatrix& matrix,
                                const DegreeDistribution& dist,
                                double degree_tolerance = 0.25);

/// census()-based simplicity.
Status check_simple(const EdgeList& edges);

/// Same verdict from counts a caller already has (e.g. the swap phase
/// counts its input census while refilling the edge table — reusing it
/// keeps the default-on checks off the critical path).
Status check_simple(const SimplicityCensus& counts);

/// Exact degree-sequence preservation against a snapshot.
Status check_degrees_preserved(const std::vector<std::uint64_t>& expected,
                               const EdgeList& edges);

/// Order-independent 64-bit digest of the degree sequence:
/// sum over edges of mix(u) + mix(v) == sum over vertices of
/// degree(v) * mix(v), so equal digests mean equal degree sequences up to
/// a ~2^-64 collision. One streaming pass, no per-vertex array — this is
/// what the default-on degree check uses; kRepair recomputes exact
/// degrees from its pristine snapshot only when a repair actually runs.
std::uint64_t degree_fingerprint(const EdgeList& edges);

/// Degree preservation at fingerprint fidelity.
Status check_degree_fingerprint(std::uint64_t expected,
                                const EdgeList& edges);

}  // namespace nullgraph
