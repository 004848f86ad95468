#pragma once
// Run governance: the temporal half of the robustness layer. PR 1's
// guardrails answer "is the output correct?"; this layer answers "is the
// run still allowed to keep going?" — three concerns a long generation
// must respect when a service schedules it:
//
//   RunBudget      wall-clock deadline, swap-iteration cap, and an
//                  optional memory ceiling for the swap phase's buffers.
//   CancelToken    cooperative cancellation: a copyable handle onto a
//                  shared flag, safe to trip from another thread or a
//                  signal handler (the store is lock-free).
//   StallWatchdog  sliding-window acceptance tracking for the swap chain;
//                  terminates chains whose acceptance collapses with
//                  kSwapStalled instead of spinning out the budget.
//
// RunGovernor bundles the three and is checked at CHUNK granularity inside
// the parallel loops (per degree-class row in the prob solver, per task in
// edge-skip, per iteration and per pair block in the swap phase) — never
// per element, so default-on governance stays off the critical path. A
// verdict is STICKY: once a run trips, every later should_stop() returns
// the same code, letting all phases drain cooperatively. Expiry never
// throws; the pipeline degrades gracefully by returning the best-so-far
// graph and recording a Curtailment in the PipelineReport (see
// invariants.hpp).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "robustness/status.hpp"

namespace nullgraph {

/// Resource limits for one generation run. Zero means "unlimited" on every
/// axis, which is the default and costs one branch per governed chunk.
struct RunBudget {
  /// Wall-clock deadline for the whole run, measured from RunGovernor
  /// construction. Expiry -> kDeadlineExceeded.
  std::uint64_t deadline_ms = 0;
  /// Cap on swap-chain iterations regardless of what the caller requested
  /// (a service-side guard against unbounded mixing requests). Hitting the
  /// cap curtails the swap phase with kDeadlineExceeded semantics.
  std::size_t max_swap_iterations = 0;
  /// Ceiling on the swap phase's estimated buffer footprint (edge list +
  /// hash table + permutation targets). Exceeding it skips the phase with
  /// kMemoryBudget rather than risking the allocation.
  std::size_t max_memory_bytes = 0;

  bool unlimited() const noexcept {
    return deadline_ms == 0 && max_swap_iterations == 0 &&
           max_memory_bytes == 0;
  }
};

/// Copyable handle onto a shared cancellation flag. All copies observe the
/// same flag, so a token handed to a worker can be tripped from the caller,
/// another thread, or a signal handler (atomic store, async-signal-safe).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const noexcept {
    // relaxed: a standalone flag with no dependent data; pollers only need
    // eventual visibility, and relaxed keeps the store signal-safe & cheap.
    flag_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    // relaxed: see request_cancel — the flag orders nothing but itself.
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Swap-chain stall detection policy. With the defaults the watchdog only
/// fires when `window` CONSECUTIVE iterations commit zero swaps while
/// proposing at least one — the deterministic signature of the rare-event
/// MCMC stall that force_swap_stall injects — so ordinary low-acceptance
/// chains are never cut.
struct WatchdogConfig {
  bool enabled = true;
  /// Sliding-window length in swap iterations; a verdict needs a full
  /// window, so chains shorter than this are never flagged.
  std::size_t window = 8;
  /// Windowed acceptance (committed / attempted) at or below this value
  /// is a stall. 0.0 means "only an all-zero window stalls".
  double min_acceptance = 0.0;
};

/// Sliding-window acceptance tracker implementing WatchdogConfig. Not
/// thread-safe; the swap phase feeds it from its serial per-iteration
/// bookkeeping.
class StallWatchdog {
 public:
  explicit StallWatchdog(WatchdogConfig config = {});

  /// Records one swap iteration's (attempted, committed) pair counts.
  void record(std::size_t attempted, std::size_t swapped);

  /// True when the window is full and its acceptance is at or below the
  /// configured floor (and at least one pair was attempted).
  [[nodiscard]] bool stalled() const noexcept;

  /// Committed / attempted over the current window contents (0 when the
  /// window is empty or nothing was attempted).
  [[nodiscard]] double window_acceptance() const noexcept;

 private:
  WatchdogConfig config_;
  std::vector<std::pair<std::size_t, std::size_t>> samples_;  // ring buffer
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::size_t window_attempted_ = 0;
  std::size_t window_swapped_ = 0;
};

/// One run's governance state: budget + cancel token + watchdog policy and
/// the sticky verdict. Thread-safe: should_stop() may be called from any
/// thread inside parallel regions; the first non-Ok verdict wins and is
/// returned forever after.
class RunGovernor {
 public:
  /// Ungoverned: unlimited budget, private token, default watchdog. Never
  /// stops unless note_stop() is called.
  RunGovernor() : RunGovernor(RunBudget{}, CancelToken{}, WatchdogConfig{}) {}

  RunGovernor(RunBudget budget, CancelToken cancel,
              WatchdogConfig watchdog = {})
      : budget_(budget),
        cancel_(std::move(cancel)),
        watchdog_(watchdog),
        start_(std::chrono::steady_clock::now()) {}

  /// kOk while the run may continue; kCancelled / kDeadlineExceeded once
  /// it may not. Sticky. Cancellation outranks the deadline.
  StatusCode should_stop() const noexcept;

  /// The sticky verdict without consulting the clock or token again.
  [[nodiscard]] StatusCode stop_reason() const noexcept {
    // relaxed: the verdict is a monotonic kOk->reason latch with no
    // dependent payload; a stale kOk read just delays draining one chunk.
    return static_cast<StatusCode>(tripped_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool stopped() const noexcept {
    return stop_reason() != StatusCode::kOk;
  }

  /// Records an externally-decided stop (e.g. the swap phase's watchdog or
  /// iteration-budget verdicts) so later phases observe it too. First
  /// reason wins.
  void note_stop(StatusCode reason) const noexcept { trip(reason); }

  /// True (and the run trips kMemoryBudget) when `bytes` exceeds the
  /// configured ceiling; false (no side effect) otherwise.
  bool memory_exceeded(std::size_t bytes) const noexcept;

  /// Side-effect-free variant of memory_exceeded(): true when `bytes` is
  /// over the ceiling, but the verdict is NOT tripped. Spill-capable phases
  /// ask this first so crossing the ceiling degrades to disk (recorded as a
  /// DegradationEvent) instead of aborting the run with kMemoryBudget.
  [[nodiscard]] bool would_exceed_memory(std::size_t bytes) const noexcept {
    return budget_.max_memory_bytes != 0 && bytes > budget_.max_memory_bytes;
  }

  [[nodiscard]] double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  const RunBudget& budget() const noexcept { return budget_; }
  const WatchdogConfig& watchdog() const noexcept { return watchdog_; }

 private:
  void trip(StatusCode reason) const noexcept {
    int expected = static_cast<int>(StatusCode::kOk);
    // relaxed: first-reason-wins CAS on a self-contained latch; no other
    // memory is published under this verdict, so no ordering is needed.
    tripped_.compare_exchange_strong(expected, static_cast<int>(reason),
                                     std::memory_order_relaxed);
  }

  RunBudget budget_;
  CancelToken cancel_;
  WatchdogConfig watchdog_;
  std::chrono::steady_clock::time_point start_;
  /// StatusCode of the first stop verdict (kOk while running). Mutable +
  /// atomic: should_stop() is const and called concurrently.
  mutable std::atomic<int> tripped_{static_cast<int>(StatusCode::kOk)};
};

/// Run-governance wiring for one generation.
/// Disabled by default at the library level so embedded callers keep exact
/// historical behavior; the CLI enables it for every run, which is where
/// deadlines, Ctrl-C cancellation, the stall watchdog, and checkpoints are
/// service-facing defaults.
struct GovernanceConfig {
  /// Master switch: when false the other fields are ignored and no governor
  /// is threaded through the phases.
  bool enabled = false;
  RunBudget budget;
  CancelToken cancel;
  WatchdogConfig watchdog;
  /// Borrowed external governor. When set it overrides `enabled`/`budget`/
  /// `cancel`/`watchdog` and is threaded through every phase instead of a
  /// run-local governor — the hook multi-layer drivers (LFR) use to spread
  /// one deadline across many generate calls. Caller keeps ownership.
  const RunGovernor* external = nullptr;
  /// Write a checkpoint after every N completed swap iterations (0 = off;
  /// requires checkpoint_path). See io/checkpoint.hpp for the format.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
};

/// Resolves the effective governor for one run: a borrowed external
/// governor wins (multi-layer drivers share one deadline across calls),
/// otherwise a local one built from the config when governance is enabled,
/// otherwise none (null keeps the phases on their ungoverned paths). The
/// deadline clock starts at construction — build this immediately before
/// the governed work.
class GovernorScope {
 public:
  explicit GovernorScope(const GovernanceConfig& governance)
      : local_(governance.budget, governance.cancel, governance.watchdog),
        governor_(governance.external != nullptr
                      ? governance.external
                      : (governance.enabled ? &local_ : nullptr)) {}

  const RunGovernor* get() const noexcept { return governor_; }

 private:
  RunGovernor local_;
  const RunGovernor* governor_;
};

}  // namespace nullgraph
