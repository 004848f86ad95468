#pragma once
// Multi-tenant thread arbitration for the exec layer.
//
// Historically one pipeline owned the machine: every ParallelContext left
// `threads == 0` and resolved to omp_get_max_threads(). The serve daemon
// breaks that assumption — N concurrent jobs each run a whole pipeline on
// their own scheduler thread, and each of those threads is a fresh OpenMP
// master that would ALSO claim the full machine, oversubscribing it N×.
//
// The fix is a per-job worker budget with two halves:
//
//   ThreadArbiter     one per daemon: hands out shares of the machine's
//                     worker threads (never more than `total` outstanding
//                     in aggregate, never less than 1 per job so every
//                     job makes progress).
//   ThreadBudgetLease RAII: acquires a share and installs it as the
//                     CALLING THREAD's budget. ParallelContext::
//                     resolved_threads() consults that thread-local budget
//                     whenever `threads == 0`, so every context built
//                     anywhere under the job — edge lists, hash-set
//                     preloads, permutation targets — inherits the job's
//                     share with zero plumbing through the phase configs.
//
// The thread-local is keyed on the OS thread because a job IS a thread in
// the scheduler model (each slot runs its pipeline synchronously); OpenMP
// worker threads spawned inside the job's loops never construct contexts
// themselves, so the budget is read exactly where it was installed.
// Determinism is unaffected: chunk layout and RNG streams are
// thread-count-invariant by the exec layer's contract.

#include "util/parallel.hpp"
#include "util/thread_annotations.hpp"

namespace nullgraph::exec {

/// The calling thread's installed worker budget; 0 when none is installed
/// (one-shot CLI runs, tests), which keeps the historical whole-machine
/// default.
int current_thread_budget() noexcept;

/// Installs `threads` as the calling thread's budget and returns the
/// previous value (0 = none). Exposed for the lease and for tests; jobs
/// should use ThreadBudgetLease.
int set_thread_budget(int threads) noexcept;

/// Hands out shares of a fixed pool of worker threads. Grants never sum to
/// more than `total`, except that every grant is at least 1 — a saturated
/// pool degrades to time-slicing via the OS scheduler instead of blocking
/// a job forever. Thread-safe.
class ThreadArbiter {
 public:
  /// Pool size; defaults to the machine's OpenMP worker count.
  explicit ThreadArbiter(int total = 0)
      : total_(total > 0 ? total : max_threads()) {}

  /// Grant min(want, available) threads, floor 1. `want <= 0` asks for an
  /// equal share of the whole pool (total / outstanding jobs, floor 1).
  int acquire(int want) NG_EXCLUDES(mutex_);
  /// Returns a grant to the pool (pass exactly what acquire returned).
  void release(int granted) NG_EXCLUDES(mutex_);

  int total() const noexcept { return total_; }
  int committed() const NG_EXCLUDES(mutex_);

 private:
  const int total_;
  mutable Mutex mutex_;
  int committed_ NG_GUARDED_BY(mutex_) = 0;
  int jobs_ NG_GUARDED_BY(mutex_) = 0;
};

/// RAII job lease: acquires a share from the arbiter and installs it as
/// the calling thread's budget for the lease's lifetime. Construct at the
/// top of a scheduler job slot, before the pipeline runs.
class ThreadBudgetLease {
 public:
  ThreadBudgetLease(ThreadArbiter& arbiter, int want)
      : arbiter_(arbiter),
        granted_(arbiter.acquire(want)),
        previous_(set_thread_budget(granted_)) {}

  ~ThreadBudgetLease() {
    (void)set_thread_budget(previous_);
    arbiter_.release(granted_);
  }

  ThreadBudgetLease(const ThreadBudgetLease&) = delete;
  ThreadBudgetLease& operator=(const ThreadBudgetLease&) = delete;

  /// Worker threads this job may use.
  int threads() const noexcept { return granted_; }

 private:
  ThreadArbiter& arbiter_;
  int granted_;
  int previous_;
};

}  // namespace nullgraph::exec
