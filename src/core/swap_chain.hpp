#pragma once
// The parallel double-edge swap chain — Algorithm III.1, the paper's
// primary contribution — written once and shared by every swap family.
// Each iteration:
//
//   1. refill a concurrent hash table T with every current edge,
//   2. randomly permute the edge list: the Knuth shuffle for stateless
//      (seed, i) targets — the permutation the paper's parallel Permute(E)
//      (Shun et al.) computes, applied by the serial loop, which is faster
//      than the reservation rounds at every measured thread count,
//   3. in parallel over adjacent pairs (E[2k], E[2k+1]), ask the proposal
//      policy for two candidates and commit them iff neither is a
//      self-loop and both TestAndSet into T as new keys.
//
// The refill and the pair loop are latency-bound random probes into T, so
// both prefetch the table slots of keys a few steps ahead; the pair loop
// keeps the proposals it made early in a small ring, so each pair is still
// proposed exactly once.
//
// Candidates are checked against T, which over-approximates the live edge
// set within an iteration because replaced edges are deliberately left in
// the table — conservative rejections keep correctness without deletions.
// Committed swaps therefore never introduce loops or duplicates; run on a
// multigraph (e.g. the O(m) Chung-Lu output), iterations progressively
// eliminate multi-edges and self-loops; Figure 4's "O(m)" series.
//
// Swapping adjacent pairs of a uniformly permuted list picks, in parallel,
// disjoint uniformly-random edge pairs — the MCMC proposal of Milo et al.
// [22]. Families differ only in how a pair is re-partnered (Bhuiyan et al.,
// arXiv:1708.07290; Greenhill, arXiv:2201.04888), so that is the one thing
// a policy supplies:
//
//   struct Policy {
//     using Item = Edge;                       // or Arc
//     static constexpr const char* kPhase;     // timing/counter prefix
//     static constexpr const char* kSpan;      // per-iteration trace span
//     void begin_iteration(std::uint64_t& seed_chain);  // draw its seeds
//     void propose(std::size_t k, const Item& e, const Item& f,
//                  Item& g, Item& h) const;    // pair k's candidates
//   };
//
// The chain draws the permutation seed, then lets the policy draw its own,
// so every family keeps its historical per-iteration seed stream. The
// three policies are coin partnering (swap_edges), direction-preserving
// arc partnering (directed_swap_arcs, bipartite_swap) and XBS biased
// partnering (rewire_assortativity).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ds/concurrent_hash_set.hpp"
#include "ds/edge_list.hpp"
#include "exec/exec.hpp"
#include "exec/phase_timing.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_context.hpp"
#include "obs/trace.hpp"
#include "permute/permutation.hpp"
#include "robustness/governance.hpp"
#include "util/rng.hpp"

namespace nullgraph {

/// Chain position reported to SwapConfig::on_iteration after each completed
/// iteration — everything a checkpoint needs to resume the chain exactly.
struct SwapProgress {
  std::size_t completed_iterations = 0;  // absolute, includes resumed ones
  std::size_t total_iterations = 0;      // what the config asked for
  /// seed_chain value AFTER this iteration: resuming with
  /// SwapConfig::resume_chain_state = chain_state reproduces the
  /// uninterrupted chain bit-for-bit.
  std::uint64_t chain_state = 0;
  /// Current edge list (borrowed); null for arc chains.
  const EdgeList* edges = nullptr;
};

struct SwapConfig {
  std::size_t iterations = 10;
  std::uint64_t seed = 1;
  /// Also permute a per-edge "has ever swapped" flag alongside the edges
  /// (costs one extra permutation pass per iteration); enables
  /// SwapStats::edges_ever_swapped, the paper's mixing diagnostic.
  bool track_swapped_edges = false;

  /// Optional run governance: polled at iteration boundaries and every
  /// 4096 pairs inside the swap loop; enforces RunBudget::
  /// max_swap_iterations and arms the stall watchdog with the governor's
  /// WatchdogConfig. A curtailed swap phase leaves `edges` a
  /// valid graph (committed swaps preserve degrees and never introduce
  /// loops or duplicates) and reports why in SwapStats::stop_reason.
  const RunGovernor* governor = nullptr;
  /// Optional exec-layer phase records (wall time / chunk counts),
  /// aggregated over all iterations under the policy's phase name.
  exec::PhaseTimingSink* timings = nullptr;
  /// Optional telemetry: swap counters (<phase>.attempted / .committed /
  /// .rejected_existing / .rejected_loop), the shared hash-set probe-length
  /// histogram, and one trace span per iteration. Default (null handles)
  /// costs one branch per iteration.
  obs::ObsContext obs;
  /// FaultPlan::slow_phase_ms wiring: sleep this long at the top of every
  /// iteration so deadline/watchdog paths can be drilled deterministically.
  std::uint64_t slow_iteration_ms = 0;
  /// Resume: skip the first `start_iteration` iterations (already done
  /// before a checkpoint) and seed the per-iteration RNG chain from
  /// `resume_chain_state` instead of deriving it from `seed`.
  std::size_t start_iteration = 0;
  std::uint64_t resume_chain_state = 0;
  /// Checkpoint sink, called after every completed iteration.
  std::function<void(const SwapProgress&)> on_iteration;
};

struct SwapIterationStats {
  std::size_t attempted = 0;           // pairs considered
  std::size_t swapped = 0;             // pairs committed
  std::size_t rejected_existing = 0;   // candidate already in T
  std::size_t rejected_loop = 0;       // candidate was a self-loop
  /// Simplicity census of the edge list at the START of this iteration,
  /// counted for free while refilling T (same convention as census():
  /// multi_edges = copies beyond the first). Since committed swaps never
  /// introduce loops or duplicates, a final iteration starting clean
  /// proves the output simple without a separate pass.
  std::size_t input_self_loops = 0;
  std::size_t input_multi_edges = 0;
};

struct SwapStats {
  std::vector<SwapIterationStats> iterations;
  /// Edges that took part in >= 1 committed swap over all iterations
  /// (only when SwapConfig::track_swapped_edges).
  std::size_t edges_ever_swapped = 0;
  /// kOk when the chain ran to completion; the governance verdict
  /// (kDeadlineExceeded / kCancelled / kSwapStalled) when curtailed.
  StatusCode stop_reason = StatusCode::kOk;
  /// seed_chain value after the last completed iteration; feed into
  /// SwapConfig::resume_chain_state to continue the chain exactly.
  std::uint64_t final_chain_state = 0;

  std::size_t total_swapped() const noexcept {
    std::size_t sum = 0;
    for (const auto& it : iterations) sum += it.swapped;
    return sum;
  }
  /// Accepted-swap fraction over the whole recorded chain — the "how mixed
  /// is the returned graph" number a curtailment reports.
  double acceptance() const noexcept {
    std::size_t attempted = 0, swapped = 0;
    for (const auto& it : iterations) {
      attempted += it.attempted;
      swapped += it.swapped;
    }
    return attempted == 0
               ? 0.0
               : static_cast<double>(swapped) / static_cast<double>(attempted);
  }
};

/// Algorithm III.1 with `proposal` re-partnering each pair; mutates `items`
/// in place.
template <class Proposal>
SwapStats run_swap_chain(std::vector<typename Proposal::Item>& items,
                         const SwapConfig& config, Proposal proposal) {
  using Item = typename Proposal::Item;
  // How far ahead the refill (in keys) and the pair loop (in pairs, two
  // keys each) prefetch T's slots. Measured on the 944k-edge power-law
  // chain at 1 thread: the refill falls from 60 to 22 ms per iteration
  // going from 1 to 32 keys ahead and is flat beyond; the pair loop falls
  // from 60 to 38 ms going from 1 to 4-8 pairs ahead and is flat to 32.
  constexpr std::size_t kRefillAhead = 32;
  constexpr std::size_t kPairAhead = 8;
  static_assert((kPairAhead & (kPairAhead - 1)) == 0, "ring index mask");
  // Per-chunk counters for the table-refill and pair-swap reductions.
  struct CensusCounts {
    std::size_t loops = 0;
    std::size_t dups = 0;
  };
  struct PairCounts {
    std::size_t swapped = 0;
    std::size_t rejected_existing = 0;
    std::size_t rejected_loop = 0;
  };
  SwapStats stats;
  const std::size_t m = items.size();

  const RunGovernor* gov = config.governor;
  // Pre-allocation gate: a run already stopped (e.g. the memory-budget
  // check in null_model, or a cancellation before this phase) must not pay
  // for the table below — nor fabricate degenerate-path iterations.
  if (gov != nullptr) {
    const StatusCode verdict = gov->should_stop();
    if (verdict != StatusCode::kOk) {
      stats.stop_reason = verdict;
      stats.final_chain_state = config.start_iteration > 0
                                    ? config.resume_chain_state
                                    : config.seed;
      return stats;
    }
  }

  if (m < 2) {
    stats.iterations.resize(config.iterations);
    for (SwapIterationStats& it : stats.iterations)
      for (const Item& e : items)
        if (e.is_loop()) ++it.input_self_loops;
    return stats;
  }

  // Worst-case inserts per iteration: <= m refill keys plus 2 candidates
  // per pair — size for both so the table's <= 0.5 load invariant holds.
  ConcurrentHashSet table(m + 2 * (m / 2));
  table.set_probe_histogram(
      ConcurrentHashSet::probe_histogram(config.obs.metrics));
  // Counter handles are acquired once, outside the chain; per-iteration
  // recording is a handful of striped relaxed adds.
  obs::Counter* c_attempted = nullptr;
  obs::Counter* c_committed = nullptr;
  obs::Counter* c_rej_existing = nullptr;
  obs::Counter* c_rej_loop = nullptr;
  obs::Gauge* g_acceptance = nullptr;
  if (config.obs.metrics != nullptr) {
    const std::string prefix = std::string(Proposal::kPhase) + ".";
    c_attempted = config.obs.metrics->counter(prefix + "attempted");
    c_committed = config.obs.metrics->counter(prefix + "committed");
    c_rej_existing = config.obs.metrics->counter(prefix + "rejected_existing");
    c_rej_loop = config.obs.metrics->counter(prefix + "rejected_loop");
    g_acceptance =
        config.obs.metrics->gauge(prefix + "windowed_acceptance_permille");
  }
  std::vector<std::uint8_t> ever_swapped;
  if (config.track_swapped_edges) ever_swapped.assign(m, 0);

  // The watchdog is armed only under governance: ungoverned callers (unit
  // tests, benchmarks) get exactly the historical run-to-completion chain.
  StallWatchdog watchdog(gov != nullptr ? gov->watchdog()
                                        : WatchdogConfig{.enabled = false});

  std::uint64_t seed_chain = config.start_iteration > 0
                                 ? config.resume_chain_state
                                 : config.seed;
  stats.final_chain_state = seed_chain;
  stats.iterations.reserve(config.iterations - config.start_iteration);
  // Refill/census passes run ungoverned: a skipped refill chunk would
  // leave keys out of T (risking duplicate commits) and undercount the
  // input census the simplicity proof leans on. Only the pair loop — the
  // expensive, skippable part — is governed.
  exec::ParallelContext refill_ctx;
  refill_ctx.timings = config.timings;
  refill_ctx.phase = Proposal::kPhase;
  refill_ctx.obs = config.obs;
  exec::ParallelContext pair_ctx = refill_ctx;
  pair_ctx.governor = gov;
  for (std::size_t iter = config.start_iteration; iter < config.iterations;
       ++iter) {
    if (gov != nullptr) {
      if (gov->budget().max_swap_iterations != 0 &&
          iter >= gov->budget().max_swap_iterations)
        gov->note_stop(StatusCode::kDeadlineExceeded);
      const StatusCode verdict = gov->should_stop();
      if (verdict != StatusCode::kOk) {
        stats.stop_reason = verdict;
        break;
      }
    }
    obs::TraceSpan iter_span(config.obs.trace, Proposal::kSpan);
    if (config.slow_iteration_ms != 0) {
      obs::TraceSpan slow_span(config.obs.trace, "injected slow iteration");
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.slow_iteration_ms));
    }
    stats.iterations.emplace_back();
    SwapIterationStats& it_stats = stats.iterations.back();
    const std::uint64_t permute_seed = splitmix64_next(seed_chain);
    proposal.begin_iteration(seed_chain);

    // 1. T <- all current edges (multi-edge copies collapse to one key).
    //    Self-loop keys are skipped: a candidate is never a loop, so their
    //    presence in T could not block anything. The same pass counts the
    //    input simplicity census for free.
    if (stats.iterations.size() > 1) table.clear();
    const CensusCounts input = exec::reduce<CensusCounts>(
        refill_ctx, m, exec::kDefaultGrain, CensusCounts{},
        [&](const exec::Chunk& chunk) {
          CensusCounts mine;
          for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            if (i + kRefillAhead < chunk.end)
              table.prefetch(items[i + kRefillAhead].key());
            const Item e = items[i];
            if (e.is_loop()) {
              ++mine.loops;
              continue;
            }
            if (table.test_and_set(e.key())) ++mine.dups;
          }
          return mine;
        },
        [](CensusCounts a, CensusCounts b) {
          a.loops += b.loops;
          a.dups += b.dups;
          return a;
        });
    it_stats.input_self_loops = input.loops;
    it_stats.input_multi_edges = input.dups;

    // 2. Permute(E) — and the swap flags travel with their edges.
    const std::vector<std::uint64_t> targets = knuth_targets(m, permute_seed);
    const std::span<const std::uint64_t> target_span(targets.data(),
                                                     targets.size());
    apply_targets_serial(std::span<Item>(items), target_span);
    if (config.track_swapped_edges) {
      apply_targets_serial(std::span<std::uint8_t>(ever_swapped),
                           target_span);
    }

    // 3. Attempt one swap per adjacent pair. The exec chunk grain of 4096
    // replaces the old per-4096-pairs verdict refresh: the governor is
    // polled once per chunk, and a tripped run skips whole chunks (those
    // pairs keep their edges). Pair k + kPairAhead is proposed (and its
    // candidates' slots prefetched) while pair k is tested; a pair's
    // proposal reads only its own two edges, which no earlier pair writes.
    const std::size_t pairs = m / 2;
    const PairCounts counts = exec::reduce<PairCounts>(
        pair_ctx, pairs, 4096, PairCounts{},
        [&](const exec::Chunk& chunk) {
          PairCounts mine;
          std::array<Item, kPairAhead> ring_g, ring_h;
          const auto stage = [&](std::size_t k) {
            Item& g = ring_g[k & (kPairAhead - 1)];
            Item& h = ring_h[k & (kPairAhead - 1)];
            proposal.propose(k, items[2 * k], items[2 * k + 1], g, h);
            table.prefetch(g.key());
            table.prefetch(h.key());
          };
          for (std::size_t k = chunk.begin;
               k < chunk.end && k < chunk.begin + kPairAhead; ++k)
            stage(k);
          for (std::size_t k = chunk.begin; k < chunk.end; ++k) {
            const Item g = ring_g[k & (kPairAhead - 1)];
            const Item h = ring_h[k & (kPairAhead - 1)];
            if (k + kPairAhead < chunk.end) stage(k + kPairAhead);
            if (g.is_loop() || h.is_loop()) {
              ++mine.rejected_loop;
              continue;
            }
            // TestAndSet returns true when the key already exists -> reject.
            // A failed second insertion leaves g in T: a conservative
            // over-approximation, exactly as in the paper (no deletions).
            if (table.test_and_set(g.key()) || table.test_and_set(h.key())) {
              ++mine.rejected_existing;
              continue;
            }
            items[2 * k] = g;
            items[2 * k + 1] = h;
            ++mine.swapped;
            if (config.track_swapped_edges) {
              ever_swapped[2 * k] = 1;
              ever_swapped[2 * k + 1] = 1;
            }
          }
          return mine;
        },
        [](PairCounts a, PairCounts b) {
          a.swapped += b.swapped;
          a.rejected_existing += b.rejected_existing;
          a.rejected_loop += b.rejected_loop;
          return a;
        });
    it_stats.attempted = pairs;
    it_stats.swapped = counts.swapped;
    it_stats.rejected_existing = counts.rejected_existing;
    it_stats.rejected_loop = counts.rejected_loop;
    stats.final_chain_state = seed_chain;
    if (c_attempted != nullptr) {
      c_attempted->add(pairs);
      c_committed->add(counts.swapped);
      c_rej_existing->add(counts.rejected_existing);
      c_rej_loop->add(counts.rejected_loop);
    }
    // Windowed (this iteration only) acceptance, as permille: the cumulative
    // committed/attempted counters above hide a stalling chain's tail.
    if (g_acceptance != nullptr && pairs > 0)
      g_acceptance->set(
          static_cast<std::int64_t>(1000 * counts.swapped / pairs));

    if (gov != nullptr) {
      watchdog.record(it_stats.attempted, it_stats.swapped);
      if (watchdog.stalled()) gov->note_stop(StatusCode::kSwapStalled);
    }
    if (config.on_iteration) {
      SwapProgress progress;
      progress.completed_iterations = iter + 1;
      progress.total_iterations = config.iterations;
      progress.chain_state = seed_chain;
      if constexpr (std::is_same_v<Item, Edge>) progress.edges = &items;
      config.on_iteration(progress);
    }
  }
  if (gov != nullptr && stats.stop_reason == StatusCode::kOk &&
      gov->stopped())
    stats.stop_reason = gov->stop_reason();

  if (config.track_swapped_edges) {
    stats.edges_ever_swapped = exec::reduce<std::size_t>(
        refill_ctx, m, exec::kDefaultGrain, 0,
        [&](const exec::Chunk& chunk) {
          std::size_t count = 0;
          for (std::size_t i = chunk.begin; i < chunk.end; ++i)
            count += ever_swapped[i];
          return count;
        },
        [](std::size_t a, std::size_t b) { return a + b; });
  }
  return stats;
}

}  // namespace nullgraph
