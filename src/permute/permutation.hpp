#pragma once
// Parallel random permutation after Shun, Gu, Blelloch, Fineman, Gibbons,
// "Sequential random permutation, list contraction and tree contraction are
// highly parallel" (SODA 2015) — the Permute(E) of Algorithm III.1.
//
// The Knuth shuffle (i = n-1 .. 1: swap A[i], A[H[i]], H[i] uniform on
// [0, i]) looks inherently sequential, but for a FIXED target array H the
// dependence structure is shallow: iteration i depends only on later
// iterations that touch cells i or H[i]. The parallel driver runs rounds of
// "reserve both cells with priority max(i); winners commit their swap",
// which reproduces the sequential result exactly in O(log n) rounds w.h.p.
//
// Targets are derived statelessly from (seed, i), so serial and parallel
// drivers agree bit-for-bit for any thread count — the basis of both our
// tests and the paper's serial-vs-parallel validation.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "exec/exec.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace nullgraph {

/// Knuth-shuffle targets: H[i] uniform on [0, i], computed as a stateless
/// hash of (seed, i).
std::vector<std::uint64_t> knuth_targets(std::size_t n, std::uint64_t seed);

/// Statistics from one parallel permutation (for tests/benchmarks).
struct PermuteStats {
  std::size_t rounds = 0;
};

namespace detail {

/// Round-synchronous reservation driver shared by all element types.
/// `swap_cells(i, j)` must swap application data between cells i and j.
template <typename SwapFn>
PermuteStats run_reservation_rounds(std::size_t n,
                                    std::span<const std::uint64_t> targets,
                                    SwapFn&& swap_cells) {
  PermuteStats stats;
  if (n < 2) return stats;
  const exec::ParallelContext ctx;
  // Reservation array: holds the highest iteration index currently bidding
  // for each cell. Iteration 0 is a no-op (H[0] == 0), so 0 doubles as the
  // "free" sentinel and max() resolves priority.
  std::vector<std::atomic<std::uint64_t>> reservation(n);
  exec::for_chunks(ctx, n, exec::kDefaultGrain, [&](const exec::Chunk& chunk) {
    // relaxed: pre-round init; the loop barrier publishes the zeros.
    for (std::size_t c = chunk.begin; c < chunk.end; ++c)
      reservation[c].store(0, std::memory_order_relaxed);
  });

  std::vector<std::uint64_t> remaining(n - 1);
  exec::for_chunks(ctx, n - 1, exec::kDefaultGrain,
                   [&](const exec::Chunk& chunk) {
                     for (std::size_t k = chunk.begin; k < chunk.end; ++k)
                       remaining[k] = static_cast<std::uint64_t>(n - 1 - k);
                   });

  while (!remaining.empty()) {
    ++stats.rounds;
    // Phase 1: every live iteration bids for its two cells.
    exec::for_chunks(ctx, remaining.size(), exec::kDefaultGrain,
                     [&](const exec::Chunk& chunk) {
                       for (std::size_t k = chunk.begin; k < chunk.end; ++k) {
                         const std::uint64_t i = remaining[k];
                         const std::uint64_t h = targets[i];
                         // relaxed: max-CAS bids carry no payload — the
                         // commit phase re-reads after the loop barrier,
                         // which is the only publication point.
                         std::uint64_t prev =
                             reservation[i].load(std::memory_order_relaxed);
                         while (prev < i &&
                                !reservation[i].compare_exchange_weak(
                                    prev, i, std::memory_order_relaxed)) {
                         }
                         // relaxed: same bid protocol for the target cell.
                         prev = reservation[h].load(std::memory_order_relaxed);
                         while (prev < i &&
                                !reservation[h].compare_exchange_weak(
                                    prev, i, std::memory_order_relaxed)) {
                         }
                       }
                     });
    // Phase 2: winners of BOTH cells commit; everyone else retries next
    // round. Winners are mutually disjoint on cells, so swaps are safe.
    // Per-chunk retry buffers concatenated in chunk order keep the live
    // set's order thread-count-invariant.
    std::vector<std::uint64_t> retries = exec::collect<std::uint64_t>(
        ctx, remaining.size(), exec::kDefaultGrain,
        [&](const exec::Chunk& chunk, std::vector<std::uint64_t>& mine) {
          for (std::size_t k = chunk.begin; k < chunk.end; ++k) {
            const std::uint64_t i = remaining[k];
            const std::uint64_t h = targets[i];
            // relaxed: bids were sealed by the inter-phase loop barrier;
            // these reads race with nothing.
            if (reservation[i].load(std::memory_order_relaxed) == i &&
                reservation[h].load(std::memory_order_relaxed) == i) {
              if (h != i) swap_cells(static_cast<std::size_t>(i),
                                     static_cast<std::size_t>(h));
            } else {
              mine.push_back(i);
            }
          }
        });
    // Phase 3: release only the cells still referenced by live iterations.
    exec::for_chunks(ctx, remaining.size(), exec::kDefaultGrain,
                     [&](const exec::Chunk& chunk) {
                       for (std::size_t k = chunk.begin; k < chunk.end; ++k) {
                         const std::uint64_t i = remaining[k];
                         // relaxed: release-for-next-round; the round's
                         // trailing loop barrier publishes the zeros.
                         reservation[i].store(0, std::memory_order_relaxed);
                         reservation[targets[i]].store(
                             0, std::memory_order_relaxed);
                       }
                     });
    remaining = std::move(retries);
  }
  return stats;
}

}  // namespace detail

/// Serial Knuth shuffle against explicit targets (the reference the
/// parallel driver must match exactly).
template <typename T>
void apply_targets_serial(std::span<T> values,
                          std::span<const std::uint64_t> targets) {
  for (std::size_t i = values.size(); i-- > 1;) {
    std::swap(values[i], values[targets[i]]);
  }
}

/// Parallel Knuth shuffle against explicit targets (Shun et al.). Slower
/// than apply_targets_serial at every measured thread count, so production
/// paths use the serial apply; this one is kept as the paper's kernel for
/// tests and benchmarks.
template <typename T>
PermuteStats apply_targets_parallel(std::span<T> values,
                                    std::span<const std::uint64_t> targets) {
  return detail::run_reservation_rounds(
      values.size(), targets,
      [&](std::size_t i, std::size_t j) { std::swap(values[i], values[j]); });
}

/// Uniformly permutes `values` in parallel.
template <typename T>
PermuteStats parallel_permute(std::span<T> values, std::uint64_t seed) {
  const std::vector<std::uint64_t> targets =
      knuth_targets(values.size(), seed);
  return apply_targets_parallel(
      values,
      std::span<const std::uint64_t>(targets.data(), targets.size()));
}

/// Uniformly permutes `values` serially; same output as parallel_permute
/// for the same seed.
template <typename T>
void serial_permute(std::span<T> values, std::uint64_t seed) {
  const std::vector<std::uint64_t> targets =
      knuth_targets(values.size(), seed);
  apply_targets_serial(values, std::span<const std::uint64_t>(
                                   targets.data(), targets.size()));
}

}  // namespace nullgraph
