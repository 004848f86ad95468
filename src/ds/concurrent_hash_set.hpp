#pragma once
// ConcurrentHashSet: the paper's thread-safe edge table (Section III-A,
// adapted from Slota et al. [33]). Open addressing over a flat array of
// atomic 64-bit keys; test_and_set needs one atomic CAS on the common path
// and blocks only when two threads race for the same slot. Linear probing
// by default, quadratic as a build-time policy for the ablation benchmark.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/metrics.hpp"
#include "robustness/status.hpp"

namespace nullgraph {

enum class Probing { kLinear, kQuadratic };

/// Typed result of a bounded insert probe.
enum class InsertOutcome {
  kInserted,        // key was absent; we claimed a slot
  kAlreadyPresent,  // key was in the table
  kTableFull,       // probe budget (== capacity) spent without a free slot
};

/// kTableFull -> kCapacityExhausted; the other outcomes are not errors.
[[nodiscard]] inline StatusCode insert_status(InsertOutcome outcome) noexcept {
  return outcome == InsertOutcome::kTableFull ? StatusCode::kCapacityExhausted
                                              : StatusCode::kOk;
}

class ConcurrentHashSet {
 public:
  /// Reserved sentinel; inserting it is undefined (asserted in debug).
  /// Canonical simple-graph edge keys can never take this value: it would
  /// decode to the self-loop {0xffffffff, 0xffffffff}.
  static constexpr std::uint64_t kEmpty = ~0ULL;

  /// Table sized for `expected_keys` at a load factor <= 0.5 (capacity is
  /// the next power of two >= 2 * expected_keys, minimum 16).
  explicit ConcurrentHashSet(std::size_t expected_keys,
                             Probing probing = Probing::kLinear);

  ConcurrentHashSet(const ConcurrentHashSet&) = delete;
  ConcurrentHashSet& operator=(const ConcurrentHashSet&) = delete;

  /// Inserts `key` if absent, with a probe budget of `capacity()` attempts
  /// — the probe sequence visits every slot exactly once, so kTableFull is
  /// a definitive verdict, not a timeout. Thread-safe; lock-free. Debug
  /// builds assert the <= 0.5 load-factor invariant on every insert; in
  /// release a violated invariant degrades to kTableFull instead of an
  /// unbounded probe loop.
  [[nodiscard]] InsertOutcome insert(std::uint64_t key) noexcept;

  /// Inserts `key` if absent. Returns true when the key was ALREADY present
  /// (the paper's TestAndSet convention: true = reject the new edge).
  /// A full table also returns true — rejecting the candidate is always
  /// conservative for the swap phase (the proposed swap is simply not
  /// committed). Callers that must distinguish use insert().
  /// Thread-safe; lock-free.
  [[nodiscard]] bool test_and_set(std::uint64_t key) noexcept {
    return insert(key) != InsertOutcome::kInserted;
  }

  /// Insert for table refills where every key is known unique and the
  /// table is sized for the full key set (load factor <= 0.5), so the
  /// verdict carries no information. The one sanctioned discard.
  void preload(std::uint64_t key) noexcept { (void)insert(key); }

  /// Hint: start loading the cache line of `key`'s first probe slot, so a
  /// later insert()/contains() of `key` finds it in cache. Changes no
  /// state; a pure performance hint for loops that know their keys ahead.
  void prefetch(std::uint64_t key) const noexcept {
    __builtin_prefetch(&slots_[static_cast<std::size_t>(hash(key)) & mask_],
                       1);
  }

  /// True when `key` is in the table. Thread-safe against concurrent
  /// inserts (may miss keys being inserted concurrently).
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept;

  /// Empties the table in parallel. NOT safe against concurrent access.
  void clear() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Number of keys inserted since construction/clear(). O(capacity).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Attach a probe-length histogram: every insert() records how many slots
  /// it visited (1 = direct hit). Null detaches; recording is wait-free and
  /// one branch when detached. The caller keeps ownership and must outlive
  /// concurrent inserts; attach before sharing the table across threads.
  void set_probe_histogram(obs::Histogram* hist) noexcept {
    probe_hist_ = hist;
  }

  /// The canonical probe-length histogram for a registry, shared by the
  /// swap and rewire phases: name "hashset.probe_length", buckets sized for
  /// an open-addressing table at <= 0.5 load (expected probes ~ low single
  /// digits; the tail is the diagnostic). Null registry -> null.
  static obs::Histogram* probe_histogram(obs::MetricsRegistry* registry);

 private:
  std::size_t probe(std::size_t index, std::size_t attempt) const noexcept {
    // Quadratic probing with (i + k(k+1)/2) visits every slot of a
    // power-of-two table exactly once (triangular-number probing).
    const std::size_t step =
        probing_ == Probing::kLinear ? attempt : attempt * (attempt + 1) / 2;
    return (index + step) & mask_;
  }
  static std::uint64_t hash(std::uint64_t key) noexcept {
    // splitmix64 finalizer: full-avalanche, cheap, good for packed keys
    // whose low bits (the second endpoint) vary fastest.
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
  }

  /// Records one observation when a histogram is attached; `probes` is the
  /// number of slots the insert visited.
  void note_probes(std::size_t probes) const noexcept {
    if (probe_hist_ != nullptr)
      probe_hist_->record(static_cast<std::int64_t>(probes));
  }

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  Probing probing_ = Probing::kLinear;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  obs::Histogram* probe_hist_ = nullptr;  // borrowed, may be null
#ifndef NDEBUG
  /// Debug-only insert counter backing the load-factor assert; not
  /// maintained in release builds (a shared counter would contend on the
  /// swap phase's hot path).
  std::atomic<std::size_t> debug_size_{0};
#endif
};

}  // namespace nullgraph
