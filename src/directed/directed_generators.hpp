#pragma once
// Directed generators: the Algorithm IV.1 pipeline transplanted to simple
// digraphs (Durak et al. [14]; Erdős, Miklós & Toroczkai [15]).
//
//  * DirectedProbabilityMatrix — full (asymmetric) |D| x |D| arc
//    probabilities between (in, out) joint classes.
//  * directed_greedy_probabilities — the stub allocator: out-stubs of each
//    class are distributed over in-stubs, capped by space sizes, so the
//    expected realized (in, out) distribution matches the target.
//  * directed_edge_skip — geometric skip sampling over ordered-pair
//    spaces (the diagonal space excludes self-arcs, so output is simple).
//  * kleitman_wang — greedy exact realization of a digraphical (in, out)
//    sequence (the directed Havel-Hakimi of [15]); doubles as the
//    digraphicality test.

#include <cstdint>
#include <vector>

#include "directed/directed_distribution.hpp"
#include "robustness/governance.hpp"

namespace nullgraph {

class DirectedProbabilityMatrix {
 public:
  DirectedProbabilityMatrix() = default;
  explicit DirectedProbabilityMatrix(std::size_t num_classes)
      : num_classes_(num_classes), values_(num_classes * num_classes, 0.0) {}

  std::size_t num_classes() const noexcept { return num_classes_; }
  /// P(from-class i -> to-class j); NOT symmetric.
  double at(std::size_t i, std::size_t j) const noexcept {
    return values_[i * num_classes_ + j];
  }
  void set(std::size_t i, std::size_t j, double p) noexcept {
    values_[i * num_classes_ + j] = p;
  }
  void add(std::size_t i, std::size_t j, double p) noexcept {
    values_[i * num_classes_ + j] += p;
  }
  double max_value() const noexcept;

  /// Expected out-degree of a class-i vertex: sum_j n_j P(i,j) - P(i,i).
  double expected_out_degree(std::size_t i,
                             const DirectedDegreeDistribution& dist) const;
  /// Expected in-degree of a class-j vertex: sum_i n_i P(i,j) - P(j,j).
  double expected_in_degree(std::size_t j,
                            const DirectedDegreeDistribution& dist) const;
  /// Expected total arcs over all ordered spaces.
  double expected_arcs(const DirectedDegreeDistribution& dist) const;

 private:
  std::size_t num_classes_ = 0;
  std::vector<double> values_;
};

/// Greedy out-stub -> in-stub allocator; the directed analogue of
/// greedy_probabilities. O(|D|^2 * rounds).
DirectedProbabilityMatrix directed_greedy_probabilities(
    const DirectedDegreeDistribution& dist, int rounds = 32);

/// Simple digraph via parallel edge skipping over the ordered spaces.
/// The optional governor is polled per chunk; a curtailed run returns the
/// arcs generated so far (still simple — pair spaces are disjoint).
ArcList directed_edge_skip(const DirectedProbabilityMatrix& P,
                           const DirectedDegreeDistribution& dist,
                           std::uint64_t seed = 1,
                           std::uint64_t arcs_per_task = 1u << 16,
                           const RunGovernor* governor = nullptr);

/// Exact greedy realization (Kleitman-Wang / directed Havel-Hakimi):
/// connects each vertex's out-stubs to the largest residual in-degrees.
/// Throws std::invalid_argument when the pair of sequences is not
/// digraphical. Reference implementation, O(n * (n + d log d)).
ArcList kleitman_wang(const std::vector<std::uint64_t>& in_degrees,
                      const std::vector<std::uint64_t>& out_degrees);

/// Digraphicality test via attempted construction.
bool is_digraphical(const std::vector<std::uint64_t>& in_degrees,
                    const std::vector<std::uint64_t>& out_degrees);

/// End-to-end directed Algorithm IV.1: greedy probabilities -> directed
/// edge-skipping -> directed swaps. Output is a simple digraph whose
/// (in, out) joint distribution matches `dist` in expectation.
ArcList generate_directed_null_graph(const DirectedDegreeDistribution& dist,
                                     std::uint64_t seed = 1,
                                     std::size_t swap_iterations = 10,
                                     const RunGovernor* governor = nullptr);

}  // namespace nullgraph
