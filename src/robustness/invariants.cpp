#include "robustness/invariants.hpp"

#include <cmath>
#include <utility>

#include "exec/exec.hpp"
#include "obs/event_log.hpp"

namespace nullgraph {

std::string PipelineReport::summary() const {
  std::string out;
  for (const PhaseCheck& c : checks) {
    out += c.phase;
    out += ": ";
    out += c.status.ok() ? "ok" : c.status.to_string();
    if (c.repaired) out += " (repaired)";
    out += '\n';
  }
  for (const Curtailment& c : curtailments) {
    out += c.phase;
    out += ": curtailed (";
    out += status_code_name(c.reason);
    out += ") after ";
    out += std::to_string(c.completed);
    out += '/';
    out += std::to_string(c.requested);
    if (c.acceptance > 0.0) {
      out += ", acceptance ";
      out += std::to_string(c.acceptance);
    }
    out += '\n';
  }
  for (const DegradationEvent& d : degradations) {
    out += d.phase;
    out += ": degraded to ";
    out += d.action;
    out += " (";
    out += status_code_name(d.trigger);
    out += " avoided)";
    if (!d.detail.empty()) {
      out += ": ";
      out += d.detail;
    }
    out += '\n';
  }
  for (const exec::PhaseTiming& t : phase_timings) {
    out += t.phase;
    out += ": ";
    out += std::to_string(t.wall_ms);
    out += " ms over ";
    out += std::to_string(t.chunks);
    out += " chunks";
    if (t.chunks_skipped > 0) {
      out += " (";
      out += std::to_string(t.chunks_skipped);
      out += " skipped by governance)";
    }
    out += ", ";
    out += std::to_string(t.threads);
    out += " threads\n";
  }
  return out;
}

void record(PipelineReport& report, RecoveryPolicy policy, std::string phase,
            Status status, bool repaired) {
  report.checks.push_back({std::move(phase), std::move(status), repaired});
  const PhaseCheck& check = report.checks.back();
  if (policy == RecoveryPolicy::kStrict && !check.holds())
    throw StatusError(check.status);
}

void record_curtailment(PipelineReport& report, const RunGovernor* governor,
                        const obs::ObsContext& obs, const char* phase,
                        std::size_t completed, std::size_t requested,
                        double acceptance) {
  if (governor == nullptr || !governor->stopped()) return;
  report.curtailments.push_back(
      {phase, governor->stop_reason(), completed, requested, acceptance});
  obs::emit_event(obs, obs::EventKind::kCurtailment, phase, completed,
                  status_code_name(governor->stop_reason()));
}

Status check_graphical(const DegreeDistribution& dist) {
  if (dist.is_graphical()) return Status::Ok();
  return Status(StatusCode::kNotGraphical,
                "no simple graph realizes this degree distribution "
                "(Erdős–Gallai)");
}

Status check_probability_matrix(const ProbabilityMatrix& matrix,
                                const DegreeDistribution& dist,
                                double degree_tolerance) {
  const std::size_t nc = matrix.num_classes();
  for (std::size_t i = 0; i < nc; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double p = matrix.at(i, j);
      if (!std::isfinite(p))
        return Status(StatusCode::kProbabilityOverflow,
                      "non-finite probability at class pair (" +
                          std::to_string(i) + "," + std::to_string(j) + ")");
      if (p < 0.0 || p > 1.0)
        return Status(StatusCode::kProbabilityOverflow,
                      "probability " + std::to_string(p) +
                          " outside [0,1] at class pair (" +
                          std::to_string(i) + "," + std::to_string(j) + ")");
    }
  }
  // Soft check: the expected-degree system. Large residuals are a quality
  // signal (diagnose() exposes them too), not an invariant violation — but
  // surface the worst offender so strict callers can log it.
  double worst = 0.0;
  for (std::size_t c = 0; c < nc; ++c) {
    const double target = static_cast<double>(dist.degree_of_class(c));
    if (target <= 0.0) continue;
    const double err =
        std::abs(matrix.expected_degree(c, dist) - target) / target;
    worst = std::max(worst, err);
  }
  if (worst > degree_tolerance)
    return Status(StatusCode::kOk,
                  "expected-degree relative error " + std::to_string(worst) +
                      " exceeds tolerance (quality warning)");
  return Status::Ok();
}

Status check_simple(const EdgeList& edges) {
  return check_simple(census(edges));
}

Status check_simple(const SimplicityCensus& counts) {
  if (counts.simple()) return Status::Ok();
  return Status(StatusCode::kNonSimpleOutput,
                std::to_string(counts.self_loops) + " self-loops, " +
                    std::to_string(counts.multi_edges) + " multi-edges");
}

Status check_degrees_preserved(const std::vector<std::uint64_t>& expected,
                               const EdgeList& edges) {
  const std::vector<std::uint64_t> got = degrees_of(edges, expected.size());
  if (got.size() != expected.size())
    return Status(StatusCode::kDegreeMismatch,
                  "vertex count changed: " + std::to_string(expected.size()) +
                      " -> " + std::to_string(got.size()));
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] != expected[v])
      return Status(StatusCode::kDegreeMismatch,
                    "vertex " + std::to_string(v) + " degree " +
                        std::to_string(expected[v]) + " -> " +
                        std::to_string(got[v]));
  }
  return Status::Ok();
}

namespace {

/// splitmix64 finalizer: full-avalanche per-vertex mix so the weighted sum
/// over degrees cannot cancel except by 64-bit coincidence.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t degree_fingerprint(const EdgeList& edges) {
  const exec::ParallelContext ctx;
  return exec::reduce<std::uint64_t>(
      ctx, edges.size(), exec::kDefaultGrain, 0,
      [&](const exec::Chunk& chunk) {
        std::uint64_t fp = 0;
        for (std::size_t i = chunk.begin; i < chunk.end; ++i)
          fp += mix(edges[i].u) + mix(edges[i].v);
        return fp;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

Status check_degree_fingerprint(std::uint64_t expected,
                                const EdgeList& edges) {
  if (degree_fingerprint(edges) == expected) return Status::Ok();
  return Status(StatusCode::kDegreeMismatch,
                "degree-sequence fingerprint changed across the pipeline");
}

}  // namespace nullgraph
