// nullbench: end-to-end and per-layer benchmark of the nullgraph pipeline.
// Runs the library in-process on one named workload, prints every metric by
// name with its unit together with its median and quartiles, and ends with
// one JSON object on the last line of standard output.
//
//   nullbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics: whole generate calls at 1 and
// 4 threads, sharing the run's time equally, after one untimed warm-up
// call; every call gets its own seed derived from --seed. --trace 1 is the separate traced run:
// spans around calls into each layer's public functions, per-layer self
// times, the pipeline residual and the tracing overhead. Every output is
// verified; a call whose output fails a check counts as a failed operation.
// README.md lists the workloads and what each layer metric predicts.
//
// The OpenMP environment (wait policy, spin count, binding) is deliberately
// left as the caller set it: the library's behaviour under the default
// active wait is part of what is measured.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/metrics.hpp"
#include "core/double_edge_swap.hpp"
#include "core/null_model.hpp"
#include "directed/directed_generators.hpp"
#include "directed/directed_swap.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "ds/edge_list.hpp"
#include "exec/exec.hpp"
#include "gen/chung_lu.hpp"
#include "gen/powerlaw.hpp"
#include "lfr/lfr.hpp"
#include "measure.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/trace.hpp"
#include "permute/permutation.hpp"
#include "skip/edge_skip.hpp"
#include "util/rng.hpp"

namespace nullbench {
namespace {

using namespace nullgraph;

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kNullModel, kLfr, kDirected };

struct Workload {
  const char* name;
  Kind kind;
  PowerlawParams law;  // target degree law
  std::size_t swaps;   // swap iterations (per layer for LFR)
};

constexpr double kLfrMu = 0.3;
constexpr std::uint64_t kLfrCmin = 32;
constexpr std::uint64_t kLfrCmax = 512;

// Why each workload exists, and which layer metric should move which
// end-to-end metric on it: README.md.
const Workload kWorkloads[] = {
    {"nullmodel-1m", Kind::kNullModel, {1'000'000, 2.5, 1, 5000}, 10},
    {"lfr-communities", Kind::kLfr, {200'000, 2.5, 4, 100}, 5},
    {"directed-1m", Kind::kDirected, {1'000'000, 2.5, 1, 5000}, 10},
};

constexpr int kThreadCounts[] = {1, 4};
// Set-up is repeated once after every timed call, so its samples spread
// over the run like the calls' do, and topped up to at least this many.
constexpr std::size_t kSetupRepeats = 7;
constexpr std::size_t kMinCalls = 3;
// Each run must end well inside three minutes even on a slow host.
constexpr double kRunCapSeconds = 120.0;

/// The workload input: the target degree distribution and its directed
/// form (each class becomes an (in = d, out = d) joint class, as in the
/// directed backend).
struct Input {
  DegreeDistribution dist;
  DirectedDegreeDistribution directed;
};

/// Builds the input the way a user holding a graph's degrees would: one
/// degree per vertex, in a vertex order shuffled by `seed`, reduced to a
/// distribution by the library. The result equals the power law's
/// apportioned distribution; `ok` reports that it does.
Input build_input(const Workload& w, std::uint64_t seed, bool& ok) {
  const DegreeDistribution law = powerlaw_distribution(w.law);
  std::vector<std::uint64_t> degrees;
  degrees.reserve(law.num_vertices());
  for (const DegreeClass& c : law.classes())
    degrees.insert(degrees.end(), c.count, c.degree);
  Xoshiro256ss rng(seed);
  for (std::size_t i = degrees.size(); i-- > 1;)
    std::swap(degrees[i], degrees[rng.bounded(i + 1)]);

  Input input;
  input.dist = DegreeDistribution::from_degree_sequence(degrees);
  std::vector<DirectedDegreeClass> classes;
  classes.reserve(input.dist.num_classes());
  for (const DegreeClass& c : input.dist.classes())
    classes.push_back({c.degree, c.degree, c.count});
  input.directed = DirectedDegreeDistribution(std::move(classes));
  ok = input.dist == law;
  return input;
}

LfrParams lfr_params(const Workload& w, std::uint64_t seed) {
  LfrParams params;
  params.n = w.law.n;
  params.degree_exponent = w.law.gamma;
  params.dmin = w.law.dmin;
  params.dmax = w.law.dmax;
  params.mu = kLfrMu;
  params.cmin = kLfrCmin;
  params.cmax = kLfrCmax;
  params.seed = seed;
  params.swap_iterations = w.swaps;
  return params;
}

// ---------------------------------------------------------------------------
// End-to-end calls

/// What one verified end-to-end call produced.
struct CallOutcome {
  double seconds = 0.0;
  bool ok = false;
  double edge_err = 0.0;
  double dmax_err = 0.0;
  double mu_err = 0.0;          // LFR only
  double acceptance = -1.0;     // < 0 when the call does not expose it
  std::size_t layers = 0;       // LFR only
  std::size_t merged_duplicates = 0;
  /// With a trace sink: the summed duration of the library's own top-level
  /// phase spans inside the call (null model: its three phases; LFR: its
  /// layers). The directed entry point records none.
  double library_phase_s = 0.0;
};

/// Summed duration of the outermost spans named in `names`. The library's
/// exec loops open spans named after their phase, so a phase span can hold
/// nested spans of the same name; those are covered by it and skipped.
double span_seconds(const obs::TraceSink& trace,
                    std::initializer_list<std::string_view> names) {
  std::vector<obs::TraceEventView> matched;
  for (obs::TraceEventView& event : trace.export_events())
    if (std::find(names.begin(), names.end(), event.name) != names.end())
      matched.push_back(std::move(event));
  std::sort(matched.begin(), matched.end(), [](const auto& a, const auto& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.dur_us > b.dur_us;
  });
  std::uint64_t covered_until = 0, total_us = 0;
  for (const obs::TraceEventView& event : matched) {
    if (event.ts_us < covered_until) continue;
    total_us += event.dur_us;
    covered_until = event.ts_us + event.dur_us;
  }
  return static_cast<double>(total_us) * 1e-6;
}

double relative_error(double got, double want) {
  return want > 0 ? std::abs(got - want) / want : 0.0;
}

bool ids_below(const EdgeList& edges, std::uint64_t n) {
  for (const Edge& e : edges)
    if (e.u >= n || e.v >= n) return false;
  return true;
}

/// One end-to-end call at the current OpenMP thread count. `trace` (may be
/// null) is handed to the library's own tracing; `metrics` (may be null)
/// collects the library's swap counters; `spans` (may be null) records the
/// call, without its verification, as a "gen" span.
CallOutcome end_to_end(const Workload& w, const Input& input,
                       std::uint64_t seed, obs::TraceSink* trace,
                       obs::MetricsRegistry* metrics,
                       SpanRecorder* spans = nullptr) {
  const auto timed = [&](auto&& call) {
    return spans != nullptr ? spans->record("gen", max_threads(), call)
                            : time_s(call);
  };
  CallOutcome out;
  const std::uint64_t n = input.dist.num_vertices();
  if (w.kind == Kind::kNullModel) {
    GenerateConfig config;
    config.seed = seed;
    config.swap_iterations = w.swaps;
    config.obs.trace = trace;
    config.obs.metrics = metrics;
    GenerateResult result;
    out.seconds = timed([&] { result = generate_null_graph(input.dist, config); });
    const QualityErrors q = quality_errors(input.dist, result.edges);
    out.edge_err = q.edge_count;
    out.dmax_err = q.max_degree;
    out.acceptance = result.swap_stats.acceptance();
    if (trace != nullptr)
      out.library_phase_s =
          span_seconds(*trace, {"probabilities", "edge generation", "swaps"});
    out.ok = !result.edges.empty() && result.report.first_error().ok() &&
             is_simple(result.edges) && ids_below(result.edges, n);
  } else if (w.kind == Kind::kLfr) {
    LfrParams params = lfr_params(w, seed);
    params.obs.trace = trace;
    params.obs.metrics = metrics;
    LfrGraph graph;
    out.seconds = timed([&] { graph = generate_lfr(params); });
    const QualityErrors q = quality_errors(input.dist, graph.edges);
    out.edge_err = q.edge_count;
    out.dmax_err = q.max_degree;
    out.mu_err = relative_error(graph.achieved_mu, kLfrMu);
    out.layers = graph.num_communities + 1;
    out.merged_duplicates = graph.merged_duplicates;
    if (metrics != nullptr) {
      const double attempted =
          static_cast<double>(metrics->counter("swaps.attempted")->value());
      const double committed =
          static_cast<double>(metrics->counter("swaps.committed")->value());
      if (attempted > 0) out.acceptance = committed / attempted;
    }
    if (trace != nullptr)
      out.library_phase_s = span_seconds(
          *trace, {"lfr community layer", "lfr external layer"});
    out.ok = !graph.edges.empty() && graph.curtailed == StatusCode::kOk &&
             graph.community.size() == params.n && std::isfinite(out.mu_err) &&
             is_simple(graph.edges) && ids_below(graph.edges, n);
  } else {
    ArcList arcs;
    out.seconds = timed([&] {
      arcs = generate_directed_null_graph(input.directed, seed, w.swaps);
    });
    const std::vector<std::uint64_t> in = in_degrees_of(arcs, n);
    const std::vector<std::uint64_t> outd = out_degrees_of(arcs, n);
    std::uint64_t max_in = 0, max_out = 0;
    for (const std::uint64_t d : in) max_in = std::max(max_in, d);
    for (const std::uint64_t d : outd) max_out = std::max(max_out, d);
    out.edge_err = relative_error(static_cast<double>(arcs.size()),
                                  static_cast<double>(input.directed.num_arcs()));
    out.dmax_err = std::max(
        relative_error(static_cast<double>(max_in),
                       static_cast<double>(input.directed.max_in_degree())),
        relative_error(static_cast<double>(max_out),
                       static_cast<double>(input.directed.max_out_degree())));
    out.ok = !arcs.empty() && in.size() == n && outd.size() == n &&
             is_simple(arcs);
  }
  return out;
}

/// Swap acceptance of one directed chain, from the phase calls that make up
/// generate_directed_null_graph (which does not return its swap counters).
double directed_acceptance(const Workload& w, const Input& input,
                           std::uint64_t seed, bool& ok) {
  const DirectedProbabilityMatrix P = directed_greedy_probabilities(input.directed);
  ArcList arcs = directed_edge_skip(P, input.directed, seed);
  const std::vector<std::uint64_t> in = in_degrees_of(arcs);
  const std::vector<std::uint64_t> out = out_degrees_of(arcs);
  DirectedSwapConfig config;
  config.iterations = w.swaps;
  config.seed = seed ^ 0x2545f4914f6cdd1dULL;
  const DirectedSwapStats stats = directed_swap_arcs(arcs, config);
  ok = is_simple(arcs) && in_degrees_of(arcs) == in &&
       out_degrees_of(arcs) == out;
  std::size_t attempted = 0;
  for (const DirectedSwapIterationStats& it : stats.iterations)
    attempted += it.attempted;
  return attempted == 0 ? 0.0
                        : static_cast<double>(stats.total_swapped()) /
                              static_cast<double>(attempted);
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  // the run's per-call values behind `value`
  std::string how;              // how `value` is formed from the samples
  bool in_result = true;        // false: printed with its noise, not in JSON
};

struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("%-34s %14s %14s %14s %4s  %s\n", "metric", "value", "q1", "q3",
              "n", "unit / how");
  for (const Metric& m : metrics) {
    const Quartiles q = quartiles(m.samples);
    std::printf("%-34s %14.6g %14.6g %14.6g %4zu  %s, %s%s\n", m.name.c_str(),
                m.value, q.q1, q.q3, m.samples.size(), m.unit.c_str(),
                m.how.c_str(), m.in_result ? "" : " (unbounded, not in result)");
  }
}

void print_result(const std::vector<Metric>& metrics, const Totals& totals) {
  std::string line = "{\"correct\": ";
  line += totals.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(totals.attempted);
  line += ", \"failed\": " + std::to_string(totals.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string read_first_line_with(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string read_file_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line.empty() ? "unknown" : line;
}

/// Host facts that decide how comparable two runs are.
void print_host(const std::string& git_sha) {
  std::string l2 = "unknown", l3 = "unknown";
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_file_line(dir + "/level");
    if (level == "2") l2 = read_file_line(dir + "/size");
    if (level == "3") l3 = read_file_line(dir + "/size");
  }
  std::string gomp = "not mapped";
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    const std::size_t at = line.find('/');
    if (at != std::string::npos && line.find("libgomp", at) != std::string::npos) {
      gomp = line.substr(at);
      break;
    }
  }
  std::printf("host: nproc %u, cpu %s, L2 %s, L3 %s\n",
              std::thread::hardware_concurrency(),
              read_first_line_with("/proc/cpuinfo", "model name").c_str(),
              l2.c_str(), l3.c_str());
  std::printf("host: thread counts 1 and 4, omp_get_max_threads %d\n",
              omp_get_max_threads());
  std::printf("host: libgomp %s\n", gomp.c_str());
  std::printf("host: git %s\n", git_sha.c_str());
}

double peak_rss_mb() {
  const obs::ProcessMemory memory = obs::sample_process_memory();
  return memory.valid() ? static_cast<double>(memory.peak_resident_kb) / 1024.0
                        : 0.0;
}

// ---------------------------------------------------------------------------
// Timed run (--trace 0)

int timed_run(const Workload& w, std::uint64_t seed, double seconds) {
  Totals totals;
  std::vector<Metric> metrics;

  std::uint64_t seed_chain = seed;
  const std::uint64_t input_seed = splitmix64_next(seed_chain);
  std::vector<double> setup;
  const auto time_setup = [&] {
    bool ok = false;
    Input rebuilt;
    setup.push_back(time_s([&] { rebuilt = build_input(w, input_seed, ok); }));
    totals.count(ok);
    return rebuilt;
  };
  const Input input = time_setup();

  // Warm-up: one untimed end-to-end call at 4 threads starts the OpenMP
  // pool and faults in the allocator's arenas. The peak resident memory
  // right after it covers the input and one generate call, before repeated
  // calls fragment the heap. Its swap counters give the chain's acceptance;
  // the directed entry point returns none, so that chain is rerun from its
  // phase calls after the timed calls.
  omp_set_num_threads(4);
  obs::MetricsRegistry registry;
  const std::uint64_t warm_seed = splitmix64_next(seed_chain);
  const CallOutcome warm = end_to_end(w, input, warm_seed, nullptr, &registry);
  totals.count(warm.ok);
  const double rss = peak_rss_mb();
  double acceptance = warm.acceptance;

  // Timed calls: a thread count still short of kMinCalls calls goes first;
  // otherwise the one with the least time spent, so each gets about half of
  // the run and the slower one is not starved of samples.
  std::map<int, std::vector<double>> gen_s;
  std::map<int, double> spent;
  std::vector<double> edge_err, dmax_err, mu_err;
  const double start = now_s();
  for (;;) {
    const auto short_of_calls = [&](int t) { return gen_s[t].size() < kMinCalls; };
    int threads = kThreadCounts[0];
    for (const int t : kThreadCounts)
      if (short_of_calls(t) != short_of_calls(threads)
              ? short_of_calls(t)
              : spent[t] < spent[threads])
        threads = t;
    const double elapsed = now_s() - start;
    const double expected = gen_s[threads].empty() ? 0.0 : mean(gen_s[threads]);
    if (elapsed + expected > kRunCapSeconds) break;
    if (!short_of_calls(threads) && elapsed + expected > seconds) break;

    omp_set_num_threads(threads);
    const CallOutcome call =
        end_to_end(w, input, splitmix64_next(seed_chain), nullptr, nullptr);
    totals.count(call.ok);
    gen_s[threads].push_back(call.seconds);
    spent[threads] += call.seconds;
    time_setup();
    edge_err.push_back(call.edge_err);
    dmax_err.push_back(call.dmax_err);
    mu_err.push_back(call.mu_err);
  }

  while (setup.size() < kSetupRepeats) time_setup();
  if (w.kind == Kind::kDirected) {
    omp_set_num_threads(4);
    bool ok = false;
    acceptance = directed_acceptance(w, input, warm_seed, ok);
    totals.count(ok);
  }

  metrics.push_back({"setup_s", "s", median(setup), setup,
                     "median of repeated input builds"});
  for (const int threads : kThreadCounts) {
    totals.count(!gen_s[threads].empty());  // the run cap cut it short
    metrics.push_back({"gen_s_t" + std::to_string(threads), "s",
                       median(gen_s[threads]), gen_s[threads],
                       "median wall time of one generate call"});
  }
  metrics.push_back({"swap_acceptance", "ratio", acceptance, {acceptance},
                     "committed/attempted swaps, warm-up seed's chain"});
  metrics.push_back({"peak_rss_mb", "MB", rss, {rss},
                     "VmHWM after input and warm-up call"});
  // Output quality. Each value is a random relative error near zero, so its
  // spread across runs is wider than any regression bound; the traced run
  // reports it as an unbounded per-layer metric.
  metrics.push_back({"edge_err", "ratio", mean(edge_err), edge_err,
                     "mean over the run's calls", false});
  metrics.push_back({"dmax_err", "ratio", mean(dmax_err), dmax_err,
                     "mean over the run's calls", false});
  if (w.kind == Kind::kLfr)
    metrics.push_back({"mu_err", "ratio", mean(mu_err), mu_err,
                       "mean over the run's calls", false});
  print_metrics(metrics);
  print_result(metrics, totals);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)

/// A community-sized degree sequence drawn from the workload's degree law:
/// 128 vertices, the internal share of each degree (1 - mu for LFR), capped
/// at 127 and with an even sum.
std::vector<std::uint64_t> community_sequence(const Workload& w,
                                              std::uint64_t seed) {
  constexpr std::uint64_t k = 128;
  const double share = w.kind == Kind::kLfr ? 1.0 - kLfrMu : 1.0;
  std::vector<std::uint64_t> degrees = sample_powerlaw_sequence(
      k, w.law.gamma, w.law.dmin, std::min(w.law.dmax, k - 1), seed);
  std::uint64_t sum = 0;
  for (std::uint64_t& d : degrees) {
    d = std::min<std::uint64_t>(
        k - 1, static_cast<std::uint64_t>(std::llround(share * static_cast<double>(d))));
    sum += d;
  }
  if (sum % 2 == 1) {
    for (std::uint64_t& d : degrees)
      if (d < k - 1) {
        ++d;
        break;
      }
  }
  return degrees;
}

/// Per-(layer, thread count) samples gathered over the traced run.
class LayerSamples {
 public:
  void add(const std::string& name, int threads, double value) {
    samples_[key(name, threads)].push_back(value);
  }
  const std::vector<double>& get(const std::string& name, int threads) {
    return samples_[key(name, threads)];
  }
  double median_of(const std::string& name, int threads) {
    return median(get(name, threads));
  }

 private:
  static std::string key(const std::string& name, int threads) {
    return name + "_t" + std::to_string(threads);
  }
  std::map<std::string, std::vector<double>> samples_;
};

/// One round of layer probes at the current thread count.
void probe_round(const Workload& w, const Input& input, int threads,
                 std::uint64_t& seed_chain, SpanRecorder& spans,
                 LayerSamples& layers, Totals& totals) {
  const auto sample = [&](const std::string& name, double value) {
    layers.add(name, threads, value);
  };

  // End to end: untraced, then inside a span with the library's own
  // tracing attached. Their difference is the tracing overhead.
  const std::uint64_t gen_seed = splitmix64_next(seed_chain);
  const CallOutcome untraced = end_to_end(w, input, gen_seed, nullptr, nullptr);
  totals.count(untraced.ok);
  sample("gen_untraced_s", untraced.seconds);
  obs::TraceSink library_trace;
  const CallOutcome traced =
      end_to_end(w, input, gen_seed, &library_trace, nullptr, &spans);
  totals.count(traced.ok);
  sample("gen_traced_s", traced.seconds);
  const CallOutcome* calls[] = {&untraced, &traced};
  for (const CallOutcome* call : calls) {
    layers.add("quality.edge_err", 0, call->edge_err);
    layers.add("quality.dmax_err", 0, call->dmax_err);
  }
  if (w.kind == Kind::kLfr) {
    sample("lfr.layers", static_cast<double>(traced.layers));
    sample("lfr.merged_duplicates", static_cast<double>(traced.merged_duplicates));
    sample("lfr.mu_err", traced.mu_err);
  }
  double directed_phases_s = 0.0;

  spans.record("probes", threads, [&] {
    // Undirected phases on the workload's distribution.
    ProbabilityMatrix P;
    sample("prob.solve_s", spans.record("prob.solve", threads, [&] {
      P = generate_probabilities(input.dist, ProbabilityMethod::kGreedyAllocation);
    }));
    EdgeList edges;
    EdgeSkipConfig skip_config;
    skip_config.seed = splitmix64_next(seed_chain);
    sample("skip.gen_s", spans.record("skip.gen", threads, [&] {
      edges = edge_skip_generate(P, input.dist, skip_config);
    }));
    totals.count(is_simple(edges));
    const EdgeList generated = edges;
    const std::vector<std::uint64_t> before = degrees_of(edges);
    SwapConfig swap_config;
    swap_config.iterations = w.swaps;
    swap_config.seed = splitmix64_next(seed_chain);
    SwapStats stats;
    sample("core.swap_s", spans.record("core.swap", threads, [&] {
      stats = swap_edges(edges, swap_config);
    }));
    totals.count(is_simple(edges) && degrees_of(edges) == before);
    std::size_t attempted = 0, committed = 0, existing = 0, loops = 0;
    for (const SwapIterationStats& it : stats.iterations) {
      attempted += it.attempted;
      committed += it.swapped;
      existing += it.rejected_existing;
      loops += it.rejected_loop;
    }
    sample("core.attempted", static_cast<double>(attempted));
    sample("core.committed", static_cast<double>(committed));
    sample("core.rejected_existing", static_cast<double>(existing));
    sample("core.rejected_loop", static_cast<double>(loops));

    // One swap iteration's steps, on the edge list the chain starts from.
    const std::size_t m = generated.size();
    ConcurrentHashSet table(m + 2 * (m / 2));
    exec::ParallelContext ctx;
    ctx.threads = threads;
    for (int r = 0; r < 3; ++r) {
      std::vector<std::uint64_t> targets;
      sample("permute.targets_ms", 1e3 * spans.record("permute.targets", threads, [&] {
        targets = knuth_targets(m, splitmix64_next(seed_chain));
      }));
      const std::span<const std::uint64_t> target_span(targets);
      EdgeList parallel = generated;
      EdgeList serial = generated;
      PermuteStats permute;
      sample("permute.apply_ms", 1e3 * spans.record("permute.apply", threads, [&] {
        permute = apply_targets_parallel(std::span<Edge>(parallel), target_span);
      }));
      sample("permute.serial_ms", 1e3 * spans.record("permute.serial", threads, [&] {
        apply_targets_serial(std::span<Edge>(serial), target_span);
      }));
      sample("permute.rounds", static_cast<double>(permute.rounds));
      totals.count(parallel == serial);

      std::size_t duplicates = 0;
      sample("ds.refill_ms", 1e3 * spans.record("ds.refill", threads, [&] {
        table.clear();
        duplicates = exec::reduce<std::size_t>(
            ctx, m, exec::kDefaultGrain, 0,
            [&](const exec::Chunk& chunk) {
              std::size_t mine = 0;
              for (std::size_t i = chunk.begin; i < chunk.end; ++i)
                if (!generated[i].is_loop() && table.test_and_set(generated[i].key()))
                  ++mine;
              return mine;
            },
            [](std::size_t a, std::size_t b) { return a + b; });
      }));
      totals.count(duplicates == 0);
    }

    // Multigraph dedupe, as in the LFR layer merge.
    ChungLuConfig cl_config;
    cl_config.seed = splitmix64_next(seed_chain);
    const EdgeList multigraph = chung_lu_multigraph(input.dist, cl_config);
    EdgeList deduped;
    sample("ds.dedupe_ms", 1e3 * spans.record("ds.dedupe", threads, [&] {
      deduped = erase_nonsimple(multigraph);
    }));
    totals.count(deduped.size() <= multigraph.size() && is_simple(deduped));

    // Directed phases on the directed form of the distribution.
    DirectedProbabilityMatrix DP;
    const double directed_prob_s = spans.record("directed.prob", threads, [&] {
      DP = directed_greedy_probabilities(input.directed);
    });
    sample("directed.prob_s", directed_prob_s);
    ArcList arcs;
    const std::uint64_t arc_seed = splitmix64_next(seed_chain);
    const double directed_skip_s = spans.record("directed.skip", threads, [&] {
      arcs = directed_edge_skip(DP, input.directed, arc_seed);
    });
    sample("directed.skip_s", directed_skip_s);
    const std::vector<std::uint64_t> in = in_degrees_of(arcs);
    const std::vector<std::uint64_t> out = out_degrees_of(arcs);
    DirectedSwapConfig directed_config;
    directed_config.iterations = w.swaps;
    directed_config.seed = splitmix64_next(seed_chain);
    const double directed_swap_s = spans.record("directed.swap", threads, [&] {
      directed_swap_arcs(arcs, directed_config);
    });
    sample("directed.swap_s", directed_swap_s);
    directed_phases_s = directed_prob_s + directed_skip_s + directed_swap_s;
    totals.count(is_simple(arcs) && in_degrees_of(arcs) == in &&
                 out_degrees_of(arcs) == out);

    // Per-call fixed cost: an empty single-chunk parallel loop, and one
    // community-sized generate call.
    std::size_t sink = 0;
    for (int r = 0; r < 200; ++r)
      sample("exec.fork_us", 1e6 * spans.record("exec.fork", threads, [&] {
        exec::for_chunks(ctx, 1, 1, [&](const exec::Chunk& chunk) {
          sink += chunk.end;
        });
      }));
    totals.count(sink == 200);
    GenerateConfig layer_config;
    layer_config.swap_iterations = w.swaps;
    for (int r = 0; r < 50; ++r) {
      const std::vector<std::uint64_t> degrees =
          community_sequence(w, splitmix64_next(seed_chain));
      layer_config.seed = splitmix64_next(seed_chain);
      GenerateResult layer;
      sample("core.layer_ms", 1e3 * spans.record("core.layer", threads, [&] {
        layer = generate_for_sequence(degrees, layer_config);
      }));
      totals.count(is_simple(layer.edges));
    }
  });

  // Residual: the traced end-to-end call minus the phases it is made of,
  // measured inside that call where the library records them, otherwise
  // (directed) by this round's outside phase calls.
  const double phases = w.kind == Kind::kDirected ? directed_phases_s
                                                  : traced.library_phase_s;
  sample("pipeline.residual_s", traced.seconds - phases);
  sample("pipeline.residual_share", (traced.seconds - phases) / traced.seconds);
}

int traced_run(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& trace_out) {
  Totals totals;
  std::uint64_t seed_chain = seed;
  bool input_ok = false;
  const Input input = build_input(w, splitmix64_next(seed_chain), input_ok);
  totals.count(input_ok);
  SpanRecorder spans;
  LayerSamples layers;

  omp_set_num_threads(4);
  totals.count(end_to_end(w, input, splitmix64_next(seed_chain), nullptr, nullptr).ok);

  const double start = now_s();
  for (std::size_t rounds = 1;; ++rounds) {
    for (const int threads : kThreadCounts) {
      omp_set_num_threads(threads);
      probe_round(w, input, threads, seed_chain, spans, layers, totals);
    }
    const double elapsed = now_s() - start;
    const double per_round = elapsed / static_cast<double>(rounds);
    if (elapsed + per_round > seconds || elapsed + per_round > kRunCapSeconds)
      break;
  }

  // Self time per span name and thread count.
  std::map<std::string, std::vector<double>> self_by_name, total_by_name;
  const std::vector<double> self = spans.self_seconds();
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Span& span = spans.spans()[i];
    const std::string key = span.name + " t" + std::to_string(span.threads);
    self_by_name[key].push_back(self[i]);
    total_by_name[key].push_back(span.seconds());
  }
  std::printf("%-24s %14s %14s %6s\n", "span", "median_s", "self_median_s", "n");
  for (const auto& [key, totals_s] : total_by_name)
    std::printf("%-24s %14.6g %14.6g %6zu\n", key.c_str(), median(totals_s),
                median(self_by_name[key]), totals_s.size());

  std::vector<Metric> metrics;
  const auto add = [&](const std::string& name, const std::string& unit,
                       int threads, const std::string& how) {
    const std::vector<double>& samples = layers.get(name, threads);
    metrics.push_back({name + "_t" + std::to_string(threads), unit,
                       median(samples), samples, how});
  };
  const auto computed = [&](const std::string& name, const std::string& unit,
                            int threads, double value, const std::string& how) {
    metrics.push_back({name + "_t" + std::to_string(threads), unit, value,
                       {value}, how});
  };
  for (const int t : kThreadCounts) {
    add("permute.targets_ms", "ms", t, "knuth_targets(m)");
    add("permute.apply_ms", "ms", t, "apply_targets_parallel");
    add("permute.serial_ms", "ms", t, "apply_targets_serial");
    add("permute.rounds", "count", t, "reservation rounds");
    add("ds.refill_ms", "ms", t, "clear + insert m keys");
    add("ds.dedupe_ms", "ms", t, "erase_nonsimple on chung_lu_multigraph");
    add("core.swap_s", "s", t, "swap_edges");
    const double swap_s = layers.median_of("core.swap_s", t);
    const double iter_ms = 1e3 * swap_s / static_cast<double>(w.swaps);
    computed("core.swap_iter_ms", "ms", t, iter_ms, "core.swap_s / iterations");
    computed("core.pairs_ms", "ms", t,
             iter_ms - layers.median_of("permute.targets_ms", t) -
                 layers.median_of("permute.apply_ms", t) -
                 layers.median_of("ds.refill_ms", t),
             "computed: swap_iter - targets - apply - refill");
    add("core.attempted", "count", t, "swap_edges pairs attempted");
    add("core.committed", "count", t, "swap_edges pairs committed");
    add("core.rejected_existing", "count", t, "rejected: edge exists");
    add("core.rejected_loop", "count", t, "rejected: self-loop");
    add("core.layer_ms", "ms", t, "generate_for_sequence, 128 vertices");
    add("prob.solve_s", "s", t, "generate_probabilities");
    add("skip.gen_s", "s", t, "edge_skip_generate");
    add("exec.fork_us", "us", t, "single-chunk exec::for_chunks");
    add("directed.prob_s", "s", t, "directed_greedy_probabilities");
    add("directed.skip_s", "s", t, "directed_edge_skip");
    add("directed.swap_s", "s", t, "directed_swap_arcs");

    add("pipeline.residual_s", "s", t, "computed: traced gen_s - its phases");
    add("pipeline.residual_share", "ratio", t, "computed: residual / gen_s");
    computed("trace.overhead_s", "s", t,
             layers.median_of("gen_traced_s", t) -
                 layers.median_of("gen_untraced_s", t),
             "computed: traced gen_s - untraced gen_s");
  }
  // Not per thread count: LFR counts come from the 4-thread traced calls,
  // output quality from every end-to-end call of the run.
  const auto pooled = [&](const std::string& name, int threads,
                          const std::string& unit, const std::string& how) {
    const std::vector<double>& samples = layers.get(name, threads);
    metrics.push_back({name, unit, mean(samples), samples, how});
  };
  pooled("lfr.layers", 4, "count", "community layers + external (0: not LFR)");
  pooled("lfr.merged_duplicates", 4, "count", "cross-layer duplicates (0: not LFR)");
  pooled("lfr.mu_err", 4, "ratio", "|achieved_mu - mu| / mu (0: not LFR)");
  pooled("quality.edge_err", 0, "ratio", "mean |m - m_target| / m_target");
  pooled("quality.dmax_err", 0, "ratio", "mean |dmax - dmax_target| / dmax_target");

  const Status written = spans.write_perfetto(trace_out);
  std::printf("trace: %zu spans -> %s (%s)\n", spans.spans().size(),
              trace_out.c_str(), written.ok() ? "written" : written.message().c_str());
  totals.count(written.ok());
  print_metrics(metrics);
  print_result(metrics, totals);
  return 0;
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nullbench: %s\nusage: nullbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--git-sha SHA]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size())
    usage((std::string("bad value for ") + flag).c_str());
  return value;
}

}  // namespace
}  // namespace nullbench

int main(int argc, char** argv) {
  using namespace nullbench;
  std::string workload, trace_out = "nullbench-trace.json", git_sha = "unknown";
  std::uint64_t seed = 1, seconds = 10, trace = 0;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      seconds = parse_u64(value, "--seconds");
    } else if (flag == "--trace") {
      trace = parse_u64(value, "--trace");
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (trace > 1) usage("--trace takes 0 or 1");
  const nullbench::Workload* chosen = nullptr;
  for (const nullbench::Workload& w : nullbench::kWorkloads)
    if (workload == w.name) chosen = &w;
  if (chosen == nullptr) usage(("unknown workload " + workload).c_str());

  std::printf("workload %s, seed %llu, seconds %llu, trace %llu\n",
              chosen->name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace));
  print_host(git_sha);
  try {
    return trace == 1 ? traced_run(*chosen, seed, static_cast<double>(seconds), trace_out)
                      : timed_run(*chosen, seed, static_cast<double>(seconds));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "nullbench: %s\n", error.what());
    return 2;
  }
}
