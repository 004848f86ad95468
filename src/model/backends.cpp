// The built-in GeneratorBackend implementations: the five pre-registry
// generators (null-model, chung-lu, directed, bipartite, lfr) plus the
// linear-work R-MAT backend, all plugged into the same substrate.
//
// Registration is an explicit call from registry.cpp (lazy, on first
// lookup) — NOT static initializers, which a static-library link would
// dead-strip.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "analysis/metrics.hpp"
#include "bipartite/bipartite.hpp"
#include "core/null_model.hpp"
#include "directed/directed_generators.hpp"
#include "exec/parallel_context.hpp"
#include "exec/phase_timing.hpp"
#include "gen/chung_lu.hpp"
#include "gen/powerlaw.hpp"
#include "io/graph_io.hpp"
#include "lfr/lfr.hpp"
#include "model/registry.hpp"
#include "model/rmat.hpp"

namespace nullgraph::model {
namespace {

std::string format_note(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

std::string format_note(const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

/// Shared degree-distribution input of every degree-input backend: --dist
/// FILE wins, otherwise the power law (the default source, so a bare run
/// works) with the parameters below.
Result<DegreeDistribution> dist_from_spec(const ModelSpec& spec) {
  if (const auto file = spec.param("dist"); file && !file->empty())
    return try_read_degree_distribution_file(*file);
  PowerlawParams params;
  params.n = 100000;
  params.dmax = 1000;
  const Result<std::uint64_t> n = spec.param_u64("n", params.n);
  if (!n.ok()) return n.status();
  params.n = n.value();
  const Result<double> gamma = spec.param_double("gamma", params.gamma);
  if (!gamma.ok()) return gamma.status();
  params.gamma = gamma.value();
  const Result<std::uint64_t> dmin = spec.param_u64("dmin", params.dmin);
  if (!dmin.ok()) return dmin.status();
  params.dmin = dmin.value();
  const Result<std::uint64_t> dmax = spec.param_u64("dmax", params.dmax);
  if (!dmax.ok()) return dmax.status();
  params.dmax = dmax.value();
  if (params.n == 0)
    return Status(StatusCode::kInvalidArgument, "--n must be positive");
  if (params.dmin == 0 || params.dmax < params.dmin)
    return Status(StatusCode::kInvalidArgument,
                  "--dmin/--dmax must satisfy 1 <= dmin <= dmax");
  return powerlaw_distribution(params);
}

std::vector<BackendParam> degree_input_params() {
  return {
      {"dist", "FILE", "degree distribution file ('degree count' lines)"},
      {"powerlaw", "", "synthetic power-law distribution (default source)"},
      {"n", "N", "power-law vertex count (default 100000)"},
      {"gamma", "G", "power-law exponent (default 2.5)"},
      {"dmin", "D", "minimum degree (default 1)"},
      {"dmax", "D", "maximum degree (default 1000)"},
  };
}

// ---------------------------------------------------------------------------
// null-model: the paper's Algorithm IV.1 pipeline.

class NullModelBackend final : public GeneratorBackend {
 public:
  std::string_view name() const noexcept override { return "null-model"; }
  std::string_view summary() const noexcept override {
    return "uniform simple graphs from a degree distribution "
           "(edge-skip + swap mixing; the paper's pipeline)";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.swaps = true;
    caps.spill = true;
    caps.checkpoint = true;
    caps.degree_input = true;
    return caps;
  }
  SamplingSpace default_space() const override {
    return {false, false, Labeling::kVertex};
  }
  std::vector<SamplingSpace> supported_spaces() const override {
    return {default_space()};
  }
  std::vector<BackendParam> params() const override {
    return degree_input_params();
  }

  Result<GenerateOutput> generate(const ModelSpec& spec,
                                  const PipelineContext& ctx) const override {
    Result<DegreeDistribution> dist = dist_from_spec(spec);
    if (!dist.ok()) return dist.status();
    GenerateConfig config;
    config.seed = spec.seed;
    config.swap_iterations =
        spec.swap_iterations.value_or(default_swap_iterations());
    config.guardrails = ctx.guardrails;
    config.governance = ctx.governance;
    config.spill = ctx.spill;
    config.obs = ctx.obs;
    GenerateOutput out;
    Result<GenerateResult> run =
        generate_null_graph_checked(dist.value(), config);
    if (!run.ok()) return run.status();
    out.result = std::move(run).value();
    out.space = default_space();
    // The pipeline's own guardrail census + swap invariants cover the
    // space; a second driver census would double the check.
    out.space_verified = true;
    if (!out.result.spill.spilled) {
      const QualityErrors errors =
          quality_errors(dist.value(), out.result.edges);
      out.notes.push_back(format_note(
          "generated %zu edges (target %llu); err: edges %.2f%% dmax "
          "%.2f%%; %.3f s",
          out.result.edges.size(),
          static_cast<unsigned long long>(dist.value().num_edges()),
          100 * errors.edge_count, 100 * errors.max_degree,
          out.result.timing.total_seconds()));
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// chung-lu: the O(m) baselines. The sampling space SELECTS the algorithm —
// stub-labeled loopy-multi is the raw multigraph, stub-labeled simple the
// erased variant, vertex-labeled simple the Bernoulli/edge-skip variant
// (exactly the three estimators Section VIII compares).

class ChungLuBackend final : public GeneratorBackend {
 public:
  std::string_view name() const noexcept override { return "chung-lu"; }
  std::string_view summary() const noexcept override {
    return "O(m) Chung-Lu draws; --space picks raw multigraph, erased, or "
           "Bernoulli variant";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.degree_input = true;
    return caps;
  }
  SamplingSpace default_space() const override {
    return {true, true, Labeling::kStub};
  }
  std::vector<SamplingSpace> supported_spaces() const override {
    return {{true, true, Labeling::kStub},
            {false, false, Labeling::kStub},
            {false, false, Labeling::kVertex}};
  }
  std::vector<BackendParam> params() const override {
    auto params = degree_input_params();
    params.push_back({"sampler", "NAME",
                      "endpoint sampler: vertex | class | alias "
                      "(default vertex; stub-labeled spaces only)"});
    return params;
  }

  Result<GenerateOutput> generate(const ModelSpec& spec,
                                  const PipelineContext& ctx) const override {
    Result<DegreeDistribution> dist = dist_from_spec(spec);
    if (!dist.ok()) return dist.status();
    const SamplingSpace space = spec.space.value_or(default_space());
    ChungLuConfig config;
    config.seed = spec.seed;
    if (const auto sampler = spec.param("sampler")) {
      if (*sampler == "vertex") {
        config.sampler = ClSampler::kBinarySearchVertex;
      } else if (*sampler == "class") {
        config.sampler = ClSampler::kBinarySearchClass;
      } else if (*sampler == "alias") {
        config.sampler = ClSampler::kAlias;
      } else {
        return Status(StatusCode::kInvalidArgument,
                      "unknown sampler '" + *sampler +
                          "' (vertex|class|alias)");
      }
    }
    const GovernorScope governor(ctx.governance);
    exec::PhaseTimingSink sink;
    config.governor = governor.get();
    config.timings = &sink;
    GenerateOutput out;
    out.result.timing.start("chung-lu draws");
    if (space.labeling == Labeling::kVertex) {
      // Bernoulli Chung-Lu runs through the edge-skip kernel, which has no
      // chunk-granular governor hook, so poll (not just read the latch)
      // here: should_stop() is what trips on a pre-cancelled token or an
      // already-expired deadline before the draw starts.
      if (governor.get() == nullptr ||
          governor.get()->should_stop() == StatusCode::kOk)
        out.result.edges = bernoulli_chung_lu(dist.value(), spec.seed);
    } else if (space.multi_edges) {
      out.result.edges = chung_lu_multigraph(dist.value(), config);
    } else {
      out.result.edges = erased_chung_lu(dist.value(), config);
    }
    out.result.timing.stop();
    record_curtailment(out.result.report, governor.get(), ctx.obs, "chung-lu",
                       out.result.edges.size(),
                       static_cast<std::size_t>(dist.value().num_edges()));
    out.result.report.phase_timings = sink.snapshot();
    out.space = space;
    // The erased/Bernoulli variants are simple by construction, but the
    // driver census doubles as the regression check for exactly that
    // claim, so leave verification to it.
    out.space_verified = false;
    out.notes.push_back(format_note(
        "chung-lu (%s): %zu edges in %.3f s", space_name(space),
        out.result.edges.size(), out.result.timing.total_seconds()));
    return out;
  }
};

// ---------------------------------------------------------------------------
// directed: Algorithm IV.1 on simple digraphs (each undirected degree
// class becomes an (in=d, out=d) joint class).

class DirectedBackend final : public GeneratorBackend {
 public:
  std::string_view name() const noexcept override { return "directed"; }
  std::string_view summary() const noexcept override {
    return "uniform simple digraphs; undirected classes become (in=d, "
           "out=d) joint classes";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.swaps = true;
    caps.directed = true;
    caps.degree_input = true;
    return caps;
  }
  SamplingSpace default_space() const override {
    return {false, false, Labeling::kVertex};
  }
  std::vector<SamplingSpace> supported_spaces() const override {
    return {default_space()};
  }
  std::vector<BackendParam> params() const override {
    return degree_input_params();
  }

  Result<GenerateOutput> generate(const ModelSpec& spec,
                                  const PipelineContext& ctx) const override {
    Result<DegreeDistribution> dist = dist_from_spec(spec);
    if (!dist.ok()) return dist.status();
    std::vector<DirectedDegreeClass> classes;
    classes.reserve(dist.value().classes().size());
    for (const DegreeClass& c : dist.value().classes())
      classes.push_back({c.degree, c.degree, c.count});
    const DirectedDegreeDistribution directed(std::move(classes));
    const GovernorScope governor(ctx.governance);
    GenerateOutput out;
    out.result.timing.start("directed pipeline");
    const ArcList arcs = generate_directed_null_graph(
        directed, spec.seed,
        spec.swap_iterations.value_or(default_swap_iterations()),
        governor.get());
    out.result.timing.stop();
    out.result.edges.reserve(arcs.size());
    for (const Arc& arc : arcs) out.result.edges.push_back({arc.from, arc.to});
    record_curtailment(out.result.report, governor.get(), ctx.obs, "directed",
                       out.result.edges.size(),
                       static_cast<std::size_t>(directed.num_arcs()));
    out.space = default_space();
    out.space_verified = false;
    out.directed = true;
    out.notes.push_back(format_note(
        "directed: %zu arcs (target %llu) in %.3f s", out.result.edges.size(),
        static_cast<unsigned long long>(directed.num_arcs()),
        out.result.timing.total_seconds()));
    return out;
  }
};

// ---------------------------------------------------------------------------
// bipartite: checkerboard null model; one degree distribution is applied
// to BOTH sides (equal stub totals by construction, so a bipartite graph
// always exists).

class BipartiteBackend final : public GeneratorBackend {
 public:
  std::string_view name() const noexcept override { return "bipartite"; }
  std::string_view summary() const noexcept override {
    return "uniform simple bipartite graphs; the distribution applies to "
           "both sides";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.swaps = true;
    caps.bipartite = true;
    caps.degree_input = true;
    return caps;
  }
  SamplingSpace default_space() const override {
    return {false, false, Labeling::kVertex};
  }
  std::vector<SamplingSpace> supported_spaces() const override {
    return {default_space()};
  }
  std::vector<BackendParam> params() const override {
    return degree_input_params();
  }

  Result<GenerateOutput> generate(const ModelSpec& spec,
                                  const PipelineContext& ctx) const override {
    Result<DegreeDistribution> dist = dist_from_spec(spec);
    if (!dist.ok()) return dist.status();
    const BipartiteDistribution bipartite(dist.value().classes(),
                                          dist.value().classes());
    const GovernorScope governor(ctx.governance);
    GenerateOutput out;
    out.result.timing.start("bipartite pipeline");
    const ArcList arcs = bipartite_null_graph(
        bipartite, spec.seed,
        spec.swap_iterations.value_or(default_swap_iterations()),
        governor.get());
    out.result.timing.stop();
    out.result.edges.reserve(arcs.size());
    for (const Arc& arc : arcs) out.result.edges.push_back({arc.from, arc.to});
    record_curtailment(out.result.report, governor.get(), ctx.obs, "bipartite",
                       out.result.edges.size(),
                       static_cast<std::size_t>(bipartite.num_edges()));
    out.space = default_space();
    out.space_verified = false;
    out.bipartite = true;
    out.bipartite_left = bipartite.num_left();
    out.notes.push_back(format_note(
        "bipartite: %zu edges (target %llu, %llu left / %llu right) in "
        "%.3f s",
        out.result.edges.size(),
        static_cast<unsigned long long>(bipartite.num_edges()),
        static_cast<unsigned long long>(bipartite.num_left()),
        static_cast<unsigned long long>(bipartite.num_right()),
        out.result.timing.total_seconds()));
    return out;
  }
};

// ---------------------------------------------------------------------------
// lfr: layered community benchmark; every layer is a null-model run.

class LfrBackend final : public GeneratorBackend {
 public:
  std::string_view name() const noexcept override { return "lfr"; }
  std::string_view summary() const noexcept override {
    return "LFR-like community benchmark (one null-model layer per "
           "community + external layer)";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.swaps = true;
    caps.communities = true;
    return caps;
  }
  SamplingSpace default_space() const override {
    return {false, false, Labeling::kVertex};
  }
  std::vector<SamplingSpace> supported_spaces() const override {
    return {default_space()};
  }
  std::size_t default_swap_iterations() const override { return 5; }
  std::vector<BackendParam> params() const override {
    return {
        {"n", "N", "vertex count (default 10000)"},
        {"mu", "MU", "target mixing parameter (default 0.3)"},
        {"dmin", "D", "minimum degree (default 4)"},
        {"dmax", "D", "maximum degree (default 100)"},
        {"cmin", "C", "minimum community size (default 32)"},
        {"cmax", "C", "maximum community size (default 512)"},
        {"tau1", "T", "degree exponent (default 2.5)"},
        {"tau2", "T", "community-size exponent (default 1.8)"},
    };
  }

  Result<GenerateOutput> generate(const ModelSpec& spec,
                                  const PipelineContext& ctx) const override {
    LfrParams params;
    const Result<std::uint64_t> n = spec.param_u64("n", params.n);
    if (!n.ok()) return n.status();
    params.n = n.value();
    const Result<double> mu = spec.param_double("mu", params.mu);
    if (!mu.ok()) return mu.status();
    params.mu = mu.value();
    const Result<std::uint64_t> dmin = spec.param_u64("dmin", params.dmin);
    if (!dmin.ok()) return dmin.status();
    params.dmin = dmin.value();
    const Result<std::uint64_t> dmax = spec.param_u64("dmax", params.dmax);
    if (!dmax.ok()) return dmax.status();
    params.dmax = dmax.value();
    const Result<std::uint64_t> cmin = spec.param_u64("cmin", params.cmin);
    if (!cmin.ok()) return cmin.status();
    params.cmin = cmin.value();
    const Result<std::uint64_t> cmax = spec.param_u64("cmax", params.cmax);
    if (!cmax.ok()) return cmax.status();
    params.cmax = cmax.value();
    const Result<double> tau1 =
        spec.param_double("tau1", params.degree_exponent);
    if (!tau1.ok()) return tau1.status();
    params.degree_exponent = tau1.value();
    const Result<double> tau2 =
        spec.param_double("tau2", params.community_exponent);
    if (!tau2.ok()) return tau2.status();
    params.community_exponent = tau2.value();
    params.seed = spec.seed;
    params.swap_iterations =
        spec.swap_iterations.value_or(default_swap_iterations());
    params.governance = ctx.governance;
    params.obs = ctx.obs;
    LfrGraph graph = generate_lfr(params);
    GenerateOutput out;
    out.notes.push_back(format_note(
        "lfr: %zu edges, %zu communities, achieved mu %.4f",
        graph.edges.size(), graph.num_communities, graph.achieved_mu));
    if (graph.curtailed != StatusCode::kOk) {
      out.result.report.curtailments.push_back(
          {"lfr layers", graph.curtailed, graph.communities_completed,
           graph.num_communities, 0.0});
    }
    out.result.edges = std::move(graph.edges);
    out.community = std::move(graph.community);
    out.space = default_space();
    out.space_verified = false;
    // Keep the layer scalars for the report's `lfr` block; the edge list
    // and partition live in their canonical slots above.
    out.lfr = std::move(graph);
    out.lfr->edges.clear();
    out.lfr->community.clear();
    return out;
  }
};

// ---------------------------------------------------------------------------
// rmat: the new, degree-distribution-free power-law backend.

class RmatBackend final : public GeneratorBackend {
 public:
  std::string_view name() const noexcept override { return "rmat"; }
  std::string_view summary() const noexcept override {
    return "linear-work R-MAT (alias tables over quadrant paths, "
           "arXiv:1905.03525)";
  }
  BackendCapabilities capabilities() const override {
    return BackendCapabilities{};
  }
  SamplingSpace default_space() const override {
    return {true, true, Labeling::kVertex};
  }
  std::vector<SamplingSpace> supported_spaces() const override {
    return {{true, true, Labeling::kVertex},
            {false, false, Labeling::kVertex}};
  }
  std::vector<BackendParam> params() const override {
    return {
        {"scale", "K", "2^K vertices (default 16, max 30)"},
        {"edge-factor", "E", "E * 2^K edges drawn (default 8)"},
        {"a", "P", "upper-left quadrant probability (default 0.57)"},
        {"b", "P", "upper-right quadrant probability (default 0.19)"},
        {"c", "P", "lower-left quadrant probability (default 0.19)"},
    };
  }

  Result<GenerateOutput> generate(const ModelSpec& spec,
                                  const PipelineContext& ctx) const override {
    RmatParams params;
    const Result<std::uint64_t> scale = spec.param_u64("scale", params.scale);
    if (!scale.ok()) return scale.status();
    if (scale.value() == 0 || scale.value() > 30)
      return Status(StatusCode::kInvalidArgument,
                    "--scale must be in 1..30");
    params.scale = static_cast<std::uint32_t>(scale.value());
    const Result<std::uint64_t> factor =
        spec.param_u64("edge-factor", params.edges_per_vertex);
    if (!factor.ok()) return factor.status();
    if (factor.value() == 0 || factor.value() > (1ull << 32))
      return Status(StatusCode::kInvalidArgument,
                    "--edge-factor must be in 1..2^32");
    params.edges_per_vertex = factor.value();
    const Result<double> a = spec.param_double("a", params.a);
    if (!a.ok()) return a.status();
    params.a = a.value();
    const Result<double> b = spec.param_double("b", params.b);
    if (!b.ok()) return b.status();
    params.b = b.value();
    const Result<double> c = spec.param_double("c", params.c);
    if (!c.ok()) return c.status();
    params.c = c.value();
    if (!(params.a > 0) || !(params.b > 0) || !(params.c > 0) ||
        !(params.a + params.b + params.c < 1.0))
      return Status(StatusCode::kInvalidArgument,
                    "--a/--b/--c must be positive with a + b + c < 1");
    params.seed = spec.seed;

    const SamplingSpace space = spec.space.value_or(default_space());
    const GovernorScope governor(ctx.governance);
    exec::PhaseTimingSink sink;
    exec::ParallelContext pctx;
    pctx.seed = spec.seed;
    pctx.governor = governor.get();
    pctx.timings = &sink;
    pctx.phase = "rmat";
    pctx.obs = ctx.obs;
    GenerateOutput out;
    out.result.timing.start("rmat draws");
    out.result.edges = rmat_edges(params, pctx);
    out.result.timing.stop();
    const std::size_t drawn = out.result.edges.size();
    if (!space.self_loops && !space.multi_edges) {
      out.result.timing.start("erase nonsimple");
      out.result.edges = erase_nonsimple(out.result.edges);
      out.result.timing.stop();
    }
    record_curtailment(
        out.result.report, governor.get(), ctx.obs, "rmat", drawn,
        static_cast<std::size_t>(params.edges_per_vertex << params.scale));
    out.result.report.phase_timings = sink.snapshot();
    out.space = space;
    out.space_verified = false;
    out.notes.push_back(format_note(
        "rmat: %zu edges (scale %u, %llu drawn) in %.3f s",
        out.result.edges.size(), params.scale,
        static_cast<unsigned long long>(drawn),
        out.result.timing.total_seconds()));
    return out;
  }
};

}  // namespace

namespace detail {

void register_builtin_backends() {
  register_backend(std::make_unique<NullModelBackend>());
  register_backend(std::make_unique<ChungLuBackend>());
  register_backend(std::make_unique<DirectedBackend>());
  register_backend(std::make_unique<BipartiteBackend>());
  register_backend(std::make_unique<LfrBackend>());
  register_backend(std::make_unique<RmatBackend>());
}

}  // namespace detail
}  // namespace nullgraph::model
