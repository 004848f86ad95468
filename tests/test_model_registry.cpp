// The backend registry + driver contract, backend by backend:
//  * the registry lists the six built-ins and generates usage text;
//  * run_model output is bit-identical to the direct generator calls the
//    pre-registry commands made (the migration's no-behavior-change bar);
//  * every backend is thread-count invariant at 1/2/8 threads (swap phases
//    excluded — MCMC over a shared table is thread-dependent by design);
//  * governance verdicts (pre-cancelled token, expired deadline) surface
//    as typed curtailments through the driver for every backend;
//  * the driver rejects what a backend does not declare (swaps / spill /
//    checkpoint / space / params) as kInvalidArgument;
//  * the driver census flags a backend whose output violates its declared
//    sampling space, and the model block lands in the run report.

#include <gtest/gtest.h>
#include <omp.h>

#include <memory>
#include <string>
#include <vector>

#include "bipartite/bipartite.hpp"
#include "core/null_model.hpp"
#include "directed/directed_generators.hpp"
#include "gen/chung_lu.hpp"
#include "gen/powerlaw.hpp"
#include "lfr/lfr.hpp"
#include "model/driver.hpp"
#include "model/registry.hpp"
#include "obs/report.hpp"

namespace nullgraph::model {
namespace {

ModelSpec make_spec(
    std::string backend, std::uint64_t seed,
    std::vector<std::pair<std::string, std::string>> params = {}) {
  ModelSpec spec;
  spec.backend = std::move(backend);
  spec.seed = seed;
  spec.params = std::move(params);
  return spec;
}

Result<ModelRun> run(const ModelSpec& spec) {
  return run_model(spec, PipelineContext{});
}

/// The shared degree input every degree-driven comparison uses: small
/// enough for 1/2/8-thread sweeps, skewed enough to exercise all classes.
PowerlawParams small_powerlaw() {
  PowerlawParams params;
  params.n = 2000;
  params.gamma = 2.5;
  params.dmin = 1;
  params.dmax = 50;
  return params;
}

std::vector<std::pair<std::string, std::string>> small_powerlaw_params() {
  return {{"powerlaw", ""}, {"n", "2000"}, {"dmax", "50"}};
}

// --------------------------------------------------------------- registry

TEST(ModelRegistry, ListsBuiltinsInRegistrationOrder) {
  const std::vector<const GeneratorBackend*> backends = all_backends();
  ASSERT_GE(backends.size(), 6u);  // tests may append their own
  const char* expected[] = {"null-model", "chung-lu", "directed",
                            "bipartite",  "lfr",      "rmat"};
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(backends[i]->name(), expected[i]);
  EXPECT_NE(find_backend("rmat"), nullptr);
  EXPECT_EQ(find_backend("does-not-exist"), nullptr);
}

TEST(ModelRegistry, UsageAndDescribeCoverEveryBackend) {
  const std::string usage = registry_usage_text();
  const std::string described = describe_backends();
  for (const GeneratorBackend* backend : all_backends()) {
    const std::string name(backend->name());
    EXPECT_NE(usage.find(name), std::string::npos) << name;
    EXPECT_NE(described.find(name), std::string::npos) << name;
  }
  // Declared parameters surface in the describe body (spot check).
  EXPECT_NE(described.find("--scale"), std::string::npos);
}

// ------------------------------------- registry vs direct call bit-parity

TEST(ModelParity, NullModelMatchesDirectPipeline) {
  ModelSpec spec = make_spec("null-model", 42, small_powerlaw_params());
  spec.swap_iterations = 3;
  const Result<ModelRun> via_registry = run(spec);
  ASSERT_TRUE(via_registry.ok()) << via_registry.status().message();

  GenerateConfig config;
  config.seed = 42;
  config.swap_iterations = 3;
  const GenerateResult direct =
      generate_null_graph(powerlaw_distribution(small_powerlaw()), config);
  EXPECT_EQ(via_registry.value().output.result.edges, direct.edges);
}

TEST(ModelParity, ChungLuSpaceSelectsTheMatchingKernel) {
  const DegreeDistribution dist = powerlaw_distribution(small_powerlaw());
  const std::uint64_t seed = 33;
  ChungLuConfig config;
  config.seed = seed;

  // Default space: stub-labeled loopy-multi = the raw multigraph kernel.
  ModelSpec multi = make_spec("chung-lu", seed, {{"n", "2000"}, {"dmax", "50"}});
  Result<ModelRun> got = run(multi);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().output.result.edges, chung_lu_multigraph(dist, config));

  // Stub-labeled simple = the erased variant.
  ModelSpec erased = multi;
  erased.space = SamplingSpace{false, false, Labeling::kStub};
  got = run(erased);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().output.result.edges, erased_chung_lu(dist, config));

  // Vertex-labeled simple = the Bernoulli / edge-skip variant; the driver
  // census must agree with the declared simple space.
  ModelSpec bernoulli = multi;
  bernoulli.space = SamplingSpace{false, false, Labeling::kVertex};
  got = run(bernoulli);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().output.result.edges, bernoulli_chung_lu(dist, seed));
  const PipelineReport& report = got.value().output.result.report;
  ASSERT_FALSE(report.checks.empty());
  EXPECT_EQ(report.checks.back().phase, "sampling space");
  EXPECT_TRUE(report.checks.back().status.ok());
}

TEST(ModelParity, DirectedMatchesDirectGenerator) {
  const DegreeDistribution dist = powerlaw_distribution(small_powerlaw());
  std::vector<DirectedDegreeClass> classes;
  for (const DegreeClass& c : dist.classes())
    classes.push_back({c.degree, c.degree, c.count});
  const ArcList arcs = generate_directed_null_graph(
      DirectedDegreeDistribution(std::move(classes)), 7, 2);

  ModelSpec spec = make_spec("directed", 7, small_powerlaw_params());
  spec.swap_iterations = 2;
  const Result<ModelRun> got = run(spec);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(got.value().output.directed);
  const EdgeList& edges = got.value().output.result.edges;
  ASSERT_EQ(edges.size(), arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    EXPECT_EQ(edges[i].u, arcs[i].from);
    EXPECT_EQ(edges[i].v, arcs[i].to);
  }
}

TEST(ModelParity, BipartiteMatchesDirectGenerator) {
  const DegreeDistribution dist = powerlaw_distribution(small_powerlaw());
  const BipartiteDistribution bipartite(dist.classes(), dist.classes());
  const ArcList arcs = bipartite_null_graph(bipartite, 7, 2);

  ModelSpec spec = make_spec("bipartite", 7, small_powerlaw_params());
  spec.swap_iterations = 2;
  const Result<ModelRun> got = run(spec);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(got.value().output.bipartite);
  EXPECT_EQ(got.value().output.bipartite_left, bipartite.num_left());
  const EdgeList& edges = got.value().output.result.edges;
  ASSERT_EQ(edges.size(), arcs.size());
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    EXPECT_EQ(edges[i].u, arcs[i].from);
    EXPECT_EQ(edges[i].v, arcs[i].to);
  }
}

TEST(ModelParity, LfrMatchesDirectGenerator) {
  LfrParams params;
  params.n = 1500;
  params.mu = 0.25;
  params.seed = 11;
  params.swap_iterations = 2;
  const LfrGraph direct = generate_lfr(params);

  ModelSpec spec =
      make_spec("lfr", 11, {{"n", "1500"}, {"mu", "0.25"}});
  spec.swap_iterations = 2;
  const Result<ModelRun> got = run(spec);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().output.result.edges, direct.edges);
  EXPECT_EQ(got.value().output.community, direct.community);
  ASSERT_TRUE(got.value().output.lfr.has_value());
  EXPECT_EQ(got.value().output.lfr->num_communities, direct.num_communities);
}

// --------------------------------------------- thread-count invariance

/// One sweep case per backend. Swap-capable backends run with
/// swap_iterations = 0: the swap phase is MCMC over a shared table and
/// thread-DEPENDENT by design (same exclusion the exec-layer sweep makes);
/// everything before it must be bit-identical at any thread count.
struct SweepCase {
  const char* label;
  ModelSpec spec;
};

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  ModelSpec null_model = make_spec("null-model", 7, small_powerlaw_params());
  null_model.swap_iterations = 0;
  cases.push_back({"null-model", null_model});
  cases.push_back(
      {"chung-lu", make_spec("chung-lu", 7, {{"n", "2000"}, {"dmax", "50"}})});
  ModelSpec directed = make_spec("directed", 7, {{"n", "1000"}, {"dmax", "30"}});
  directed.swap_iterations = 0;
  cases.push_back({"directed", directed});
  ModelSpec bipartite =
      make_spec("bipartite", 7, {{"n", "1000"}, {"dmax", "30"}});
  bipartite.swap_iterations = 0;
  cases.push_back({"bipartite", bipartite});
  ModelSpec lfr = make_spec("lfr", 7, {{"n", "1500"}, {"mu", "0.3"}});
  lfr.swap_iterations = 0;
  cases.push_back({"lfr", lfr});
  cases.push_back({"rmat", make_spec("rmat", 7, {{"scale", "10"}})});
  // The spaces whose dedupe runs erase_nonsimple.
  ModelSpec erased =
      make_spec("chung-lu", 7, {{"n", "2000"}, {"dmax", "50"}});
  erased.space = SamplingSpace{false, false, Labeling::kStub};
  cases.push_back({"chung-lu erased", erased});
  ModelSpec simple_rmat = make_spec("rmat", 7, {{"scale", "10"}});
  simple_rmat.space = SamplingSpace{false, false, Labeling::kVertex};
  cases.push_back({"rmat simple", simple_rmat});
  return cases;
}

class BackendThreadSweep : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = omp_get_max_threads(); }
  void TearDown() override { omp_set_num_threads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(BackendThreadSweep, EveryBackendBitIdenticalAtAnyThreadCount) {
  for (const SweepCase& test : sweep_cases()) {
    std::vector<EdgeList> edges;
    std::vector<std::vector<std::uint32_t>> communities;
    for (int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      const Result<ModelRun> got = run(test.spec);
      ASSERT_TRUE(got.ok()) << test.label << ": " << got.status().message();
      edges.push_back(got.value().output.result.edges);
      communities.push_back(got.value().output.community);
    }
    EXPECT_EQ(edges[0], edges[1]) << test.label;
    EXPECT_EQ(edges[0], edges[2]) << test.label;
    EXPECT_EQ(communities[0], communities[1]) << test.label;
    EXPECT_EQ(communities[0], communities[2]) << test.label;
    EXPECT_FALSE(edges[0].empty()) << test.label;
  }
}

// ------------------------------------------------- governance through run_model

TEST(ModelGovernance, PreCancelledTokenCurtailsEveryBackend) {
  for (const SweepCase& test : sweep_cases()) {
    PipelineContext ctx;
    ctx.governance.enabled = true;
    ctx.governance.cancel.request_cancel();
    const Result<ModelRun> got = run_model(test.spec, ctx);
    ASSERT_TRUE(got.ok()) << test.label << ": " << got.status().message();
    EXPECT_EQ(got.value().output.result.report.curtailed_by(),
              StatusCode::kCancelled)
        << test.label;
  }
}

TEST(ModelGovernance, BernoulliChungLuPollsBeforeTheDraw) {
  // The Bernoulli kernel has no chunk-granular governor hook; the backend
  // must poll the never-before-polled token itself, BEFORE drawing.
  ModelSpec spec = make_spec("chung-lu", 7, {{"n", "2000"}, {"dmax", "50"}});
  spec.space = SamplingSpace{false, false, Labeling::kVertex};
  PipelineContext ctx;
  ctx.governance.enabled = true;
  ctx.governance.cancel.request_cancel();
  const Result<ModelRun> got = run_model(spec, ctx);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.value().output.result.edges.empty());
  EXPECT_EQ(got.value().output.result.report.curtailed_by(),
            StatusCode::kCancelled);
}

TEST(ModelGovernance, DeadlineCurtailsWithTypedCodeThroughDriver) {
  // Same drill as the library-level governance test: slow_phase_ms makes
  // each swap iteration take >= 20 ms, so a 50 ms deadline must cut the
  // chain — and the typed reason must survive the registry driver.
  ModelSpec spec = make_spec("null-model", 5, small_powerlaw_params());
  spec.swap_iterations = 64;
  PipelineContext ctx;
  ctx.guardrails.faults.slow_phase_ms = 20;
  ctx.governance.enabled = true;
  ctx.governance.budget.deadline_ms = 50;
  const Result<ModelRun> got = run_model(spec, ctx);
  ASSERT_TRUE(got.ok()) << got.status().message();
  const PipelineReport& report = got.value().output.result.report;
  EXPECT_EQ(report.curtailed_by(), StatusCode::kDeadlineExceeded);
  // The CLI maps this curtailment to its stable process exit code.
  EXPECT_EQ(status_exit_code(report.curtailed_by()), 12);
}

// ------------------------------------------------------ driver validation

TEST(ModelValidation, DriverRejectsWhatTheBackendDoesNotDeclare) {
  EXPECT_EQ(run(make_spec("no-such-backend", 1)).status().code(),
            StatusCode::kInvalidArgument);

  ModelSpec swaps_on_rmat = make_spec("rmat", 1, {{"scale", "8"}});
  swaps_on_rmat.swap_iterations = 5;
  EXPECT_EQ(run(swaps_on_rmat).status().code(), StatusCode::kInvalidArgument);

  PipelineContext spill_ctx;
  spill_ctx.spill.enabled = true;
  EXPECT_EQ(run_model(make_spec("chung-lu", 1), spill_ctx).status().code(),
            StatusCode::kInvalidArgument);

  PipelineContext checkpoint_ctx;
  checkpoint_ctx.governance.checkpoint_every = 100;
  EXPECT_EQ(
      run_model(make_spec("rmat", 1, {{"scale", "8"}}), checkpoint_ctx)
          .status()
          .code(),
      StatusCode::kInvalidArgument);

  ModelSpec bad_space = make_spec("null-model", 1, small_powerlaw_params());
  bad_space.space = SamplingSpace{true, true, Labeling::kStub};
  EXPECT_EQ(run(bad_space).status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(run(make_spec("rmat", 1, {{"bogus", "1"}})).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelValidation, RmatRejectsOutOfRangeParameters) {
  EXPECT_EQ(run(make_spec("rmat", 1, {{"scale", "0"}})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run(make_spec("rmat", 1, {{"scale", "31"}})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run(make_spec("rmat", 1, {{"edge-factor", "0"}})).status().code(),
            StatusCode::kInvalidArgument);
  // a + b + c must leave room for the fourth quadrant.
  EXPECT_EQ(run(make_spec("rmat", 1,
                          {{"a", "0.5"}, {"b", "0.3"}, {"c", "0.2"}}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run(make_spec("rmat", 1, {{"scale", "not-a-number"}}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------- the census + the report model block

/// A deliberately dishonest backend: declares the simple space, emits a
/// self-loop and a duplicate edge. The driver census must catch it.
class LoopyLiarBackend final : public GeneratorBackend {
 public:
  std::string_view name() const noexcept override { return "test-loopy-liar"; }
  std::string_view summary() const noexcept override {
    return "test backend that violates its declared space";
  }
  BackendCapabilities capabilities() const override { return {}; }
  SamplingSpace default_space() const override {
    return {false, false, Labeling::kVertex};
  }
  std::vector<SamplingSpace> supported_spaces() const override {
    return {default_space()};
  }
  std::vector<BackendParam> params() const override { return {}; }
  Result<GenerateOutput> generate(const ModelSpec&,
                                  const PipelineContext&) const override {
    GenerateOutput out;
    out.result.edges = {{3, 3}, {1, 2}, {1, 2}};
    out.space = default_space();
    out.space_verified = false;
    return out;
  }
};

TEST(ModelCensus, DriverFlagsDeclaredSpaceViolation) {
  register_backend(std::make_unique<LoopyLiarBackend>());
  const Result<ModelRun> got = run(make_spec("test-loopy-liar", 1));
  ASSERT_TRUE(got.ok()) << got.status().message();
  const PipelineReport& report = got.value().output.result.report;
  ASSERT_FALSE(report.checks.empty());
  const PhaseCheck& check = report.checks.back();
  EXPECT_EQ(check.phase, "sampling space");
  EXPECT_EQ(check.status.code(), StatusCode::kNonSimpleOutput);
  EXPECT_NE(check.status.message().find("1 self-loops"), std::string::npos)
      << check.status.message();
  EXPECT_NE(check.status.message().find("1 multi-edges"), std::string::npos)
      << check.status.message();
  EXPECT_FALSE(report.ok());
}

TEST(ModelReport, ModelBlockLandsInRunReport) {
  const Result<ModelRun> got = run(make_spec("rmat", 9, {{"scale", "8"}}));
  ASSERT_TRUE(got.ok()) << got.status().message();
  obs::RunReportInputs inputs;
  inputs.command = "generate";
  inputs.seed = 9;
  inputs.result = &got.value().output.result;
  inputs.model = &got.value().model;
  const std::string json = obs::render_run_report(inputs);
  EXPECT_NE(json.find("\"model\":{\"backend\":\"rmat\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sampling_space\":{\"name\":\"loopy-multi\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"space_verified\":false"), std::string::npos) << json;

  // Null model pointer keeps the key out entirely (append-only schema).
  inputs.model = nullptr;
  EXPECT_EQ(obs::render_run_report(inputs).find("\"model\""),
            std::string::npos);
}

}  // namespace
}  // namespace nullgraph::model
