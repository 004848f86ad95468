// nullgraph — command-line front end for the library.
//
//   nullgraph generate [--backend NAME] [--seed S] [--swaps K] [--out FILE]
//                      [--space simple|loopy|multi|loopy-multi]
//                      [--labeling stub|vertex] [backend params...]
//   nullgraph backends [--names]       (registered models + their params)
//   nullgraph shuffle  --in FILE [--seed S] [--swaps K] [--out FILE]
//   nullgraph stats    --in FILE
//   nullgraph dist     --in FILE [--out FILE]     (edge list -> distribution)
//
// generate dispatches through the model-backend registry (src/model/):
// --backend picks the generator (null-model, chung-lu, directed,
// bipartite, lfr, rmat, ...), per-backend parameters are the flags each
// backend declares (`nullgraph backends` lists them), and
// --space/--labeling select the sampling space per Dutta-Fosdick-Clauset.
// The registry driver owns the shared pipeline tail: capability
// validation, the sampling-space census, write-out, the report's `model`
// block.
//
// Pipeline guardrails (generate / shuffle / resume):
//   --strict          abort on the first invariant violation, exit with the
//                     violation's typed code (see below)
//   --repair          recover: retry-with-reseed, then repair pass
//   --max-retries K   swap-phase reseed budget under --repair (default 2)
//   --inject-drop N / --inject-dup N / --inject-loop N / --inject-prob N /
//   --inject-stall / --inject-slow-ms N / --inject-seed S
//                     seeded fault injection (testing hooks; inert when 0)
//
// Run governance (generate / shuffle; always on at the CLI surface):
//   --deadline-ms N          wall-clock budget; expiry curtails the run,
//                            the best-so-far graph is still written, and
//                            the exit code is 12 (kDeadlineExceeded)
//   --max-swap-iterations N  cap on swap iterations regardless of --swaps
//   --max-memory-mb N        skip the swap phase rather than exceed this
//                            estimated buffer footprint (exit 16)
//   --checkpoint FILE        swap-phase snapshot target (io/checkpoint.hpp)
//   --checkpoint-every N     snapshot every N completed swap iterations
//   --resume FILE            continue a checkpointed swap chain; with the
//                            same thread count the result is bit-identical
//                            to the uninterrupted run
//   --resume DIR             continue a SPILLED run from its shard
//                            directory: CRC-complete shards are trusted,
//                            missing/torn ones regenerate bit-identically
//   SIGINT / SIGTERM         cooperative cancellation: the current run
//                            drains, writes its best-so-far graph, and
//                            exits 13 (kCancelled)
//
// Out-of-core generation (generate; DESIGN.md §10):
//   --spill-dir DIR      arm spill mode: when the projected generation
//                        footprint crosses --max-memory-mb the run
//                        DEGRADES to CRC-framed shard files under DIR
//                        (and still exits 0) instead of aborting; --out
//                        streams the shards back out with bounded memory
//   --spill-shards N     explicit shard count (default: auto-sized so one
//                        shard stays within a quarter of the ceiling)
//   --force-spill        spill even when the projection fits (drills,
//                        bit-identity tests)
//   --inject-spill-fail N  fail the next N shard commits (testing hook)
//   nullgraph fsck --dir DIR [--repair] [--deep]
//                        verify every shard's CRC framing; --repair
//                        regenerates damaged shards from the manifest,
//                        --deep adds the external-merge simplicity census.
//                        Exit 21 (kShardCorrupt) when damage remains.
//
// Telemetry (generate / shuffle / resume):
//   --report-json FILE   versioned machine-readable run report: config
//                        fingerprint, per-phase wall times, exec-layer
//                        chunk/load-imbalance records, guardrail and
//                        governance outcomes, swap-chain convergence
//                        series, and the metrics registry snapshot
//   --trace-out FILE     Chrome-trace-event JSON (load in Perfetto or
//                        chrome://tracing): one span per pipeline phase,
//                        exec loop, swap iteration, and LFR layer
//   --events-out FILE    structured JSONL event stream (DESIGN.md §12):
//                        one line per operational state transition (phase
//                        start/end, shard commit, checkpoint, curtailment,
//                        degradation), flushed per line so a crash leaves
//                        a valid prefix; scripts/obs_tail.py pretty-prints
//   --flight-out FILE    crash flight recorder: the last 256 event lines,
//                        dumped atomically on a fatal signal or any typed
//                        failure exit — the black box for post-mortems
//   --metrics-out FILE   periodic Prometheus text exposition snapshots
//                        (atomic tmp+rename every --metrics-every-ms,
//                        default 1000); point a node_exporter textfile
//                        collector or a test harness at it
//
//   serve accepts --events-out/--flight-out for a daemon-wide stream (job
//   admitted/evicted/completed + every worker's phase events, stamped with
//   job and trace ids); `submit --metrics` fetches a live Prometheus
//   exposition over the socket, and `submit --trace-out FILE` merges the
//   client's protocol spans with the daemon's worker spans into ONE
//   cross-process Perfetto timeline (queue wait and arbitration included).
//
// Service mode (DESIGN.md §9):
//   nullgraph serve  --socket PATH [--slots N --queue N --max-memory-mb N
//                     --spool DIR --report-dir DIR --threads N]
//                    long-running daemon: bounded job queue, per-job
//                    governance, admission control, crash recovery
//   nullgraph submit --socket PATH [job flags | --ping | --stats |
//                     --shutdown]
//                    client: submit one job and wait for its verdict
//   A second SIGINT/SIGTERM while the first is still draining force-exits
//   with code 13 — the escape hatch when a graceful drain is stuck.
//
// Exit status: 0 success, 1 bad usage, 2 unclassified runtime failure,
// 3+ one per typed error class (status_exit_code in robustness/status.hpp):
// 3 kIoError, 4 kIoMalformed, 5 kNotGraphical, 6 kProbabilityOverflow,
// 7 kNonSimpleOutput, 8 kDegreeMismatch, 9 kSwapStagnation,
// 10 kConnectivityExhausted (reserved), 11 kRepairIncomplete,
// 12 kDeadlineExceeded, 13 kCancelled, 14 kSwapStalled, 15 kCapacityExhausted,
// 16 kMemoryBudget, 17 kCheckpointInvalid, 18 kOverloaded, 19 kJobEvicted,
// 20 kClientProtocol, 21 kShardCorrupt.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/gini.hpp"
#include "analysis/metrics.hpp"
#include "core/null_model.hpp"
#include "core/out_of_core.hpp"
#include "ds/csr_graph.hpp"
#include "analysis/motifs.hpp"
#include "gen/powerlaw.hpp"
#include "io/checkpoint.hpp"
#include "io/graph_io.hpp"
#include "io/shard_merge.hpp"
#include "io/spill.hpp"
#include "lfr/lfr.hpp"
#include "model/driver.hpp"
#include "model/registry.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/prometheus.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "obs/json_writer.hpp"
#include "robustness/governance.hpp"
#include "robustness/status.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "util/parallel.hpp"

namespace {

using namespace nullgraph;

/// Process-wide cancellation token tripped by SIGINT/SIGTERM. The token's
/// store is a relaxed atomic write through a pre-built shared_ptr — no
/// allocation, so it is async-signal-safe. Constructed before the handler
/// is installed (install_signal_handlers calls this first).
CancelToken& global_cancel() {
  // The init guard is settled before a signal can arrive:
  // install_signal_handlers() calls this first.
  // analyzer-ok(signal-safety): constructed before the handler is installed
  static CancelToken token;
  return token;
}

/// Received signal number (0 while running); the serve loop polls this to
/// begin its graceful shutdown.
std::atomic<int>& global_signal_flag() {
  static std::atomic<int> flag{0};
  return flag;
}

extern "C" void on_termination_signal(int signo) {
  // First signal: cooperative drain (cancel token + serve stop flag).
  // Second signal while the drain is still running: the operator means it —
  // force-exit with kCancelled's code. _exit is async-signal-safe and
  // status_exit_code is a pure switch.
  // relaxed: single-word flags with no dependent data to publish; the only
  // ordering that matters is each flag's own modification order.
  static std::atomic<int> deliveries{0};
  if (deliveries.fetch_add(1, std::memory_order_relaxed) > 0)
    _exit(status_exit_code(StatusCode::kCancelled));
  global_signal_flag().store(signo, std::memory_order_relaxed);
  global_cancel().request_cancel();
}

void install_signal_handlers() {
  (void)global_cancel();  // construct before any signal can arrive
  (void)global_signal_flag();
  std::signal(SIGINT, on_termination_signal);
  std::signal(SIGTERM, on_termination_signal);
}

/// Flight-recorder hookup for fatal signals. The pointer and path live in
/// fixed storage set BEFORE the handlers are armed, so the handler itself
/// touches nothing that allocates.
std::atomic<obs::FlightRecorder*>& global_flight() {
  static std::atomic<obs::FlightRecorder*> recorder{nullptr};
  return recorder;
}
char g_flight_path[256] = {0};

extern "C" void on_fatal_signal(int signo) {
  // dump() is async-signal-safe by contract (fixed buffers, raw syscalls,
  // tmp+rename); after the dump the default disposition re-raises so the
  // exit status still reflects the crash.
  // relaxed: lone pointer stored before the handler was armed; a fatal
  // signal cannot race the arm (signal() itself is the ordering point).
  obs::FlightRecorder* recorder =
      global_flight().load(std::memory_order_relaxed);
  if (recorder != nullptr) (void)recorder->dump(g_flight_path);
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

void arm_fatal_flight_dump(obs::FlightRecorder* recorder,
                           const std::string& path) {
  if (path.size() >= sizeof g_flight_path) {
    std::fprintf(stderr, "--flight-out path too long (max %zu)\n",
                 sizeof g_flight_path - 1);
    std::exit(1);
  }
  std::memcpy(g_flight_path, path.c_str(), path.size() + 1);
  // relaxed: stored before any fatal handler is installed below, so the
  // handler can never observe the pointer without the path already set.
  global_flight().store(recorder, std::memory_order_relaxed);
  std::signal(SIGSEGV, on_fatal_signal);
  std::signal(SIGABRT, on_fatal_signal);
  std::signal(SIGBUS, on_fatal_signal);
  std::signal(SIGFPE, on_fatal_signal);
  std::signal(SIGILL, on_fatal_signal);
}

void usage() {
  std::fprintf(stderr,
               "usage: nullgraph <command> [options]\n"
               "  generate [--backend NAME] [backend params] [--seed S "
               "--swaps K --out FILE]\n"
               "           [--space simple|loopy|multi|loopy-multi "
               "--labeling stub|vertex]\n"
               "  backends [--names]     (registered backends, capabilities, "
               "parameters)\n"
               "  shuffle  --in FILE [--seed S --swaps K --out FILE]\n"
               "  stats    --in FILE\n"
               "  dist     --in FILE [--out FILE]\n"
               "  fsck     --dir DIR [--repair --deep]    (spill directory "
               "check; exit 21 on damage)\n"
               "guardrails (generate/shuffle/resume): --strict | --repair "
               "[--max-retries K]\n"
               "governance (generate/shuffle): --deadline-ms N "
               "--max-swap-iterations N --max-memory-mb N\n"
               "  --checkpoint FILE --checkpoint-every N --resume FILE|DIR\n"
               "out-of-core (generate): --spill-dir DIR [--spill-shards N "
               "--force-spill]\n"
               "fault injection (testing): --inject-drop N --inject-dup N "
               "--inject-loop N --inject-prob N --inject-stall "
               "--inject-slow-ms N --inject-spill-fail N --inject-seed S\n"
               "telemetry (generate/shuffle): --report-json FILE "
               "--trace-out FILE\n"
               "  --events-out FILE (JSONL event stream) --flight-out FILE "
               "(crash flight recorder)\n"
               "  --metrics-out FILE [--metrics-every-ms N] (periodic "
               "Prometheus snapshots)\n"
               "service mode:\n"
               "  serve  --socket PATH [--slots N --queue N --max-memory-mb N"
               " --spool DIR\n"
               "          --report-dir DIR --threads N --read-timeout-ms N"
               " --report-json FILE\n"
               "          --events-out FILE --flight-out FILE\n"
               "          --inject-accept-fail N --inject-slow-client-ms N"
               " --inject-ckpt-fail N]\n"
               "  submit --socket PATH [--ping | --stats | --metrics |"
               " --shutdown |\n"
               "          job: (--backend NAME [--param K=V ...] [--space S"
               " --labeling L] |\n"
               "                --powerlaw ... | --dist FILE | --in FILE |"
               " --upload FILE)\n"
               "          --seed S --swaps K --deadline-ms N --threads N\n"
               "          --checkpoint-every N --out FILE --save FILE"
               " --timeout-ms N --trace-out FILE]\n"
               "exit codes: 0 ok, 1 usage, 2 runtime, 3+ typed error class "
               "(see README)\n");
  // Generated from the registry so help cannot drift from what's linked in.
  std::fputs(model::registry_usage_text().c_str(), stderr);
}

[[noreturn]] void die_usage(const std::string& key, const std::string& value,
                            const char* kind) {
  std::fprintf(stderr, "invalid %s for --%s: '%s'\n", kind, key.c_str(),
               value.c_str());
  usage();
  std::exit(1);
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  std::optional<std::string> get(const std::string& key) const {
    for (const auto& [k, v] : options)
      if (k == key) return v;
    return std::nullopt;
  }
  bool has(const std::string& key) const { return get(key).has_value(); }
  /// Strict base-10 unsigned parse: the whole token must be digits.
  /// strtoull alone would silently return 0 on garbage and wrap "-1".
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto value = get(key);
    if (!value) return fallback;
    if (value->empty() ||
        value->find_first_not_of("0123456789") != std::string::npos)
      die_usage(key, *value, "integer");
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value->c_str(), &end, 10);
    if (errno == ERANGE || end != value->c_str() + value->size())
      die_usage(key, *value, "integer");
    return parsed;
  }
  /// Strict double parse: the whole token must be consumed.
  double get_double(const std::string& key, double fallback) const {
    const auto value = get(key);
    if (!value) return fallback;
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (value->empty() || end != value->c_str() + value->size() ||
        errno == ERANGE)
      die_usage(key, *value, "number");
    return parsed;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options.emplace_back(key, argv[++i]);
      } else {
        args.options.emplace_back(key, "");
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

GuardrailConfig guardrails_from(const Args& args) {
  GuardrailConfig guard;
  if (args.has("strict")) guard.policy = RecoveryPolicy::kStrict;
  if (args.has("repair")) guard.policy = RecoveryPolicy::kRepair;
  guard.max_retries = args.get_u64("max-retries", guard.max_retries);
  guard.faults.drop_edges = args.get_u64("inject-drop", 0);
  guard.faults.duplicate_edges = args.get_u64("inject-dup", 0);
  guard.faults.self_loops = args.get_u64("inject-loop", 0);
  guard.faults.corrupt_prob_entries = args.get_u64("inject-prob", 0);
  guard.faults.force_swap_stall = args.has("inject-stall");
  guard.faults.slow_phase_ms = args.get_u64("inject-slow-ms", 0);
  guard.faults.fail_checkpoint_writes = args.get_u64("inject-ckpt-fail", 0);
  guard.faults.fail_spill_writes = args.get_u64("inject-spill-fail", 0);
  guard.faults.seed = args.get_u64("inject-seed", guard.faults.seed);
  return guard;
}

SpillConfig spill_from(const Args& args) {
  SpillConfig spill;
  if (const auto dir = args.get("spill-dir")) {
    spill.enabled = true;
    spill.dir = *dir;
  }
  spill.shard_count = args.get_u64("spill-shards", 0);
  spill.force = args.has("force-spill");
  if ((spill.force || spill.shard_count != 0) && !spill.enabled) {
    std::fprintf(stderr,
                 "--force-spill/--spill-shards need --spill-dir DIR\n");
    std::exit(1);
  }
  return spill;
}

bool is_directory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

GovernanceConfig governance_from(const Args& args) {
  GovernanceConfig governance;
  // The CLI is the service surface: governance is on for every run, so
  // Ctrl-C always drains cooperatively even with no budget flags given.
  governance.enabled = true;
  governance.cancel = global_cancel();
  governance.budget.deadline_ms = args.get_u64("deadline-ms", 0);
  governance.budget.max_swap_iterations =
      args.get_u64("max-swap-iterations", 0);
  governance.budget.max_memory_bytes =
      args.get_u64("max-memory-mb", 0) * 1024 * 1024;
  governance.checkpoint_every = args.get_u64("checkpoint-every", 0);
  if (const auto path = args.get("checkpoint"))
    governance.checkpoint_path = *path;
  if (governance.checkpoint_every != 0 && governance.checkpoint_path.empty()) {
    std::fprintf(stderr, "--checkpoint-every needs --checkpoint FILE\n");
    std::exit(1);
  }
  return governance;
}

/// Per-process telemetry ownership behind --report-json / --trace-out.
/// Sinks exist only when their flag is present; context() hands the
/// (possibly null) borrowed handles to the library, and finish() writes
/// both artifacts AFTER the graph so telemetry can never cost the primary
/// output. A failed telemetry write turns an otherwise-clean exit into
/// kIoError; a run that already failed keeps its original typed code.
struct Telemetry {
  std::string report_path;
  std::string trace_path;
  std::string flight_path;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceSink> trace;
  std::unique_ptr<obs::EventLog> events;
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::MetricsExporter> exporter;
  std::vector<std::string> argv;  // config fingerprint for the report

  static Telemetry from(const Args& args, int argc, char** argv) {
    Telemetry telem;
    telem.argv.assign(argv, argv + argc);
    if (const auto path = args.get("report-json")) {
      telem.report_path = *path;
      telem.metrics = std::make_unique<obs::MetricsRegistry>();
    }
    if (const auto path = args.get("trace-out")) {
      telem.trace_path = *path;
      telem.trace = std::make_unique<obs::TraceSink>();
    }
    if (const auto path = args.get("events-out")) {
      telem.events = std::make_unique<obs::EventLog>();
      if (const Status s = telem.events->open(*path); !s.ok()) {
        std::fprintf(stderr, "telemetry: %s\n", s.to_string().c_str());
        std::exit(status_exit_code(s.code()));
      }
    }
    if (const auto path = args.get("flight-out")) {
      telem.flight_path = *path;
      telem.flight = std::make_unique<obs::FlightRecorder>();
      // Black-box-only mode: with no --events-out the log runs file-less
      // and still mirrors every line into the ring.
      if (telem.events == nullptr)
        telem.events = std::make_unique<obs::EventLog>();
      telem.events->attach_flight_recorder(telem.flight.get());
      arm_fatal_flight_dump(telem.flight.get(), telem.flight_path);
    }
    if (const auto path = args.get("metrics-out")) {
      if (telem.metrics == nullptr)
        telem.metrics = std::make_unique<obs::MetricsRegistry>();
      const std::uint64_t every =
          args.get_u64("metrics-every-ms", 1000);
      telem.exporter = std::make_unique<obs::MetricsExporter>();
      if (const Status s =
              telem.exporter->start(telem.metrics.get(), *path, every);
          !s.ok()) {
        std::fprintf(stderr, "telemetry: %s\n", s.to_string().c_str());
        std::exit(status_exit_code(s.code()));
      }
    } else if (args.has("metrics-every-ms")) {
      std::fprintf(stderr, "--metrics-every-ms needs --metrics-out FILE\n");
      std::exit(1);
    }
    return telem;
  }

  obs::ObsContext context() const noexcept {
    obs::ObsContext obs;
    obs.metrics = metrics.get();
    obs.trace = trace.get();
    obs.events = events.get();
    return obs;
  }

  int finish(const std::string& command, std::uint64_t seed,
             std::size_t swap_iterations, const GenerateResult* result,
             const LfrGraph* lfr, int code,
             const obs::ModelBlock* model = nullptr) {
    // Final resident/peak-memory sample lands in the report next to the
    // spill counters — the kernel's own proof that a spilled run stayed
    // within its ceiling.
    obs::record_process_memory(metrics.get());
    // The periodic exporter's last snapshot is taken AFTER the memory
    // sample above so the final file reflects the run's end state.
    if (exporter != nullptr) exporter->stop_and_flush();
    // Typed failures (curtailment, shard corruption, I/O, ...) dump the
    // flight ring: the last events before things went wrong, on disk even
    // though the run is over. Usage errors (1) and clean exits don't.
    if (flight != nullptr && code >= 2) {
      if (const Status s = flight->dump_to(flight_path); !s.ok())
        std::fprintf(stderr, "telemetry: flight dump failed: %s\n",
                     s.to_string().c_str());
      else
        std::fprintf(stderr, "flight recorder dumped -> %s\n",
                     flight_path.c_str());
    }
    Status failed = Status::Ok();
    if (trace != nullptr) {
      const Status status = trace->write(trace_path);
      if (!status.ok()) failed = status;
    }
    if (!report_path.empty()) {
      obs::RunReportInputs inputs;
      inputs.command = command;
      inputs.argv = argv;
      inputs.seed = seed;
      inputs.threads = max_threads();
      inputs.swap_iterations_requested = swap_iterations;
      inputs.result = result;
      inputs.lfr = lfr;
      inputs.metrics = metrics.get();
      inputs.model = model;
      const Status status = obs::write_run_report(report_path, inputs);
      if (!status.ok()) failed = status;
    }
    if (!failed.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", failed.to_string().c_str());
      if (code == 0) return status_exit_code(failed.code());
    }
    return code;
  }
};

/// The exit code a finished run's report demands. The report is printed
/// when anything noteworthy happened; guardrail residuals keep their typed
/// codes under --strict/--repair (record-only mode warns but keeps the
/// legacy success status), and an otherwise-clean curtailed run exits with
/// the curtailment's code (12 deadline, 13 cancelled, 14 stalled, 16 memory
/// budget) so callers can distinguish "done" from "cut short" without
/// parsing stderr.
int report_exit_code(const PipelineReport& report, RecoveryPolicy policy) {
  if (!report.ok() || report.repair.touched() || report.retries_used > 0)
    std::fprintf(stderr, "guardrails:\n%s", report.summary().c_str());
  const Status err = report.first_error();
  if (!err.ok() && policy != RecoveryPolicy::kReport) {
    std::fprintf(stderr, "error: %s\n", err.to_string().c_str());
    return status_exit_code(err.code());
  }
  const StatusCode curtailed = report.curtailed_by();
  if (curtailed == StatusCode::kOk) return 0;
  std::fprintf(stderr, "run curtailed: %s (best-so-far graph written)\n",
               status_code_name(curtailed));
  return status_exit_code(curtailed);
}

void print_graph_stats(const EdgeList& edges) {
  const std::size_t n = vertex_count(edges);
  const auto degrees = degrees_of(edges, n);
  std::uint64_t dmax = 0;
  for (std::uint64_t d : degrees) dmax = std::max(dmax, d);
  const SimplicityCensus c = census(edges);
  std::printf("vertices:      %zu\n", n);
  std::printf("edges:         %zu\n", edges.size());
  std::printf("avg degree:    %.3f\n",
              n ? 2.0 * static_cast<double>(edges.size()) /
                      static_cast<double>(n)
                : 0.0);
  std::printf("max degree:    %llu\n", static_cast<unsigned long long>(dmax));
  std::printf("gini:          %.4f\n", gini_coefficient(degrees));
  std::printf("assortativity: %+.4f\n", degree_assortativity(edges));
  std::printf("self loops:    %zu\n", c.self_loops);
  std::printf("multi edges:   %zu\n", c.multi_edges);
  if (edges.size() < 5'000'000) {
    const CsrGraph graph(edges, n);
    std::printf("triangles:     %llu\n",
                static_cast<unsigned long long>(count_triangles(graph)));
    std::printf("clustering:    %.5f\n", global_clustering(graph));
  }
}

/// Shared tail of shuffle/resume. The graph goes out FIRST — a curtailed
/// run's primary artifact is whatever it did finish — and only then is the
/// exit code decided (report_exit_code).
int emit_result(const Args& args, const GenerateResult& result,
                RecoveryPolicy policy) {
  if (result.spill.spilled) {
    const SpillSummary& spill = result.spill;
    std::fprintf(stderr,
                 "spilled: %llu edges across %llu shards in %s "
                 "(%llu written, %llu reused)\n",
                 static_cast<unsigned long long>(spill.edges_on_disk),
                 static_cast<unsigned long long>(spill.shard_count),
                 spill.dir.c_str(),
                 static_cast<unsigned long long>(spill.shards_written),
                 static_cast<unsigned long long>(spill.shards_reused));
    const bool complete =
        spill.shards_written + spill.shards_reused == spill.shard_count;
    if (!complete) {
      std::fprintf(stderr,
                   "spill incomplete; continue with --resume %s\n",
                   spill.dir.c_str());
      // A curtailed spill keeps the curtailment's typed code (below), but
      // an incomplete spill with a hard error (a shard write that
      // exhausted its retries) is a missing-output failure: typed even in
      // record-only mode, because the shard IS the data.
      const Status err = result.report.first_error();
      if (!err.ok() && result.report.curtailed_by() == StatusCode::kOk) {
        std::fprintf(stderr, "error: %s\n", err.to_string().c_str());
        return status_exit_code(err.code());
      }
    } else if (const auto out = args.get("out")) {
      // Bounded-memory exit path: shards stream straight into the output
      // file, in canonical order, without materializing the edge list.
      std::uint64_t merged = 0;
      const Status status = concat_shards_to_text_file(
          spill.dir, spill.shard_count, *out, &merged);
      if (!status.ok()) {
        std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
        return status_exit_code(status.code());
      }
      std::fprintf(stderr, "merged %llu edges -> %s\n",
                   static_cast<unsigned long long>(merged), out->c_str());
    }
  } else if (const auto out = args.get("out")) {
    write_edge_list_file(*out, result.edges);
  } else {
    print_graph_stats(result.edges);
  }
  return report_exit_code(result.report, policy);
}

/// GenerateConfig of the commands that run the pipeline library directly
/// (shuffle and both resumes). A resume takes its seed and iteration count
/// from the checkpoint or manifest instead.
GenerateConfig generate_config_from(const Args& args, const Telemetry& telem) {
  GenerateConfig config;
  config.seed = args.get_u64("seed", 1);
  config.swap_iterations = args.get_u64("swaps", 10);
  config.guardrails = guardrails_from(args);
  config.governance = governance_from(args);
  config.obs = telem.context();
  return config;
}

/// `--resume DIR` where DIR is a spill directory: shard-granular resume.
/// The manifest carries the distribution, seed, and shard plan, so no
/// other inputs are needed; CRC-complete shards are trusted, the rest
/// regenerate bit-identically.
int cmd_resume_spill(const Args& args, Telemetry& telem,
                     const std::string& dir) {
  const GenerateConfig config = generate_config_from(args, telem);
  const Result<GenerateResult> resumed = resume_from_spill(dir, config);
  if (!resumed.ok()) {
    std::fprintf(stderr, "error: %s\n", resumed.status().to_string().c_str());
    return status_exit_code(resumed.status().code());
  }
  const GenerateResult& result = resumed.value();
  std::fprintf(stderr,
               "resumed spill %s: %llu shards reused, %llu regenerated\n",
               dir.c_str(),
               static_cast<unsigned long long>(result.spill.shards_reused),
               static_cast<unsigned long long>(result.spill.shards_written));
  const int code = emit_result(args, result, config.guardrails.policy);
  return telem.finish("resume", 0, 0, &result, nullptr, code);
}

/// `--resume FILE`: load the snapshot and finish its swap chain. Reachable
/// from both generate and shuffle (the checkpoint carries everything the
/// remaining phase needs, so the two commands converge here). A directory
/// argument means a spill directory instead of a checkpoint file.
int cmd_resume(const Args& args, Telemetry& telem) {
  const std::string path = *args.get("resume");
  if (is_directory(path)) return cmd_resume_spill(args, telem, path);
  Result<Checkpoint> loaded = try_read_checkpoint(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
    return status_exit_code(loaded.status().code());
  }
  const Checkpoint& ckpt = loaded.value();
  std::fprintf(stderr,
               "resuming %s at swap iteration %llu/%llu (%zu edges)\n",
               path.c_str(),
               static_cast<unsigned long long>(ckpt.completed_iterations),
               static_cast<unsigned long long>(ckpt.total_iterations),
               ckpt.edges.size());
  const GenerateConfig config = generate_config_from(args, telem);
  const GenerateResult result = resume_null_graph(ckpt, config);
  std::fprintf(stderr, "resumed: %zu swaps committed over %zu iterations\n",
               result.swap_stats.total_swapped(),
               result.swap_stats.iterations.size());
  const int code = emit_result(args, result, config.guardrails.policy);
  return telem.finish("resume", ckpt.swap_seed,
                      static_cast<std::size_t>(ckpt.total_iterations), &result,
                      nullptr, code);
}

/// Stats printout for in-memory model output. Undirected graphs get the
/// full analysis block; directed/bipartite edges are ordered pairs, so the
/// undirected census and clustering would mislead — print the compact form.
void print_model_stats(const model::GenerateOutput& out) {
  if (out.directed) {
    std::printf("vertices:      %zu\n", vertex_count(out.result.edges));
    std::printf("arcs:          %zu\n", out.result.edges.size());
    return;
  }
  if (out.bipartite) {
    std::uint64_t right = 0;
    for (const Edge& edge : out.result.edges)
      right = std::max<std::uint64_t>(right, edge.v + 1);
    std::printf("left vertices:  %llu\n",
                static_cast<unsigned long long>(out.bipartite_left));
    std::printf("right vertices: %llu\n",
                static_cast<unsigned long long>(right));
    std::printf("edges:          %zu\n", out.result.edges.size());
    return;
  }
  print_graph_stats(out.result.edges);
}

/// `nullgraph generate`: lower argv into a ModelSpec, run the registry
/// driver, print its notes, and map the outcome to the same exit-code
/// contract emit_result implements for shuffle/resume. `--resume` instead
/// continues a checkpoint or spill directory.
int cmd_generate(const Args& args, Telemetry& telem) {
  if (args.has("resume")) return cmd_resume(args, telem);
  model::ModelSpec spec;
  spec.backend = args.get("backend").value_or("null-model");
  spec.seed = args.get_u64("seed", 1);
  if (args.has("swaps")) spec.swap_iterations = args.get_u64("swaps", 10);
  // An unknown backend falls through to run_model, whose error names the
  // registered set.
  const model::GeneratorBackend* backend = model::find_backend(spec.backend);
  if (const auto name = args.get("space")) {
    const Result<model::SamplingSpace> parsed = model::parse_space(*name);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().to_string().c_str());
      return status_exit_code(parsed.status().code());
    }
    model::SamplingSpace space = parsed.value();
    // --space alone keeps the backend's natural labeling; --labeling
    // overrides it below.
    if (backend != nullptr) space.labeling = backend->default_space().labeling;
    spec.space = space;
  }
  if (const auto name = args.get("labeling")) {
    const Result<model::Labeling> parsed = model::parse_labeling(*name);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().to_string().c_str());
      return status_exit_code(parsed.status().code());
    }
    model::SamplingSpace space = spec.space.value_or(
        backend != nullptr ? backend->default_space()
                           : model::SamplingSpace{});
    space.labeling = parsed.value();
    spec.space = space;
  }
  if (backend != nullptr) {
    for (const model::BackendParam& param : backend->params())
      if (const auto value = args.get(param.key))
        spec.params.emplace_back(param.key, *value);
  }

  model::PipelineContext ctx;
  ctx.guardrails = guardrails_from(args);
  ctx.governance = governance_from(args);
  ctx.spill = spill_from(args);
  ctx.obs = telem.context();

  model::ModelRunOptions options;
  if (const auto out = args.get("out")) options.out_path = *out;
  if (const auto comm = args.get("communities"))
    options.communities_path = *comm;

  Result<model::ModelRun> ran = model::run_model(spec, ctx, options);
  if (!ran.ok()) {
    std::fprintf(stderr, "error: %s\n", ran.status().to_string().c_str());
    return status_exit_code(ran.status().code());
  }
  model::ModelRun& run = ran.value();
  for (const std::string& note : run.notes)
    std::fprintf(stderr, "%s\n", note.c_str());
  if (!run.wrote_output) print_model_stats(run.output);

  int code = 0;
  if (!run.emit_error.ok()) {
    std::fprintf(stderr, "error: %s\n", run.emit_error.to_string().c_str());
    code = status_exit_code(run.emit_error.code());
  } else {
    code = report_exit_code(run.output.result.report, ctx.guardrails.policy);
  }
  const std::size_t swaps = spec.swap_iterations.value_or(
      backend != nullptr ? backend->default_swap_iterations() : 0);
  return telem.finish("generate", spec.seed, swaps, &run.output.result,
                      run.output.lfr ? &*run.output.lfr : nullptr, code,
                      &run.model);
}

/// `nullgraph backends`: the registry, printed. --names is the machine
/// form (one backend name per line) the smoke tier iterates over.
int cmd_backends(const Args& args) {
  if (args.has("names")) {
    for (const model::GeneratorBackend* backend : model::all_backends())
      std::printf("%s\n", std::string(backend->name()).c_str());
    return 0;
  }
  std::fputs(model::describe_backends().c_str(), stdout);
  return 0;
}

int cmd_shuffle(const Args& args, Telemetry& telem) {
  if (args.has("resume")) return cmd_resume(args, telem);
  const auto in = args.get("in");
  if (!in) {
    std::fprintf(stderr, "shuffle: need --in FILE\n");
    return 1;
  }
  EdgeList edges = read_edge_list_file(*in);
  const GenerateConfig config = generate_config_from(args, telem);
  const GenerateResult result = shuffle_graph(std::move(edges), config);
  std::fprintf(stderr, "shuffled: %zu swaps committed over %zu iterations\n",
               result.swap_stats.total_swapped(),
               result.swap_stats.iterations.size());
  const int code = emit_result(args, result, config.guardrails.policy);
  return telem.finish("shuffle", config.seed, config.swap_iterations, &result,
                      nullptr, code);
}

int cmd_stats(const Args& args) {
  const auto in = args.get("in");
  if (!in) {
    std::fprintf(stderr, "stats: need --in FILE\n");
    return 1;
  }
  print_graph_stats(read_edge_list_file(*in));
  return 0;
}

/// `nullgraph serve`: the daemon. Blocks until a termination signal or a
/// client {"op":"shutdown"}; then reports what the run did, optionally as
/// a machine-readable JSON (--report-json) for the serve_smoke CI tier.
int cmd_serve(const Args& args) {
  const auto socket = args.get("socket");
  if (!socket || socket->empty()) {
    std::fprintf(stderr, "serve: need --socket PATH\n");
    return 1;
  }
  obs::MetricsRegistry metrics;
  svc::DaemonConfig config;
  config.socket_path = *socket;
  config.scheduler.slots = static_cast<int>(args.get_u64("slots", 2));
  config.scheduler.queue_capacity = args.get_u64("queue", 4);
  config.scheduler.memory_ceiling_bytes =
      args.get_u64("max-memory-mb", 0) * 1024 * 1024;
  if (const auto dir = args.get("spool")) config.scheduler.spool_dir = *dir;
  if (const auto dir = args.get("report-dir"))
    config.scheduler.report_dir = *dir;
  config.scheduler.total_threads =
      static_cast<int>(args.get_u64("threads", 0));
  config.scheduler.metrics = &metrics;
  config.scheduler.faults.fail_checkpoint_writes =
      args.get_u64("inject-ckpt-fail", 0);
  config.read_timeout_ms =
      static_cast<int>(args.get_u64("read-timeout-ms", 5000));
  config.faults.accept_fail = args.get_u64("inject-accept-fail", 0);
  config.faults.slow_client_ms = args.get_u64("inject-slow-client-ms", 0);
  config.stop_signal = &global_signal_flag();

  // Serve-wide observability: one event log and one flight ring span every
  // job the daemon runs. The ring mirrors the event stream, so arming
  // --flight-out alone still captures a black box with no events file.
  obs::EventLog events;
  obs::FlightRecorder flight;
  if (const auto path = args.get("events-out")) {
    if (const Status s = events.open(*path); !s.ok()) {
      std::fprintf(stderr, "serve: %s\n", s.to_string().c_str());
      return status_exit_code(s.code());
    }
    config.scheduler.events = &events;
  }
  if (const auto path = args.get("flight-out")) {
    events.attach_flight_recorder(&flight);
    config.scheduler.events = &events;
    config.scheduler.flight = &flight;
    config.scheduler.flight_path = *path;
    arm_fatal_flight_dump(&flight, *path);
  }

  std::fprintf(stderr, "serve: listening on %s (slots=%d queue=%zu)\n",
               config.socket_path.c_str(), config.scheduler.slots,
               config.scheduler.queue_capacity);
  const Result<svc::DaemonReport> run = svc::run_daemon(config);
  if (!run.ok()) {
    std::fprintf(stderr, "serve: %s\n", run.status().to_string().c_str());
    return status_exit_code(run.status().code());
  }
  const svc::DaemonReport& report = run.value();
  std::fprintf(stderr,
               "serve: done — %llu completed, %llu failed, %llu evicted, "
               "%llu rejected, %zu recovered, %llu connections\n",
               static_cast<unsigned long long>(report.stats.completed),
               static_cast<unsigned long long>(report.stats.failed),
               static_cast<unsigned long long>(report.stats.evicted),
               static_cast<unsigned long long>(report.stats.rejected),
               report.recovered,
               static_cast<unsigned long long>(report.connections));

  if (const auto path = args.get("report-json")) {
    // Daemon-level report: lifecycle totals + the metrics snapshot. A
    // different document from the per-job run reports (those live in
    // --report-dir and carry report_version 1).
    obs::JsonWriter w;
    w.begin_object();
    w.kv("serve_report_version", 1);
    w.kv("completed", report.stats.completed);
    w.kv("failed", report.stats.failed);
    w.kv("evicted", report.stats.evicted);
    w.kv("rejected", report.stats.rejected);
    w.kv("recovered", report.recovered);
    w.kv("connections", report.connections);
    w.kv("protocol_errors", report.protocol_errors);
    w.key("counters").begin_object();
    for (const auto& c : metrics.snapshot().counters) w.kv(c.name, c.value);
    w.end_object();
    w.end_object();
    if (const Status s = write_text_file_atomic(*path, std::move(w).str());
        !s.ok()) {
      std::fprintf(stderr, "serve: %s\n", s.to_string().c_str());
      return status_exit_code(s.code());
    }
  }
  return 0;
}

/// `nullgraph fsck`: verify (and optionally repair) a spill directory.
/// Per-shard verdicts go to stdout; exit 0 only when every shard is
/// healthy (and, under --deep, the merged census is simple) — damage that
/// remains maps to exit 21 (kShardCorrupt).
int cmd_fsck(const Args& args) {
  const auto dir = args.get("dir");
  if (!dir || dir->empty()) {
    std::fprintf(stderr, "fsck: need --dir DIR\n");
    return 1;
  }
  FsckOptions options;
  options.repair = args.has("repair");
  options.deep = args.has("deep");
  const Result<FsckReport> checked = fsck_spill_dir(*dir, options);
  if (!checked.ok()) {
    std::fprintf(stderr, "fsck: %s\n", checked.status().to_string().c_str());
    return status_exit_code(checked.status().code());
  }
  const FsckReport& report = checked.value();
  std::uint64_t healthy = 0;
  for (const ShardVerdict& v : report.shards) {
    const char* state = "ok";
    switch (v.state) {
      case ShardState::kOk: state = "ok"; break;
      case ShardState::kMissing: state = "MISSING"; break;
      case ShardState::kCorrupt: state = "CORRUPT"; break;
      case ShardState::kRepaired: state = "repaired"; break;
      case ShardState::kUnrepairable: state = "UNREPAIRABLE"; break;
    }
    std::printf("shard %06llu: %s (%llu edges)%s%s\n",
                static_cast<unsigned long long>(v.shard), state,
                static_cast<unsigned long long>(v.edges),
                v.detail.empty() ? "" : " — ", v.detail.c_str());
    if (v.healthy()) ++healthy;
  }
  std::printf("fsck: %llu/%llu shards healthy, %llu edges",
              static_cast<unsigned long long>(healthy),
              static_cast<unsigned long long>(report.shard_count),
              static_cast<unsigned long long>(report.total_edges));
  if (report.deep_ran)
    std::printf("; deep census: %s",
                report.deep_census.simple()
                    ? "simple"
                    : check_simple(report.deep_census).message().c_str());
  std::printf("\n");
  return report.ok() ? 0 : status_exit_code(StatusCode::kShardCorrupt);
}

/// Merges the client's protocol spans with the daemon's worker spans into
/// ONE Chrome-trace JSON: pid 1 = client, pid 2 = daemon. Both sides stamp
/// absolute CLOCK_MONOTONIC µs (machine-wide epoch), so a plain rebase to
/// the earliest timestamp puts queue wait, arbitration, and per-phase
/// execution on a single Perfetto timeline.
Status write_merged_trace(const std::string& path,
                          const obs::TraceSink& client,
                          const std::vector<obs::TraceEventView>& daemon) {
  std::vector<obs::TraceEventView> client_spans = client.export_events();
  std::uint64_t origin = UINT64_MAX;
  for (const obs::TraceEventView& e : client_spans)
    origin = std::min(origin, e.ts_us);
  for (const obs::TraceEventView& e : daemon)
    origin = std::min(origin, e.ts_us);
  if (origin == UINT64_MAX) origin = 0;

  obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  const auto emit_process_name = [&w](int pid, const char* name) {
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("tid", 0);
    w.key("args").begin_object().kv("name", name).end_object();
    w.end_object();
  };
  emit_process_name(1, "submit client");
  emit_process_name(2, "serve daemon");
  const auto emit_span = [&w, origin](const obs::TraceEventView& e, int pid) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ph", std::string(1, e.phase));
    w.kv("ts", e.ts_us - origin);
    if (e.phase == 'X') w.kv("dur", e.dur_us);
    w.kv("pid", pid);
    w.kv("tid", e.tid);
    w.end_object();
  };
  for (const obs::TraceEventView& e : client_spans) emit_span(e, 1);
  for (const obs::TraceEventView& e : daemon) emit_span(e, 2);
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return write_text_file_atomic(path, std::move(w).str());
}

/// `nullgraph submit`: one round-trip to a running daemon. Exit code is
/// the decisive status's typed code — admission rejects map to 18/19/20,
/// a curtailed-but-delivered job to the curtailment's code, clean runs
/// to 0 — so shell drills can assert the whole failure matrix.
int cmd_submit(const Args& args) {
  const auto socket = args.get("socket");
  if (!socket || socket->empty()) {
    std::fprintf(stderr, "submit: need --socket PATH\n");
    return 1;
  }
  svc::SubmitOptions options;
  options.socket_path = *socket;
  options.reply_timeout_ms =
      static_cast<int>(args.get_u64("timeout-ms", 0));

  if (args.has("ping")) {
    const Status s = svc::ping(options);
    std::fprintf(stderr, "ping: %s\n", s.ok() ? "ok" : s.to_string().c_str());
    return status_exit_code(s.code());
  }
  if (args.has("stats")) {
    Result<std::string> s = svc::request_stats(options);
    if (!s.ok()) {
      std::fprintf(stderr, "stats: %s\n", s.status().to_string().c_str());
      return status_exit_code(s.status().code());
    }
    std::printf("%s\n", s.value().c_str());
    return 0;
  }
  if (args.has("metrics")) {
    Result<std::string> m = svc::request_metrics(options);
    if (!m.ok()) {
      std::fprintf(stderr, "metrics: %s\n", m.status().to_string().c_str());
      return status_exit_code(m.status().code());
    }
    std::fputs(m.value().c_str(), stdout);
    return 0;
  }
  if (args.has("shutdown")) {
    const Status s = svc::request_shutdown(options);
    if (!s.ok()) std::fprintf(stderr, "shutdown: %s\n", s.to_string().c_str());
    return status_exit_code(s.code());
  }

  svc::JobSpec spec;
  if (const auto in = args.get("in")) {
    spec.op = svc::JobSpec::Op::kShuffle;
    spec.in_path = *in;
  } else if (const auto upload = args.get("upload")) {
    spec.op = svc::JobSpec::Op::kShuffle;
    spec.edges_follow = true;
    spec.edges = read_edge_list_file(*upload);
  } else if (const auto backend = args.get("backend")) {
    // Registry-backend job: --param K=V pairs (repeatable) travel verbatim
    // to the daemon's model driver; --space/--labeling pick the sampling
    // space. Validation happens server-side against the declared set.
    spec.op = svc::JobSpec::Op::kGenerate;
    spec.backend = *backend;
    for (const auto& [key, value] : args.options) {
      if (key != "param") continue;
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos)
        spec.params.emplace_back(value, "");
      else
        spec.params.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    }
    if (const auto space = args.get("space")) spec.space = *space;
    if (const auto labeling = args.get("labeling"))
      spec.labeling = *labeling;
    if (const auto dist = args.get("dist")) spec.dist_path = *dist;
  } else if (const auto dist = args.get("dist")) {
    spec.op = svc::JobSpec::Op::kGenerate;
    spec.dist_path = *dist;
  } else {
    spec.op = svc::JobSpec::Op::kGenerate;
    spec.powerlaw.n = args.get_u64("n", 100000);
    spec.powerlaw.gamma = args.get_double("gamma", 2.5);
    spec.powerlaw.dmin = args.get_u64("dmin", 1);
    spec.powerlaw.dmax = args.get_u64("dmax", 1000);
  }
  spec.seed = args.get_u64("seed", 1);
  spec.swaps = args.get_u64("swaps", 10);
  spec.deadline_ms = args.get_u64("deadline-ms", 0);
  spec.threads = static_cast<int>(args.get_u64("threads", 0));
  spec.checkpoint_every = args.get_u64("checkpoint-every", 0);
  if (const auto out = args.get("out")) spec.out_path = *out;
  spec.inject_slow_ms = args.get_u64("inject-job-slow-ms", 0);

  // --trace-out on submit means a CROSS-PROCESS trace: the client sink
  // records the protocol legs here, the trace id rides the job spec so the
  // daemon builds a per-job sink, and the returned spans merge below. The
  // id only needs to be unique per daemon lifetime; monotonic µs is.
  std::unique_ptr<obs::TraceSink> client_trace;
  std::string trace_path;
  if (const auto path = args.get("trace-out")) {
    trace_path = *path;
    client_trace = std::make_unique<obs::TraceSink>();
    options.trace = client_trace.get();
    spec.trace_id = obs::monotonic_us() | 1;
  }

  Result<svc::SubmitOutcome> sent = svc::submit_job(options, spec);
  if (!sent.ok()) {
    std::fprintf(stderr, "submit: %s\n", sent.status().to_string().c_str());
    return status_exit_code(sent.status().code());
  }
  const svc::SubmitOutcome& outcome = sent.value();
  if (!outcome.admission.ok()) {
    std::fprintf(stderr, "submit: rejected: %s",
                 outcome.admission.to_string().c_str());
    if (outcome.retry_after_ms > 0)
      std::fprintf(stderr, " (retry after %llu ms)",
                   static_cast<unsigned long long>(outcome.retry_after_ms));
    std::fprintf(stderr, "\n");
    return status_exit_code(outcome.admission.code());
  }
  std::fprintf(stderr, "submit: job %llu %s — %llu edges\n",
               static_cast<unsigned long long>(outcome.job_id),
               outcome.final_status.ok() ? "completed" : "failed",
               static_cast<unsigned long long>(outcome.edge_count));
  if (!outcome.final_status.ok())
    std::fprintf(stderr, "submit: %s\n",
                 outcome.final_status.to_string().c_str());
  if (client_trace != nullptr) {
    if (const Status s = write_merged_trace(trace_path, *client_trace,
                                            outcome.daemon_spans);
        !s.ok()) {
      std::fprintf(stderr, "submit: %s\n", s.to_string().c_str());
      return status_exit_code(s.code());
    }
    std::fprintf(stderr, "submit: merged trace (%zu daemon spans) -> %s\n",
                 outcome.daemon_spans.size(), trace_path.c_str());
  }
  if (const auto save = args.get("save")) {
    if (Status s = write_edge_list_file_atomic(*save, outcome.edges);
        !s.ok()) {
      std::fprintf(stderr, "submit: %s\n", s.to_string().c_str());
      return status_exit_code(s.code());
    }
  }
  if (!outcome.final_status.ok())
    return status_exit_code(outcome.final_status.code());
  if (outcome.curtailed_code != StatusCode::kOk) {
    std::fprintf(stderr, "submit: job curtailed: %s\n",
                 outcome.curtailed.c_str());
    return status_exit_code(outcome.curtailed_code);
  }
  return 0;
}

int cmd_dist(const Args& args) {
  const auto in = args.get("in");
  if (!in) {
    std::fprintf(stderr, "dist: need --in FILE\n");
    return 1;
  }
  const DegreeDistribution dist =
      DegreeDistribution::from_edges(read_edge_list_file(*in));
  if (const auto out = args.get("out")) {
    write_degree_distribution_file(*out, dist);
  } else {
    for (const DegreeClass& c : dist.classes())
      std::printf("%llu %llu\n", static_cast<unsigned long long>(c.degree),
                  static_cast<unsigned long long>(c.count));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  const Args args = parse(argc, argv);
  install_signal_handlers();
  try {
    // serve/submit own their observability wiring (serve-wide event log,
    // cross-process trace merge) — the batch Telemetry below must not also
    // claim the same sink files.
    if (command == "serve") return cmd_serve(args);
    if (command == "submit") return cmd_submit(args);
    if (command == "backends") return cmd_backends(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "dist") return cmd_dist(args);
    if (command == "fsck") return cmd_fsck(args);
    Telemetry telem = Telemetry::from(args, argc, argv);
    if (command == "generate") return cmd_generate(args, telem);
    if (command == "shuffle") return cmd_shuffle(args, telem);
  } catch (const StatusError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return status_exit_code(error.code());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  usage();
  return 1;
}
