#!/usr/bin/env python3
"""Tests for the semantic analyzer (scripts/analyze/).

Four layers:
  - driver tests: golden output over the bad fixture tree, clean fixture
    and real-tree runs, --rules/--list/--json/--frontend plumbing;
  - per-rule fixture tests: exact file:line diagnostics for each of the
    four contracts (signal-safety, exec-purity, rng-determinism,
    exit-contract);
  - contract-proof tests on the real tree: the flight-recorder dump path
    is a registered signal-safe root and its cone proves clean, and a
    deliberately drifted README exit-code row is detected;
  - sanction-discipline tests: a justified `analyzer-ok(rule): reason`
    suppresses, a bare one does not.

Run directly (python3 scripts/analyze/tests/test_analysis.py) or via
ctest (registered as analyzer_framework in tests/CMakeLists.txt).
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = pathlib.Path(__file__).resolve().parent
ANALYZE_DIR = TESTS_DIR.parent
REPO_ROOT = ANALYZE_DIR.parents[1]
DRIVER = ANALYZE_DIR / "run_analysis.py"
FIXTURES = TESTS_DIR / "fixtures"
GOLDEN = TESTS_DIR / "golden"


def run_driver(*args, frontend="internal"):
    """Run the driver; the internal frontend is forced by default so the
    output is identical on hosts with and without libclang."""
    extra = ("--frontend", frontend) if frontend else ()
    return subprocess.run(
        [sys.executable, str(DRIVER), *extra, *args],
        capture_output=True, text=True, check=False)


class DriverTest(unittest.TestCase):
    def test_bad_fixture_matches_golden_and_exits_nonzero(self):
        result = run_driver("--root", str(FIXTURES / "bad"))
        self.assertEqual(result.returncode, 1)
        golden = (GOLDEN / "bad_fixture.txt").read_text(encoding="utf-8")
        self.assertEqual(result.stdout, golden)

    def test_clean_fixture_passes(self):
        result = run_driver("--root", str(FIXTURES / "clean"))
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("analysis: clean", result.stdout)

    def test_real_tree_is_clean(self):
        result = run_driver("--root", str(REPO_ROOT))
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_rule_filter_runs_only_named_rules(self):
        result = run_driver("--root", str(FIXTURES / "bad"),
                            "--rules", "signal-safety")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[signal-safety]", result.stdout)
        self.assertNotIn("[exec-purity]", result.stdout)
        self.assertNotIn("[exit-contract]", result.stdout)

    def test_unknown_rule_is_usage_error(self):
        result = run_driver("--rules", "no-such-rule")
        self.assertEqual(result.returncode, 2)
        self.assertIn("unknown rule", result.stderr)

    def test_list_names_all_rules(self):
        result = run_driver("--list")
        self.assertEqual(result.returncode, 0)
        for name in ("signal-safety", "exec-purity", "rng-determinism",
                     "exit-contract"):
            self.assertIn(name, result.stdout)

    def test_json_output_on_bad_tree(self):
        result = run_driver("--root", str(FIXTURES / "bad"), "--json")
        self.assertEqual(result.returncode, 1)
        payload = json.loads(result.stdout)
        self.assertEqual(payload["tool"], "analysis")
        self.assertFalse(payload["clean"])
        self.assertEqual(payload["frontend"], "internal")
        self.assertGreater(len(payload["diagnostics"]), 0)
        first = payload["diagnostics"][0]
        for key in ("path", "line", "rule", "message"):
            self.assertIn(key, first)

    def test_json_output_on_clean_tree(self):
        result = run_driver("--root", str(FIXTURES / "clean"), "--json")
        self.assertEqual(result.returncode, 0)
        payload = json.loads(result.stdout)
        self.assertTrue(payload["clean"])
        self.assertEqual(payload["diagnostics"], [])

    def test_auto_frontend_degrades_with_notice_not_failure(self):
        # Whether or not libclang is installed, --frontend=auto must run
        # the analysis; without libclang a notice goes to stderr.
        result = run_driver("--root", str(FIXTURES / "clean"),
                            frontend="auto")
        self.assertEqual(result.returncode, 0,
                         result.stdout + result.stderr)
        if "frontend: internal" in result.stdout:
            self.assertIn("libclang frontend unavailable", result.stderr)


class RuleDiagnosticsTest(unittest.TestCase):
    """Exact file:line assertions per rule over the bad fixture tree."""

    @classmethod
    def setUpClass(cls):
        cls.out = run_driver("--root", str(FIXTURES / "bad")).stdout

    def test_signal_safety_flags_snprintf_in_handler(self):
        self.assertIn(
            "src/core/bad_signal_handler.cpp:32: [signal-safety] "
            "'std::snprintf'", self.out)

    def test_signal_safety_flags_transitive_allocation_with_chain(self):
        self.assertIn(
            "src/core/bad_signal_handler.cpp:22: [signal-safety] operator "
            "new in the signal cone of 'on_crash' (via on_crash → "
            "format_report)", self.out)
        self.assertIn(
            "src/core/bad_signal_handler.cpp:21: [signal-safety] "
            "'std::string' constructed", self.out)

    def test_signal_safety_flags_guarded_static(self):
        self.assertIn(
            "src/core/bad_signal_handler.cpp:16: [signal-safety] "
            "function-local static 'Panic'", self.out)

    def test_signal_safety_flags_unprovable_external_call(self):
        self.assertIn(
            "src/core/bad_signal_handler.cpp:35: [signal-safety] cannot "
            "prove 'vendor_hook' async-signal-safe", self.out)

    def test_exec_purity_flags_direct_lock_and_stream(self):
        self.assertIn(
            "src/core/bad_exec_callback.cpp:23: [exec-purity] lock "
            "'std::lock_guard'", self.out)
        self.assertIn(
            "src/core/bad_exec_callback.cpp:29: [exec-purity] file stream "
            "'std::ofstream'", self.out)

    def test_exec_purity_flags_transitive_io_with_chain(self):
        self.assertIn(
            "src/core/bad_exec_callback.cpp:14: [exec-purity] 'std::fopen' "
            "(file I/O) inside a for_chunks chunk callback (reached via "
            "append_row)", self.out)

    def test_exec_purity_follows_template_dispatch_policy_calls(self):
        # policy.propose() has two same-named candidates; the receiver is
        # a template type parameter, so every candidate is traversed.
        self.assertIn(
            "src/core/bad_policy_dispatch.cpp:14: [exec-purity] "
            "'std::this_thread::sleep_for' (sleeping) inside a for_chunks "
            "chunk callback (reached via propose)", self.out)

    def test_rng_determinism_follows_template_dispatch_policy_calls(self):
        self.assertIn(
            "src/core/bad_policy_dispatch.cpp:15: [rng-determinism] "
            "'nullgraph::Xoshiro256ss' constructed inside a for_chunks "
            "chunk callback without a chunk-seeded stream", self.out)

    def test_rng_determinism_flags_shared_run_seed(self):
        self.assertIn(
            "src/core/bad_rng_seed.cpp:20: [rng-determinism] "
            "'nullgraph::Xoshiro256ss' constructed inside a for_chunks "
            "chunk callback without a chunk-seeded stream", self.out)

    def test_rng_determinism_flags_thread_identity_seed(self):
        self.assertIn(
            "src/core/bad_rng_seed.cpp:25: [rng-determinism] "
            "'std::mt19937' inside a for_chunks chunk callback is seeded "
            "from thread identity", self.out)

    def test_exit_contract_flags_missing_case_and_duplicate_exit(self):
        self.assertIn(
            "src/robustness/status.cpp:16: [exit-contract] "
            "status_exit_code has no case for StatusCode::kStale",
            self.out)
        self.assertIn(
            "src/robustness/status.cpp:21: [exit-contract] exit status 2 "
            "is mapped by both kInternal and kIoError", self.out)

    def test_exit_contract_flags_wrong_name_string(self):
        self.assertIn(
            'src/robustness/status.cpp:10: [exit-contract] '
            'status_code_name returns "kIoFailure" for '
            'StatusCode::kIoError', self.out)

    def test_exit_contract_flags_readme_drift_and_stale_row(self):
        self.assertIn(
            "README.md:9: [exit-contract] exit-code table says kInternal "
            "= exit 3, but status_exit_code returns 2", self.out)
        self.assertIn(
            "README.md:11: [exit-contract] exit-code table documents "
            "kRetired", self.out)

    def test_exit_contract_flags_hardcoded_cli_exit(self):
        self.assertIn(
            "tools/bad_cli.cpp:7: [exit-contract] hardcoded exit(7)",
            self.out)


class RealTreeContractTest(unittest.TestCase):
    """The analyzer's reason for existing: proofs over the real tree."""

    def test_flight_recorder_dump_is_a_registered_root(self):
        sys.path.insert(0, str(ANALYZE_DIR))
        sys.path.insert(0, str(ANALYZE_DIR.parent))
        from analysis_rules import base, callgraph, signal_safety
        from checklib import SourceTree
        tree = SourceTree(REPO_ROOT)
        graph = callgraph.build_call_graph(tree)
        ctx = base.AnalysisContext(root=REPO_ROOT, tree=tree, graph=graph)
        markers = {fn.qname for fn in signal_safety._marker_roots(ctx)}
        self.assertIn("nullgraph::obs::FlightRecorder::dump", markers)
        handlers = {fn.name for fn in signal_safety._handler_roots(ctx)}
        self.assertIn("on_fatal_signal", handlers)
        self.assertIn("on_termination_signal", handlers)

    def test_signal_safety_proves_real_dump_path(self):
        result = run_driver("--root", str(REPO_ROOT),
                            "--rules", "signal-safety")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_drifted_readme_row_is_detected(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src" / "robustness").mkdir(parents=True)
            for name in ("status.hpp", "status.cpp"):
                shutil.copy(REPO_ROOT / "src" / "robustness" / name,
                            root / "src" / "robustness" / name)
            readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
            drifted, n = re.subn(r"\|\s*13\s*\|\s*`kCancelled`",
                                 "| 12 | `kCancelled`", readme)
            self.assertEqual(n, 1, "README fixture row not found")
            (root / "README.md").write_text(drifted, encoding="utf-8")
            result = run_driver("--root", str(root),
                                "--rules", "exit-contract")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("kCancelled = exit 12, but status_exit_code returns "
                      "13", result.stdout)

    def test_untouched_copy_of_contract_files_is_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src" / "robustness").mkdir(parents=True)
            for name in ("status.hpp", "status.cpp"):
                shutil.copy(REPO_ROOT / "src" / "robustness" / name,
                            root / "src" / "robustness" / name)
            shutil.copy(REPO_ROOT / "README.md", root / "README.md")
            result = run_driver("--root", str(root),
                                "--rules", "exit-contract")
        self.assertEqual(result.returncode, 0, result.stdout)


SANCTIONED = """
#include <mutex>
#include "exec/exec.hpp"
namespace {
std::mutex g_mu;
void run(const exec::ParallelContext& ctx) {
  exec::for_chunks(ctx, 64, 8, [&](const exec::Chunk& chunk) {
    %s
    std::lock_guard<std::mutex> hold(g_mu);
    (void)chunk;
  });
}
}  // namespace
"""


class SanctionDisciplineTest(unittest.TestCase):
    def _run_with(self, comment):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            (root / "src" / "core").mkdir(parents=True)
            (root / "src" / "core" / "snippet.cpp").write_text(
                SANCTIONED % comment, encoding="utf-8")
            return run_driver("--root", str(root),
                              "--rules", "exec-purity")

    def test_justified_sanction_suppresses(self):
        result = self._run_with(
            "// analyzer-ok(exec-purity): held for a bounded debug count")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_bare_sanction_does_not_suppress(self):
        result = self._run_with("// analyzer-ok(exec-purity):")
        self.assertEqual(result.returncode, 1, result.stdout)

    def test_wrong_rule_sanction_does_not_suppress(self):
        result = self._run_with(
            "// analyzer-ok(signal-safety): wrong contract entirely")
        self.assertEqual(result.returncode, 1, result.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
