#!/usr/bin/env python3
"""Tests for the lint framework (scripts/lint/) and the compiler-enforced
analysis tier.

Three layers:
  - fixture tests: known-bad snippets fed to each rule, asserting exact
    file:line diagnostics and a nonzero driver exit;
  - a golden test: full driver output over the bad fixture tree must match
    scripts/lint/tests/golden/bad_fixture.txt byte for byte;
  - analysis-tier probes: a deliberately discarded Status must fail to
    compile under -Werror=unused-result, and (when clang++ is available) a
    deliberate NG_GUARDED_BY violation must fail under
    -Werror=thread-safety. These prove the check.sh stages turn red on the
    exact defect classes they exist to catch.

Run directly (python3 scripts/lint/tests/test_lints.py) or via ctest
(registered as lint_framework in tests/CMakeLists.txt).
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = pathlib.Path(__file__).resolve().parent
LINT_DIR = TESTS_DIR.parent
REPO_ROOT = LINT_DIR.parents[1]
DRIVER = LINT_DIR / "run_lints.py"
FIXTURES = TESTS_DIR / "fixtures"
GOLDEN = TESTS_DIR / "golden"


def run_driver(*args):
    return subprocess.run(
        [sys.executable, str(DRIVER), *args],
        capture_output=True, text=True, check=False)


def compile_snippet(compiler, source, *flags):
    """Syntax-only compile of `source` against the real src/ tree."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "snippet.cpp"
        path.write_text(source, encoding="utf-8")
        return subprocess.run(
            [compiler, "-std=c++20", "-fsyntax-only",
             f"-I{REPO_ROOT / 'src'}", *flags, str(path)],
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
        self.assertIn("lint: clean", result.stdout)

    def test_real_tree_is_clean(self):
        result = run_driver("--root", str(REPO_ROOT))
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_rule_filter_runs_only_named_rules(self):
        result = run_driver("--root", str(FIXTURES / "bad"),
                            "--rules", "determinism")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[determinism]", result.stdout)
        self.assertNotIn("[atomics]", result.stdout)

    def test_unknown_rule_is_usage_error(self):
        result = run_driver("--rules", "no-such-rule")
        self.assertEqual(result.returncode, 2)
        self.assertIn("unknown rule", result.stderr)

    def test_list_names_all_rules(self):
        result = run_driver("--list")
        self.assertEqual(result.returncode, 0)
        for name in ("omp-confinement", "svc-confinement", "io-confinement",
                     "determinism", "atomics", "include-hygiene",
                     "model-confinement", "obs-confinement",
                     "swap-chain-confinement"):
            self.assertIn(name, result.stdout)


class RuleDiagnosticsTest(unittest.TestCase):
    """Exact file:line assertions per rule over the bad fixture tree."""

    @classmethod
    def setUpClass(cls):
        cls.out = run_driver("--root", str(FIXTURES / "bad")).stdout

    def test_determinism_flags_random_device_in_src_core(self):
        self.assertIn(
            "src/core/bad_rng.cpp:8: [determinism] nondeterministic "
            "construct std::random_device", self.out)

    def test_determinism_flags_wall_clock_seed(self):
        self.assertIn("src/core/bad_rng.cpp:12: [determinism]", self.out)
        self.assertIn("src/core/bad_rng.cpp:14: [determinism]", self.out)

    def test_omp_confinement_covers_cc_extension(self):
        self.assertIn(
            "src/core/bad_omp.cc:9: [omp-confinement] raw '#pragma omp'",
            self.out)

    def test_omp_confinement_flags_thread_and_async_spawns(self):
        self.assertIn("src/core/bad_omp.cc:15: [omp-confinement]", self.out)
        self.assertIn("src/core/bad_omp.cc:16: [omp-confinement]", self.out)

    def test_svc_confinement_flags_each_raw_syscall(self):
        for line in (7, 8, 9):  # socket(), accept(), fork()
            self.assertIn(
                f"src/core/bad_socket.cpp:{line}: [svc-confinement] raw "
                "socket/process syscall outside src/svc/", self.out)

    def test_svc_confinement_ignores_wrapper_names_and_comments(self):
        # The clean fixture calls accept_with_timeout()/socketpair-like
        # helpers and mentions socket( in a comment; none may fire.
        result = run_driver("--root", str(FIXTURES / "clean"),
                            "--rules", "svc-confinement")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_io_confinement_flags_each_raw_open(self):
        # <fstream> include, std::fopen, std::ofstream, ::open syscall.
        for line in (3, 7, 8, 9):
            self.assertIn(
                f"src/core/bad_file_io.cpp:{line}: [io-confinement] raw "
                "file I/O outside src/io/ and src/svc/", self.out)

    def test_io_confinement_ignores_wrappers_and_comments(self):
        # The clean fixture opens files via write_text_file_atomic(), calls
        # a my_fopen_counter() lookalike, and says "fopen(" in a comment;
        # none may fire.
        result = run_driver("--root", str(FIXTURES / "clean"),
                            "--rules", "io-confinement")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_model_confinement_flags_each_direct_generator_call(self):
        for line in (6, 7, 8, 9):  # null graph, lfr, directed, chung-lu
            self.assertIn(
                f"src/analysis/bad_model_call.cpp:{line}: "
                "[model-confinement] direct generator call outside the "
                "model layer", self.out)

    def test_model_confinement_ignores_registry_door_and_lookalikes(self):
        # The clean fixture dispatches via model::run_model, calls a
        # my_generate_lfr_cached() lookalike, and mentions a banned name in
        # a string literal; none may fire.
        result = run_driver("--root", str(FIXTURES / "clean"),
                            "--rules", "model-confinement")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_swap_chain_confinement_flags_each_primitive_call(self):
        # knuth_targets, apply_targets_parallel, apply_targets_serial; the
        # swap_edges_serial DECLARATION above them (with its `= {}`
        # default) must not open a sanctioned body.
        for line in (7, 8, 9):
            self.assertIn(
                f"src/directed/bad_swap_copy.cpp:{line}: "
                "[swap-chain-confinement] permutation primitive outside "
                "the shared swap chain", self.out)

    def test_swap_chain_confinement_allows_serial_reference(self):
        # The clean fixture permutes inside a swap_edges_serial body, calls
        # serial_permute in a generator, names the primitives in comments,
        # and calls lookalikes; none fire.
        result = run_driver("--root", str(FIXTURES / "clean"),
                            "--rules", "swap-chain-confinement")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_swap_chain_confinement_flags_reservation_kernel_everywhere(self):
        # apply_targets_parallel / parallel_permute( are flagged in the
        # shared chain, in a generator, in the serial reference's body, and
        # (besides the chain diagnostic) in a copy of the chain.
        for path, line in (("src/core/swap_chain.hpp", 9),
                           ("src/directed/bad_swap_copy.cpp", 8),
                           ("src/gen/bad_parallel_permute.cpp", 5),
                           ("src/gen/bad_parallel_permute.cpp", 10)):
            self.assertIn(
                f"{path}:{line}: [swap-chain-confinement] reservation-round "
                "permutation outside src/permute/", self.out)
        # The chain's knuth_targets call and the serial reference's stay
        # sanctioned.
        self.assertNotIn("src/core/swap_chain.hpp:8:", self.out)
        self.assertNotIn("src/gen/bad_parallel_permute.cpp:9:", self.out)

    def test_obs_confinement_flags_include_emit_and_scope(self):
        # The event_log.hpp include, the emit_event call, and the RAII
        # phase scope in a hot kernel dir.
        for line in (1, 6, 7):
            self.assertIn(
                f"src/gen/bad_event_emit.cpp:{line}: [obs-confinement] "
                "event emission in a hot kernel dir", self.out)

    def test_obs_confinement_allows_context_passthrough(self):
        # Carrying an ObsContext (obs_context.hpp) through a kernel and
        # mentioning emit_event( in comments/strings must not fire.
        result = run_driver("--root", str(FIXTURES / "clean"),
                            "--rules", "obs-confinement")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_atomics_flags_volatile(self):
        self.assertIn(
            "src/ds/bad_atomics.hpp:6: [atomics] 'volatile'", self.out)

    def test_atomics_flags_unjustified_relaxed(self):
        self.assertIn(
            "src/ds/bad_atomics.hpp:12: [atomics] memory_order_relaxed "
            "without a 'relaxed:' justification", self.out)

    def test_include_hygiene_flags_missing_pragma_once(self):
        self.assertIn(
            "src/obs/bad_include.hpp:1: [include-hygiene] header does not "
            "open with '#pragma once'", self.out)

    def test_include_hygiene_flags_bracketed_and_relative_includes(self):
        self.assertIn("src/obs/bad_include.hpp:5: [include-hygiene]",
                      self.out)
        self.assertIn("src/obs/bad_include.hpp:6: [include-hygiene]",
                      self.out)


DISCARDED_STATUS = """
#include "robustness/status.hpp"
using nullgraph::Status;
using nullgraph::StatusCode;
Status might_fail() { return Status(StatusCode::kIoError, "boom"); }
void caller() { might_fail(); }  // discard -> must not compile
"""

HANDLED_STATUS = """
#include "robustness/status.hpp"
using nullgraph::Status;
using nullgraph::StatusCode;
Status might_fail() { return Status(StatusCode::kIoError, "boom"); }
int caller() { return might_fail().ok() ? 0 : 1; }
"""

GUARDED_BY_VIOLATION = """
#include "util/thread_annotations.hpp"
class Tally {
 public:
  void bump_unlocked() { total_ += 1; }  // no lock -> analysis error
 private:
  nullgraph::Mutex mutex_;
  long total_ NG_GUARDED_BY(mutex_) = 0;
};
"""

GUARDED_BY_CLEAN = """
#include "util/thread_annotations.hpp"
class Tally {
 public:
  void bump() {
    nullgraph::MutexLock lock(mutex_);
    total_ += 1;
  }
 private:
  nullgraph::Mutex mutex_;
  long total_ NG_GUARDED_BY(mutex_) = 0;
};
"""


class AnalysisTierTest(unittest.TestCase):
    """The compiler stages of check.sh turn red on their defect classes."""

    @classmethod
    def setUpClass(cls):
        cls.cxx = shutil.which("c++") or shutil.which("g++")
        cls.clangxx = shutil.which("clang++")

    def test_discarded_status_fails_under_unused_result(self):
        self.assertIsNotNone(self.cxx, "no C++ compiler on PATH")
        result = compile_snippet(self.cxx, DISCARDED_STATUS,
                                 "-Werror=unused-result")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("unused-result", result.stderr)

    def test_handled_status_compiles_under_unused_result(self):
        self.assertIsNotNone(self.cxx, "no C++ compiler on PATH")
        result = compile_snippet(self.cxx, HANDLED_STATUS,
                                 "-Werror=unused-result")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_guarded_by_violation_fails_under_clang_thread_safety(self):
        if self.clangxx is None:
            self.skipTest("clang++ not on PATH (thread-safety analysis is "
                          "Clang-only; check.sh gates this stage the same way)")
        result = compile_snippet(self.clangxx, GUARDED_BY_VIOLATION,
                                 "-Wthread-safety", "-Werror=thread-safety")
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("thread-safety", result.stderr)

    def test_locked_access_compiles_under_clang_thread_safety(self):
        if self.clangxx is None:
            self.skipTest("clang++ not on PATH")
        result = compile_snippet(self.clangxx, GUARDED_BY_CLEAN,
                                 "-Wthread-safety", "-Werror=thread-safety")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_annotations_are_noops_on_gcc(self):
        self.assertIsNotNone(self.cxx, "no C++ compiler on PATH")
        result = compile_snippet(self.cxx, GUARDED_BY_CLEAN, "-Wall",
                                 "-Werror")
        self.assertEqual(result.returncode, 0, result.stderr)


class LexerTest(unittest.TestCase):
    """Unit tests for checklib's comment/string stripper — in particular
    the raw-string opener decision: an identifier merely ENDING in R
    before a string literal is not a raw string, while every real
    encoding-prefix form (R, u8R, uR, UR, LR) is."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(LINT_DIR.parent))
        from checklib import strip_comments_and_strings
        cls.strip = staticmethod(strip_comments_and_strings)

    def test_identifier_ending_in_r_is_not_a_raw_string(self):
        # FOUR"..." (macro concatenation) used to open raw-string mode and
        # corrupt the rest of the file: the closing )" delimiter never
        # appears, so everything after — here a real fopen call — stayed
        # "inside the string" and vanished from the stripped text.
        src = 'auto s = FOUR"abc";\nstd::fopen("x", "r");\n'
        out = self.strip(src)
        self.assertIn("FOUR", out)
        self.assertIn("fopen", out)
        self.assertNotIn("abc", out)

    def test_single_r_macro_is_not_a_raw_string(self):
        out = self.strip('auto s = BAR"(not raw)";\nint after = 1;\n')
        self.assertIn("after", out)
        self.assertNotIn("not raw", out)

    def test_plain_raw_string_contents_are_blanked(self):
        out = self.strip('auto s = R"(fopen("x"))";\nint after = 1;\n')
        self.assertNotIn("fopen", out)
        self.assertIn("after", out)

    def test_encoding_prefixed_raw_strings_are_recognized(self):
        for prefix in ("u8", "u", "U", "L"):
            src = f'auto s = {prefix}R"(socket(1))";\nint after = 1;\n'
            out = self.strip(src)
            self.assertNotIn("socket", out, f"prefix {prefix}R leaked")
            self.assertIn("after", out, f"prefix {prefix}R ate the file")

    def test_delimited_raw_string(self):
        out = self.strip('auto s = R"ng(fork() )" )ng";\nint after = 1;\n')
        self.assertNotIn("fork", out)
        self.assertIn("after", out)

    def test_line_numbers_preserved_through_raw_strings(self):
        src = 'int a;\nauto s = R"(x\ny\nz)";\nint b;\n'
        out = self.strip(src)
        self.assertEqual(out.count("\n"), src.count("\n"))
        self.assertEqual(out.splitlines()[4].strip(), "int b;")

    def test_line_numbers_preserved_through_block_comments(self):
        src = "int a;\n/* one\ntwo */ int b;\n"
        out = self.strip(src)
        self.assertEqual(out.count("\n"), src.count("\n"))
        self.assertIn("int b;", out.splitlines()[2])


if __name__ == "__main__":
    unittest.main(verbosity=2)
