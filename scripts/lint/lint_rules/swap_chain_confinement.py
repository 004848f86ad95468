"""Swap-chain confinement rule.

Algorithm III.1 — refill T, permute, try each adjacent pair — exists once,
as the ``run_swap_chain`` template in ``src/core/swap_chain.hpp``; the swap
families (undirected, directed/bipartite, XBS rewire) differ only in the
proposal policy they hand it. Every copy of the chain starts by permuting
the edge list, so this rule keeps the permutation primitives
(``knuth_targets(`` and ``apply_targets_*``) inside:

  * ``src/permute/`` — their definitions;
  * ``src/core/swap_chain.hpp`` — the one chain;
  * the body of ``swap_edges_serial`` — the serial reference chain, kept
    separate on purpose (an exact edge table, no over-approximation) so
    it can validate the parallel one.

A new swap family adds a proposal policy, not a chain. Code outside
``src/`` (tests, benchmarks) may call the primitives directly.
"""

import re

from . import base

NAME = "swap-chain-confinement"
DESCRIPTION = ("permutation primitives confined to src/permute/, the shared "
               "swap chain and the serial reference")

SANCTIONED_DIRS = ("src/permute/",)
SANCTIONED_FILES = ("src/core/swap_chain.hpp",)
#: Functions whose bodies may call the primitives.
SANCTIONED_FUNCTIONS = ("swap_edges_serial",)

_PRIMITIVE = re.compile(
    r"(?<![A-Za-z0-9_])(?:knuth_targets\s*\(|apply_targets_[A-Za-z0-9_]*)")
_DEFINITION = re.compile(
    r"(?<![A-Za-z0-9_])(?:%s)\s*\(" % "|".join(SANCTIONED_FUNCTIONS))

_MESSAGE = ("permutation primitive outside the shared swap chain — add a "
            "proposal policy for core/swap_chain.hpp's run_swap_chain "
            "instead of another copy of the chain")


def _sanctioned_body_lines(code_lines):
    """1-based lines inside the body of a sanctioned function definition.

    A name match opens a candidate; the first top-level ';' (a declaration
    or call) drops it, the first top-level '{' (braces inside the parameter
    list, e.g. ``= {}`` defaults, do not count) opens the body, and the
    matching '}' closes it.
    """
    lines = set()
    depth = 0       # brace depth inside an open body; 0 = outside
    pending = False  # saw a sanctioned name, its body not yet opened
    parens = 0
    for lineno, line in enumerate(code_lines, start=1):
        start = 0
        if depth == 0 and not pending:
            match = _DEFINITION.search(line)
            if match is None:
                continue
            pending, parens, start = True, 0, match.start()
        in_body = depth > 0
        for ch in line[start:]:
            if pending:
                if ch == "(":
                    parens += 1
                elif ch == ")":
                    parens -= 1
                elif parens == 0 and ch == ";":
                    pending = False
                elif parens == 0 and ch == "{":
                    pending, depth, in_body = False, 1, True
            elif depth > 0:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
        if in_body:
            lines.add(lineno)
    return lines


def check(tree: base.SourceTree):
    diags = []
    for f in tree.files:
        if not f.path.startswith("src/") or f.path in SANCTIONED_FILES:
            continue
        if any(f.in_dir(d) for d in SANCTIONED_DIRS):
            continue
        sanctioned = None
        for lineno, line in enumerate(f.code_lines, start=1):
            if not _PRIMITIVE.search(line):
                continue
            if sanctioned is None:
                sanctioned = _sanctioned_body_lines(f.code_lines)
            if lineno not in sanctioned:
                diags.append(base.Diagnostic(f.path, lineno, NAME, _MESSAGE))
    return diags
