"""Model-dispatch confinement rule.

The generator pipeline entry points — ``generate_null_graph()``,
``generate_lfr()``, ``bipartite_null_graph()``, the Chung-Lu kernels, and
friends — are reachable from exactly one production door: the backend
registry (``model::run_model``). A front end (tools/, src/svc/, src/
anything above the model layer) calling a generator directly bypasses the
driver's capability validation, the sampling-space census, and the report's
``model`` block, which is precisely the drift the registry refactor
removed.

Sanctioned locations:
  * ``src/model/`` — the backends themselves;
  * the owning subsystems (``src/core``, ``src/gen``, ``src/directed``,
    ``src/bipartite``, ``src/lfr``) — definitions and internal layering;
  * ``tests/`` and ``bench/`` — they exercise kernels in isolation by
    design (the parity suite compares them against the registry path);
  * ``examples/`` — library-API demos, deliberately below the CLI surface.

The pattern requires the open parenthesis immediately after the name, so
declarations in prose, wrapper names like ``my_generate_lfr_cached(``, and
comments (stripped by the framework) never trip it.
"""

import re

from . import base

NAME = "model-confinement"
DESCRIPTION = (
    "generator pipeline entry points called only via the model registry"
)

SANCTIONED_DIRS = (
    "src/model/", "src/core/", "src/gen/", "src/directed/",
    "src/bipartite/", "src/lfr/", "tests/", "bench/", "examples/",
)

_ENTRY_POINT = re.compile(
    r"(?<![A-Za-z0-9_])(?:"
    r"generate_null_graph(?:_checked)?|"
    r"generate_for_sequence|generate_directed_null_graph|"
    r"bipartite_null_graph|chung_lu_multigraph|erased_chung_lu|"
    r"bernoulli_chung_lu|generate_lfr|rmat_edges"
    r")\s*\(")


def check(tree: base.SourceTree):
    diags = []
    for f in tree.files:
        if any(f.in_dir(d) for d in SANCTIONED_DIRS):
            continue
        for lineno, line in enumerate(f.code_lines, start=1):
            if _ENTRY_POINT.search(line):
                diags.append(base.Diagnostic(
                    f.path, lineno, NAME,
                    "direct generator call outside the model layer — "
                    "dispatch through model::run_model so capability "
                    "validation, the sampling-space census, and the "
                    "report's model block apply"))
    return diags
