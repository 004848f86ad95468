"""Rule registry for the nullgraph lint driver.

A rule is a module exposing:
    NAME: str          stable kebab-case identifier (used in output and --rules)
    DESCRIPTION: str   one-liner for --list
    check(tree) -> list[base.Diagnostic]

To add a rule: create a module in this package, implement the three symbols,
and append it to ALL_RULES below (order = output grouping order). See
DESIGN.md section 8 for the policy each existing rule encodes.
"""

from . import (atomics, determinism, include_hygiene, io_confinement,
               model_confinement, obs_confinement, omp_confinement,
               svc_confinement, swap_chain_confinement)

ALL_RULES = [omp_confinement, svc_confinement, io_confinement, determinism,
             atomics, include_hygiene, model_confinement, obs_confinement,
             swap_chain_confinement]
