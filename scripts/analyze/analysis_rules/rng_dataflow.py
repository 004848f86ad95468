"""Semantic RNG determinism: chunk callbacks draw only chunk-seeded streams.

The reproducibility contract (DESIGN.md §6d: a fixed seed gives
bit-identical output at any thread count) rests on one dataflow rule:
every RNG engine that lives inside a chunk callback is seeded from the
chunk-indexed stream factory — ``chunk.rng()``, or an explicit
``chunk_seed(seed, chunk.index)`` / ``task_seed(seed, unit, part)``
derivation — never from a thread id, a shared run seed reused across
chunks, or ambient state. Dutta–Fosdick–Clauset (arXiv:2105.12120) is the
cautionary tale: sampling contracts drift silently unless the discipline
is checked where the engine is *constructed*.

The regex `determinism` lint bans entropy sources (rand()/random_device/
wall clocks) anywhere; this rule upgrades it to dataflow inside the
parallel kernels: an engine construction whose seed expression does not
flow from a sanctioned chunk-stream factory is diagnosed even when every
token in it is individually legal.
"""

from __future__ import annotations

from . import base

NAME = "rng-determinism"
DESCRIPTION = ("RNG engines inside chunk callbacks must be seeded from the "
               "chunk-seeded stream factories (chunk.rng/chunk_seed/"
               "task_seed)")

#: RNG engine types (project + <random>), by last name component.
ENGINE_LASTS = frozenset({
    "Xoshiro256ss", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
    "ranlux24_base", "ranlux48_base",
})

#: Sanctioned seed-derivation factories: depend only on (run seed, chunk
#: identity), so the stream is invariant under thread count.
FACTORY_LASTS = frozenset({"chunk_seed", "task_seed"})

#: Seeds carrying thread identity: deterministic per *thread*, which is
#: exactly the bug — output changes with the thread count.
THREAD_IDENTITY = frozenset({
    "omp_get_thread_num", "omp_get_num_threads", "this_thread", "get_id",
    "current_thread_budget",
})


def _lasts(idents):
    return [ident.rsplit("::", 1)[-1] for ident in idents]


def check(ctx):
    diags = []
    seen = set()

    def emit(path, line, message):
        key = (path, line, message)
        if key not in seen:
            seen.add(key)
            diags.append(base.Diagnostic(path, line, NAME, message))

    def bodies(lam):
        """The callback plus the policy methods it calls through a
        template-dispatch parameter (run_swap_chain's proposal.propose):
        a policy body runs inline in the chunk loop, so the same seeding
        contract applies to it."""
        yield lam
        for _, target in ctx.graph.dispatch_targets(lam):
            yield target

    for site in sorted(ctx.graph.exec_callsites,
                       key=lambda s: (s.file, s.line)):
        for lam in site.lambdas:
            chunk_param = lam.first_param or "chunk"
            constructs = sorted(
                ((body.file, con) for body in bodies(lam)
                 for con in body.constructs),
                key=lambda fc: (fc[0], fc[1].line))
            for path, con in constructs:
                if con.last not in ENGINE_LASTS:
                    continue
                if ctx.sanctioned(path, con.line, NAME):
                    continue
                arg_lasts = _lasts(con.arg_idents)
                if any(a in FACTORY_LASTS for a in arg_lasts):
                    continue  # chunk_seed(...) / task_seed(...) derivation
                if "rng" in arg_lasts and chunk_param in con.arg_idents:
                    continue  # copy of chunk.rng() stream
                if any(a in THREAD_IDENTITY for a in arg_lasts):
                    emit(path, con.line,
                         f"'{con.type_name}' inside a {site.primitive} "
                         "chunk callback is seeded from thread identity — "
                         "output then depends on the thread count; seed "
                         f"from {chunk_param}.rng() or "
                         "chunk_seed/task_seed instead")
                    continue
                emit(path, con.line,
                     f"'{con.type_name}' constructed inside a "
                     f"{site.primitive} chunk callback without a "
                     "chunk-seeded stream — the seed expression must flow "
                     f"through {chunk_param}.rng(), chunk_seed(), or "
                     "task_seed() so a fixed seed stays bit-identical at "
                     "any thread count (sanction a deliberate exception "
                     "with 'analyzer-ok(rng-determinism): <why>')")
    return diags
