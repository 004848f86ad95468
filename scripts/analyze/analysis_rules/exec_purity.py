"""Exec-kernel purity: chunk callbacks must not block.

Callbacks handed to the exec primitives (``for_chunks``/``collect``/
``reduce``) run inside governed OpenMP loops whose scheduling and
performance model assume pure CPU work: per-chunk RNG streams, dynamic
chunk scheduling, <3% dispatch overhead (bench_backends), and the alias-
table/SIMD work planned on top (Hübschle-Schneider & Sanders,
arXiv:1905.03525) all die the moment a chunk body blocks on I/O or a
lock. The line lints confine *where* I/O lives (io-confinement); this
rule proves the *dynamic* property: nothing blocking is reachable from
any chunk callback, however many calls deep.

Exceptions are sanctioned at the call site — the offending line (or the
line above) must carry ``analyzer-ok(exec-purity): <reason>`` — or by
routing through a shim listed in SANCTIONED_SHIMS (none today; spill and
obs interactions happen per-shard/per-phase in the orchestration layer,
outside the chunk callbacks, and the rule keeps it that way).
"""

from __future__ import annotations

from . import base
from .callgraph import EXEC_PRIMITIVES as base_EXEC_PRIMITIVES

NAME = "exec-purity"
DESCRIPTION = ("chunk callbacks passed to exec primitives must not reach "
               "blocking I/O or lock acquisition")

#: Calls that block (I/O, sleeping, socket waits, lock acquisition).
BLOCKING_CALLS = {
    "fopen": "file I/O", "fclose": "file I/O", "fread": "file I/O",
    "fwrite": "file I/O", "fprintf": "file I/O", "fscanf": "file I/O",
    "fgets": "file I/O", "fputs": "file I/O", "fflush": "file I/O",
    "open": "file I/O", "read": "file I/O", "write": "file I/O",
    "close": "file I/O", "fsync": "file I/O", "fdatasync": "file I/O",
    "rename": "file I/O", "pread": "file I/O", "pwrite": "file I/O",
    "sleep": "sleeping", "usleep": "sleeping", "nanosleep": "sleeping",
    "sleep_for": "sleeping", "sleep_until": "sleeping",
    "poll": "socket wait", "select": "socket wait",
    "epoll_wait": "socket wait", "accept": "socket wait",
    "recv": "socket wait", "recvfrom": "socket wait",
    "send": "socket wait", "sendto": "socket wait",
    "connect": "socket wait",
    "lock": "lock acquisition", "pthread_mutex_lock": "lock acquisition",
    "wait": "condition wait", "wait_for": "condition wait",
    "wait_until": "condition wait",
}

#: RAII lock types: constructing one IS acquiring.
LOCK_TYPE_LASTS = frozenset({
    "MutexLock", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
})

#: Stream types: constructing one opens a file.
STREAM_TYPE_LASTS = frozenset({"ifstream", "ofstream", "fstream"})

#: Project functions a callback MAY call even though their cone contains
#: blocking operations — each entry is a deliberate, documented exception
#: (qualified-name suffix). Empty today: keep it that way if you can.
SANCTIONED_SHIMS: frozenset = frozenset()


def _is_shim(qname: str) -> bool:
    return any(qname == s or qname.endswith("::" + s)
               for s in SANCTIONED_SHIMS)


def check(ctx):
    graph = ctx.graph
    diags = []
    seen = set()

    def emit(path, line, message):
        key = (path, line, message)
        if key not in seen:
            seen.add(key)
            diags.append(base.Diagnostic(path, line, NAME, message))

    def scan(body, site, chain, visited):
        """body: LambdaBody or FunctionDef; site: the exec call site."""
        for con in sorted(body.constructs, key=lambda c: c.line):
            bad = None
            if con.last in LOCK_TYPE_LASTS:
                bad = f"lock '{con.type_name}' acquired"
            elif con.last in STREAM_TYPE_LASTS:
                bad = f"file stream '{con.type_name}' opened"
            if bad is None:
                continue
            if ctx.sanctioned(con_file(body), con.line, NAME):
                continue
            where = (f" (reached via {base.chain_str(chain)})"
                     if chain else "")
            emit(con_file(body), con.line,
                 f"{bad} inside a {site.primitive} chunk callback"
                 f"{where} — chunk bodies must not block; hoist it to the "
                 "orchestration layer or sanction the line with "
                 "'analyzer-ok(exec-purity): <why>'")
        params = frozenset(getattr(body, "params", ()) or ())
        qname = getattr(body, "qname", "")
        for call in sorted(body.calls, key=lambda c: (c.line, c.name)):
            last = call.last
            if last in BLOCKING_CALLS:
                if ctx.sanctioned(con_file(body), call.line, NAME):
                    continue
                where = (f" (reached via {base.chain_str(chain)})"
                         if chain else "")
                emit(con_file(body), call.line,
                     f"'{call.name}' ({BLOCKING_CALLS[last]}) inside a "
                     f"{site.primitive} chunk callback{where} — chunk "
                     "bodies must not block; hoist it to the orchestration "
                     "layer or sanction the line with "
                     "'analyzer-ok(exec-purity): <why>'")
                continue
            if call.name in params:
                # Invoking a callback parameter (`emit(t)` inside
                # traverse): the actual callable was analyzed where it was
                # written; resolving the parameter NAME to homonymous
                # project functions only fabricates paths.
                continue
            if last in base_EXEC_PRIMITIVES:
                # The primitives' own bookkeeping (phase-timing lock after
                # the parallel region) is the orchestration layer by
                # definition; their callback arguments are analyzed as
                # exec call sites in their own right.
                continue
            targets = graph.resolve_scoped(call.name, qname)
            dispatch = call.receiver in getattr(body, "dispatch_params", ())
            if call.kind == "member" and len(targets) > 1 and not dispatch:
                # A member call with several same-named candidates and no
                # receiver type at token level: traversing all of them
                # would make every `.record()`/`.size()` reach every
                # class's homonym. Precision over a fabricated chain. A
                # call on a template-dispatch parameter (a swap-chain
                # policy) is the exception: every candidate is a possible
                # instantiation, so every one is traversed.
                continue
            for target in sorted(targets, key=lambda t: (t.file, t.line)):
                if _is_shim(target.qname) or id(target) in visited:
                    continue
                visited.add(id(target))
                scan(target, site, chain + (target.name,), visited)

    def con_file(body):
        return getattr(body, "file")

    for site in sorted(graph.exec_callsites,
                       key=lambda s: (s.file, s.line)):
        for lam in site.lambdas:
            scan(lam, site, (), set())
    return diags
