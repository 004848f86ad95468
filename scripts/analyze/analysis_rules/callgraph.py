"""Cross-translation-unit call-graph model and the portable frontend.

The semantic analyzer's rules all consume one data model — functions with
qualified names, the calls/constructs inside their bodies, lambdas passed
at exec call sites — built by whichever frontend is available:

  - the libclang frontend (frontend_libclang.py) parses the real AST from
    compile_commands.json when the clang Python bindings + shared library
    are installed: exact overload resolution, template instantiation;
  - this module's *internal* frontend is a token-level C++ parser with no
    dependencies beyond checklib's lexer. It tracks namespace/class scope,
    matches braces, and extracts definitions, call edges, object
    constructions, and lambda bodies. Name resolution is conservative
    (suffix / last-component matching), which over-approximates the call
    graph — the safe direction for the reachability proofs built on it.

Both produce the same :class:`CallGraph`, so every rule runs identically
under either frontend.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from checklib import SourceTree, Token  # noqa: E402

#: C++ keywords and keyword-like tokens that can precede '(' without being
#: a call. static_cast & friends carry template args, so the plain
#: ident+'(' adjacency already skips them; they are listed for safety.
_NOT_CALLS = frozenset({
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "alignas", "typeid", "decltype", "noexcept", "static_assert",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "throw", "new", "delete", "co_await", "co_return", "co_yield",
    "requires", "explicit", "operator", "defined", "assert",
})

#: Tokens that may legally sit between a ')' and the '{' of a function
#: body (besides the member-initializer list, handled separately).
_FN_QUALIFIERS = frozenset({
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "throw", "&", "&&", "try",
})

#: Tokens after which a '[' starts a lambda rather than a subscript.
_LAMBDA_PREDECESSORS = frozenset({
    "(", ",", "{", "=", ";", "return", "<", ">", "&&", "||", "!", "?", ":",
    "+", "-", "*", "/", "%", "==", "!=", "<=", ">=", "&", "|", "^", "}",
})

#: Exec-layer parallel primitives whose trailing callable arguments are
#: chunk callbacks subject to the purity and RNG-determinism contracts.
EXEC_PRIMITIVES = ("for_chunks", "collect", "reduce")


@dataclasses.dataclass(frozen=True)
class CallRef:
    """One call expression: the name as written, where, and the identifier
    tokens appearing (at any depth) inside its argument list."""

    name: str
    line: int
    kind: str  # "call" | "member"
    arg_idents: tuple = ()
    #: Member calls: the identifier the call is made on (`p` in
    #: `p.propose(...)`), "" when the receiver is an expression.
    receiver: str = ""

    @property
    def last(self) -> str:
        return self.name.rsplit("::", 1)[-1]


@dataclasses.dataclass(frozen=True)
class ConstructRef:
    """An object construction / allocation-like construct: `Type name(...)`,
    `Type{...}`, `new ...`, `throw ...`, or a `static` local of class type."""

    type_name: str  # "new" / "throw" are pseudo-types
    line: int
    arg_idents: tuple = ()
    is_static: bool = False

    @property
    def last(self) -> str:
        return self.type_name.rsplit("::", 1)[-1]


@dataclasses.dataclass
class LambdaBody:
    """A lambda literal: its location, first parameter name (the chunk
    handle for exec callbacks), and the calls/constructs inside it —
    nested lambdas flattened in, since the contracts are transitive."""

    file: str
    line: int
    first_param: str = ""
    params: tuple = ()
    calls: list = dataclasses.field(default_factory=list)
    constructs: list = dataclasses.field(default_factory=list)
    lambdas: list = dataclasses.field(default_factory=list)
    token_start: int = 0
    #: Inherited from the enclosing function (see FunctionDef).
    dispatch_params: tuple = ()


@dataclasses.dataclass
class FunctionDef:
    """One function definition (free function, method, or constructor)."""

    qname: str
    file: str
    line: int
    params: tuple = ()
    calls: list = dataclasses.field(default_factory=list)
    constructs: list = dataclasses.field(default_factory=list)
    lambdas: list = dataclasses.field(default_factory=list)
    #: Parameters whose type is one of the function template's own type
    #: parameters (`Proposal proposal` in `template <class Proposal>`): a
    #: member call on one may reach the same-named method of ANY class.
    dispatch_params: tuple = ()

    @property
    def name(self) -> str:
        return self.qname.rsplit("::", 1)[-1]


@dataclasses.dataclass
class ExecCallSite:
    """One call to an exec primitive, with the lambda(s) passed to it."""

    file: str
    line: int
    primitive: str
    lambdas: list = dataclasses.field(default_factory=list)


class CallGraph:
    """Functions indexed for conservative name resolution, plus the exec
    call sites the kernel-facing rules analyze."""

    def __init__(self):
        self.functions: list[FunctionDef] = []
        self.by_qname: dict[str, list[FunctionDef]] = {}
        self.by_last: dict[str, list[FunctionDef]] = {}
        self.exec_callsites: list[ExecCallSite] = []
        self.frontend = "internal"

    def add(self, fn: FunctionDef) -> None:
        self.functions.append(fn)
        self.by_qname.setdefault(fn.qname, []).append(fn)
        self.by_last.setdefault(fn.name, []).append(fn)

    def resolve(self, name: str) -> list[FunctionDef]:
        """Project definitions a call by `name` may reach. Qualified names
        match by suffix; bare/member names by last component. std:: and
        other foreign qualifications resolve to nothing (external)."""
        norm = name[2:] if name.startswith("::") else name
        if norm.startswith("std::"):
            return []
        if "::" in norm:
            exact = self.by_qname.get(norm)
            if exact:
                return exact
            suffix = "::" + norm
            return [fn for fns in self.by_qname.values() for fn in fns
                    if fns[0].qname.endswith(suffix)]
        return self.by_last.get(norm, [])

    def dispatch_targets(self, body):
        """(call, target) for each member call `body` makes on a
        template-dispatch parameter — the policy calls of a template such
        as run_swap_chain<Proposal>. Every same-named definition is a
        possible instantiation, so all are returned: the token frontend
        cannot pick the instantiation, and the contracts must hold for
        each."""
        receivers = getattr(body, "dispatch_params", ())
        for call in body.calls:
            if call.kind == "member" and call.receiver in receivers:
                for target in self.resolve(call.name):
                    yield call, target

    def resolve_scoped(self, name: str, caller_qname: str):
        """Like :meth:`resolve`, but a *bare* name called from inside a
        class scope resolves to that class's own member when one exists —
        ``next()`` inside ``Xoshiro256ss::uniform_open`` means
        ``Xoshiro256ss::next``, not every project function named next."""
        if "::" not in name and "::" in caller_qname:
            scope = caller_qname.rsplit("::", 1)[0]
            own = self.by_qname.get(scope + "::" + name)
            if own:
                return own
        return self.resolve(name)


def _skip_matched(tokens, i, open_tok, close_tok):
    """Index just past the bracket run opened at tokens[i]."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if tokens[i].kind == "punct":
            if v == open_tok:
                depth += 1
            elif v == close_tok:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _skip_template_args(tokens, i):
    """From tokens[i] == '<', index just past the matching '>'. Returns
    None when the run doesn't look like template arguments (comparison)."""
    depth = 0
    n = len(tokens)
    j = i
    while j < n and j - i < 64:
        t = tokens[j]
        if t.kind == "punct":
            if t.value == "<":
                depth += 1
            elif t.value == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t.value == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif t.value in (";", "{", "}", "&&", "||"):
                return None
        j += 1
    return None


def _idents_in(tokens, start, end):
    return tuple(t.value for t in tokens[start:end] if t.kind == "ident")


def _param_names(tokens, start, end):
    """Declared names of a parameter list, one per comma-separated group:
    the last identifier of each group — `(const exec::Chunk& chunk,
    EdgeList& mine)` -> ('chunk', 'mine'). Unnamed parameters yield their
    type's last component, which is harmless for the callers (the names
    are used to recognize callback-parameter invocations)."""
    names = []
    last = ""
    depth = 0
    for t in tokens[start:end]:
        if t.kind == "punct":
            if t.value in ("(", "[", "{", "<"):
                depth += 1
            elif t.value in (")", "]", "}", ">"):
                depth -= 1
            elif t.value == "," and depth == 0:
                if last:
                    names.append(last.rsplit("::", 1)[-1])
                last = ""
        elif t.kind == "ident" and depth == 0:
            last = t.value
    if last:
        names.append(last.rsplit("::", 1)[-1])
    return tuple(names)


def _template_type_params(tokens, start, end):
    """Names declared `class X` / `typename X` in a template header span."""
    names = []
    for k in range(start, end - 1):
        if tokens[k].value in ("class", "typename") and \
                tokens[k + 1].kind == "ident":
            names.append(tokens[k + 1].value)
    return tuple(names)


def _dispatch_params(tokens, start, end, type_params):
    """Parameter names in [start, end) whose top-level type names one of
    `type_params` — `(Proposal proposal, const Proposal& p)`."""
    if not type_params:
        return ()
    names = []
    group = []
    depth = 0
    for t in list(tokens[start:end]) + [None]:
        if t is None or (t.kind == "punct" and t.value == "," and
                         depth == 0):
            idents = [g.value for g in group]
            if len(idents) >= 2 and any(
                    ident.split("::", 1)[0] in type_params
                    for ident in idents[:-1]):
                names.append(idents[-1])
            group = []
            continue
        if t.kind == "punct":
            if t.value in ("(", "[", "{", "<"):
                depth += 1
            elif t.value in (")", "]", "}", ">"):
                depth -= 1
        elif t.kind == "ident" and depth == 0:
            group.append(t)
    return tuple(names)


def _first_param_name(tokens, start, end):
    """Declared name of the first parameter —
    `(const exec::Chunk& chunk, EdgeList& mine)` -> 'chunk'."""
    names = _param_names(tokens, start, end)
    return names[0] if names else ""


class _Parser:
    """Token-level parser for one file: scope tracking + body extraction."""

    def __init__(self, source_file, graph: CallGraph):
        self.f = source_file
        self.tokens = source_file.tokens()
        self.graph = graph
        # Type parameters of the template header just parsed; consumed by
        # the next declaration.
        self.template_params = ()

    # ---- scope level ----------------------------------------------------

    def parse(self):
        self._scope(0, len(self.tokens), ())

    def _scope(self, i, end, scope):
        tokens = self.tokens
        while i < end:
            t = tokens[i]
            if t.kind == "pp":
                i += 1
                continue
            v = t.value
            if t.kind == "ident":
                if v == "namespace":
                    i = self._namespace(i, end, scope)
                    continue
                if v in ("class", "struct"):
                    self.template_params = ()
                    i = self._class(i, end, scope)
                    continue
                if v == "enum":
                    i = self._skip_braced_decl(i, end)
                    continue
                if v == "template":
                    i += 1
                    if i < end and tokens[i].value == "<":
                        skipped = _skip_template_args(tokens, i)
                        if skipped is not None:
                            self.template_params = _template_type_params(
                                tokens, i + 1, skipped - 1)
                        i = skipped if skipped is not None else i + 1
                    continue
                if v == "using" or v == "typedef" or v == "friend":
                    self.template_params = ()
                    while i < end and tokens[i].value != ";":
                        i += 1
                    continue
                if v == "operator":
                    i = self._operator_def(i, end, scope)
                    continue
                # Candidate function definition: IDENT [<targs>] ( ... )
                nxt = i + 1
                if nxt < end and tokens[nxt].value == "<":
                    past = _skip_template_args(tokens, nxt)
                    if past is not None and past < end and \
                            tokens[past].value == "(":
                        nxt = past
                if nxt < end and tokens[nxt].value == "(":
                    consumed = self._try_function(i, nxt, end, scope)
                    if consumed is not None:
                        i = consumed
                        continue
                    i = _skip_matched(tokens, nxt, "(", ")")
                    continue
                i += 1
                continue
            if v == "{":
                # Brace not owned by a recognized construct (array init,
                # extern "C" block - treat as transparent scope).
                i = self._scope(i + 1, end, scope)
                continue
            if v == "}":
                return i + 1
            i += 1
        return end

    def _namespace(self, i, end, scope):
        tokens = self.tokens
        j = i + 1
        names = []
        while j < end and tokens[j].value not in ("{", ";", "="):
            if tokens[j].kind == "ident":
                names.extend(tokens[j].value.split("::"))
            j += 1
        if j >= end or tokens[j].value != "{":
            return j + 1  # namespace alias / ;
        return self._scope(j + 1, end, scope + tuple(names))

    def _class(self, i, end, scope):
        tokens = self.tokens
        j = i + 1
        name = None
        while j < end and tokens[j].value not in ("{", ";"):
            if tokens[j].kind == "ident" and name is None and \
                    tokens[j].value not in ("final", "alignas"):
                name = tokens[j].value
            j += 1
        if j >= end or tokens[j].value != "{":
            return j + 1  # forward declaration
        inner_scope = scope + ((name,) if name else ())
        return self._scope(j + 1, end, inner_scope)

    def _skip_braced_decl(self, i, end):
        tokens = self.tokens
        j = i
        while j < end and tokens[j].value not in ("{", ";"):
            j += 1
        if j < end and tokens[j].value == "{":
            j = _skip_matched(tokens, j, "{", "}")
        return j

    def _operator_def(self, i, end, scope):
        # `operator<op>(params)...{` — consume the operator token run up to
        # the parameter list, then share the function machinery.
        tokens = self.tokens
        j = i + 1
        # operator() and operator[] carry their brackets before the params.
        if j < end and tokens[j].value == "(" and j + 1 < end and \
                tokens[j + 1].value == ")":
            j += 2
        else:
            while j < end and tokens[j].kind == "punct" and \
                    tokens[j].value != "(":
                j += 1
        if j >= end or tokens[j].value != "(":
            return j
        consumed = self._try_function(i, j, end, scope, name="operator")
        if consumed is not None:
            return consumed
        return _skip_matched(tokens, j, "(", ")")

    def _try_function(self, name_i, paren_i, end, scope, name=None):
        """Parse a function definition whose name token is at name_i and
        parameter '(' at paren_i. Returns the index past the body, or None
        when this is not a definition (declaration, macro use, ...)."""
        tokens = self.tokens
        fn_name = name if name is not None else tokens[name_i].value
        after_params = _skip_matched(tokens, paren_i, "(", ")")
        type_params, self.template_params = self.template_params, ()
        j = after_params
        seen_init_list = False
        while j < end:
            t = tokens[j]
            v = t.value
            if v == ";" or v == ",":
                return None  # declaration / declarator list
            if v == "=":
                # = default / = delete / an initializer -> not a body.
                return None
            if v == "{":
                body_fn = FunctionDef(
                    qname="::".join(scope + tuple(fn_name.split("::"))),
                    file=self.f.path, line=tokens[name_i].line,
                    params=_param_names(tokens, paren_i + 1,
                                        after_params - 1),
                    dispatch_params=_dispatch_params(
                        tokens, paren_i + 1, after_params - 1, type_params))
                end_i = self._body(j + 1, end, body_fn)
                self.graph.add(body_fn)
                self._attach_exec_lambdas(body_fn)
                return end_i
            if v == ":" and not seen_init_list:
                j = self._member_init_list(j + 1, end)
                seen_init_list = True
                continue
            if v == "->":
                # Trailing return type: skip to the body brace or ';'.
                j += 1
                while j < end and tokens[j].value not in ("{", ";"):
                    if tokens[j].value == "(":
                        j = _skip_matched(tokens, j, "(", ")")
                    elif tokens[j].value == "<":
                        past = _skip_template_args(tokens, j)
                        j = past if past is not None else j + 1
                    else:
                        j += 1
                continue
            if t.kind == "ident" and v in _FN_QUALIFIERS or \
                    t.kind == "punct" and v in _FN_QUALIFIERS:
                if v == "noexcept" or v == "throw":
                    j += 1
                    if j < end and tokens[j].value == "(":
                        j = _skip_matched(tokens, j, "(", ")")
                    continue
                j += 1
                continue
            if t.kind == "ident" and v.isupper() is False and \
                    v in ("requires",):
                return None
            # Attribute macros like NG_ACQUIRE(mutex) between ')' and '{'.
            if t.kind == "ident":
                j += 1
                if j < end and tokens[j].value == "(":
                    j = _skip_matched(tokens, j, "(", ")")
                continue
            return None
        return None

    def _member_init_list(self, i, end):
        """Skip `member(expr), member{expr}, ...` up to the body '{'."""
        tokens = self.tokens
        j = i
        while j < end:
            v = tokens[j].value
            if v == "(":
                j = _skip_matched(tokens, j, "(", ")")
            elif v == "{":
                # Brace-init of a member, ONLY when directly preceded by an
                # identifier (`a_{1}`); otherwise it is the body.
                if j > i and tokens[j - 1].kind == "ident" and \
                        tokens[j - 1].value not in _FN_QUALIFIERS:
                    j = _skip_matched(tokens, j, "{", "}")
                else:
                    return j
            elif v == ",":
                j += 1
            elif tokens[j].kind == "ident" or v in ("::", "...", "<", ">"):
                j += 1
            else:
                return j
        return j

    # ---- body level -----------------------------------------------------

    def _body(self, i, end, sink):
        """Walk a function/lambda body from just after its '{'; record
        calls, constructs and lambdas into `sink`; return index past '}'."""
        tokens = self.tokens
        depth = 1
        while i < end:
            t = tokens[i]
            v = t.value
            if t.kind == "punct":
                if v == "{":
                    depth += 1
                elif v == "}":
                    depth -= 1
                    if depth == 0:
                        return i + 1
                elif v == "[" and self._starts_lambda(i):
                    i = self._lambda(i, end, sink)
                    continue
                i += 1
                continue
            if t.kind == "pp":
                i += 1
                continue
            # ident / number
            if t.kind == "ident":
                if v == "new":
                    sink.constructs.append(ConstructRef("new", t.line))
                    i += 1
                    continue
                if v == "throw":
                    sink.constructs.append(ConstructRef("throw", t.line))
                    i += 1
                    continue
                if v == "static":
                    i = self._static_decl(i, end, sink)
                    continue
                nxt = i + 1
                # Copy-init declaration `Type name = expr;`: a
                # construction of Type. The initializer tokens are NOT
                # consumed, so calls inside it are still recorded.
                if nxt + 1 < end and tokens[nxt].kind == "ident" and \
                        "::" not in tokens[nxt].value and \
                        tokens[nxt + 1].value == "=" and \
                        v not in _NOT_CALLS and \
                        v not in ("return", "else", "auto", "case",
                                  "using", "typedef", "goto"):
                    j = nxt + 2
                    stop = min(end, j + 50)
                    while j < stop and tokens[j].value not in (";", "{"):
                        j += 1
                    sink.constructs.append(ConstructRef(
                        v, t.line, _idents_in(tokens, nxt + 2, j)))
                    i += 1
                    continue
                # Template args between a name and its '(': call or
                # construct with explicit arguments.
                call_paren = None
                if nxt < end and tokens[nxt].value == "<":
                    past = _skip_template_args(tokens, nxt)
                    if past is not None and past < end and \
                            tokens[past].value in ("(", "{"):
                        call_paren = past
                elif nxt < end and tokens[nxt].value in ("(", "{"):
                    call_paren = nxt
                if call_paren is None or v in _NOT_CALLS:
                    i += 1
                    continue
                open_tok = tokens[call_paren].value
                close_tok = ")" if open_tok == "(" else "}"
                args_end = _skip_matched(tokens, call_paren, open_tok,
                                         close_tok)
                arg_idents = _idents_in(tokens, call_paren + 1, args_end - 1)
                prev = tokens[i - 1] if i > 0 else None
                if prev is not None and prev.kind == "punct" and \
                        prev.value in (".", "->"):
                    receiver = tokens[i - 2].value if i > 1 and \
                        tokens[i - 2].kind == "ident" else ""
                    sink.calls.append(CallRef(v, t.line, "member",
                                              arg_idents, receiver))
                elif prev is not None and self._is_type_position(i):
                    # `Type name(args)` / `Type name{args}` declaration:
                    # a construction of Type, not a call of `name`.
                    type_name = self._type_before(i)
                    sink.constructs.append(
                        ConstructRef(type_name, t.line, arg_idents))
                elif open_tok == "(":
                    sink.calls.append(CallRef(v, t.line, "call", arg_idents))
                else:
                    # `Type{...}` braced temporary.
                    sink.constructs.append(
                        ConstructRef(v, t.line, arg_idents))
                # Continue INSIDE the argument list so nested calls and
                # lambdas are recorded too.
                i += 1
                continue
            i += 1
        return end

    def _starts_lambda(self, i):
        if i == 0:
            return True
        prev = self.tokens[i - 1]
        if prev.kind == "punct":
            return prev.value in _LAMBDA_PREDECESSORS
        return prev.kind == "ident" and prev.value in ("return", "case")

    def _lambda(self, i, end, sink):
        """Parse a lambda literal starting at '['; flatten its contents
        into `sink` AND record it as a LambdaBody on the sink."""
        tokens = self.tokens
        after_capture = _skip_matched(tokens, i, "[", "]")
        j = after_capture
        params = ()
        if j < end and tokens[j].value == "<":  # template lambda
            past = _skip_template_args(tokens, j)
            j = past if past is not None else j
        if j < end and tokens[j].value == "(":
            params_end = _skip_matched(tokens, j, "(", ")")
            params = _param_names(tokens, j + 1, params_end - 1)
            j = params_end
        while j < end and tokens[j].value not in ("{", ";", ")"):
            if tokens[j].value == "(":
                j = _skip_matched(tokens, j, "(", ")")
            else:
                j += 1
        if j >= end or tokens[j].value != "{":
            return after_capture  # not a lambda after all (array literal?)
        lam = LambdaBody(file=self.f.path, line=tokens[i].line,
                         first_param=params[0] if params else "",
                         params=params, token_start=i,
                         dispatch_params=sink.dispatch_params)
        end_i = self._body(j + 1, end, lam)
        sink.lambdas.append(lam)
        # Flatten: the enclosing body "reaches" everything the lambda does,
        # so reachability walks never have to recurse into lambda nests.
        sink.calls.extend(lam.calls)
        sink.constructs.extend(lam.constructs)
        return end_i

    def _static_decl(self, i, end, sink):
        """`static Type name...` — record the declared type so the
        signal-safety rule can reason about guard-acquiring initializers."""
        tokens = self.tokens
        j = i + 1
        while j < end and tokens[j].kind == "ident" and \
                tokens[j].value in ("const", "constexpr", "thread_local",
                                    "inline", "unsigned", "signed"):
            j += 1
        if j < end and tokens[j].kind == "ident":
            type_name = tokens[j].value
            sink.constructs.append(
                ConstructRef(type_name, tokens[i].line, is_static=True))
        return i + 1

    def _is_type_position(self, i):
        """tokens[i] is a declared name when the previous token run is a
        type: `Xoshiro256ss rng(` or `std::vector<Edge> out(`."""
        prev = self.tokens[i - 1]
        if prev.kind == "ident":
            return prev.value not in _NOT_CALLS and \
                prev.value not in ("return", "else", "do", "case", "goto",
                                   "co_return", "and", "or", "not")
        if prev.kind == "punct" and prev.value in (">", "&", "*"):
            # `std::vector<Edge> out(`, `Type& ref(`, `Type* p(` — only a
            # type position when an identifier heads the run; good enough
            # for the construct detection the rules rely on.
            return self._type_before(i) != ""
        return False

    def _type_before(self, i):
        """The type name ending just before the declared name at i."""
        tokens = self.tokens
        j = i - 1
        while j >= 0 and tokens[j].kind == "punct" and \
                tokens[j].value in ("&", "*", "&&"):
            j -= 1
        if j >= 0 and tokens[j].kind == "punct" and tokens[j].value == ">":
            depth = 0
            while j >= 0:
                v = tokens[j].value
                if tokens[j].kind == "punct":
                    if v in (">", ">>"):
                        depth += 2 if v == ">>" else 1
                    elif v == "<":
                        depth -= 1
                        if depth == 0:
                            j -= 1
                            break
                j -= 1
        if j >= 0 and tokens[j].kind == "ident":
            return tokens[j].value
        return ""

    # ---- exec call sites ------------------------------------------------

    def _attach_exec_lambdas(self, fn: FunctionDef):
        """Pair each exec-primitive call in `fn` with the lambdas defined
        inside its argument span, producing ExecCallSite records."""
        for call in fn.calls:
            last = call.last
            if last not in EXEC_PRIMITIVES:
                continue
            if not (call.name.startswith(("exec::", "::exec::",
                                          "nullgraph::exec::"))
                    or last == call.name):
                continue
            site = ExecCallSite(file=fn.file, line=call.line, primitive=last)
            for lam in fn.lambdas:
                # A lambda belongs to the nearest preceding primitive call
                # on/after the call line; spans are approximated by lines,
                # which is exact for the project style (one exec call per
                # statement).
                if lam.line >= call.line and self._owned_by(call, lam, fn):
                    site.lambdas.append(lam)
            if site.lambdas:
                self.graph.exec_callsites.append(site)

    def _owned_by(self, call, lam, fn):
        """The lambda's nearest preceding exec call is `call`."""
        best = None
        for other in fn.calls:
            if other.last in EXEC_PRIMITIVES and other.line <= lam.line:
                if best is None or other.line > best.line:
                    best = other
        return best is call


def build_call_graph(tree: SourceTree) -> CallGraph:
    """Internal-frontend entry point: parse every file in the tree."""
    graph = CallGraph()
    for f in tree.files:
        _Parser(f, graph).parse()
    return graph
