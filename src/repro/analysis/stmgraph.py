"""Whole-program channel-graph analysis (rules STM501-506).

Where the ``protolint`` pass (:func:`repro.analysis.absint.check_protocol`)
reasons about one function at a time, this pass extracts a **channel
dataflow graph** for the whole scanned program and checks properties that
only exist at the graph level — the
paper's global guarantees (GC advances only past items every attached input
has consumed, §4; bounded channels make put/get a blocking protocol whose
safety is a topology property, not a scope property).

The pass runs in three phases:

1. **Summaries.**  Every function (module bodies, methods, nested closures)
   is summarized: channel bindings (``stm.create_channel("name",
   capacity=N)`` / ``stm.lookup("name")``, names resolved through
   module-level constants), attach sites (input/output, including
   ``with attach(...) as conn:`` aliasing and attaches on channel-valued
   *parameters*), put/get/consume/consume_until/detach operations with
   blocking flags and literal/parameter timestamps, spawn edges
   (``space.spawn(fn, ...)``, ``threading.Thread(target=fn)``), held-lock
   context, and call sites with the connection/channel/int arguments they
   forward.

2. **Linking.**  Summaries are propagated through the call graph: a helper
   that consumes its connection parameter discharges the caller's
   obligation; a helper that attaches to its channel parameter creates an
   attach site for every calling thread; blocking STM behaviour and
   timestamp-parameter puts flow back to call sites.  Thread roots are the
   spawn targets plus uncalled entry functions; each root's transitive
   attach sites become the graph's put/get edges.

3. **Rules.**  STM501 bounded-channel wait cycle, STM502 interprocedural
   GC starvation, STM503 orphan producer, STM504 cross-procedure timestamp
   regression, STM505 blocking STM call under a runtime lock, STM506
   wall-clock sleep on an STM kernel path (fatal to the asyncio runtime,
   where ``time.sleep`` parks the whole event loop).

The extracted :class:`ChannelGraph` is also an artifact in its own right:
``--format json|dot`` exports the topology (threads as boxes, channels as
ellipses), and :meth:`ChannelGraph.placement_model` seeds
:mod:`repro.runtime.placement` with the statically discovered stage chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = [
    "ChannelGraph",
    "ThreadNode",
    "ChannelNode",
    "GraphEdge",
    "extract_graph",
    "check_channel_graph",
]

# ----------------------------------------------------------------------
# vocabulary (kept in sync with absint.cfg's)
# ----------------------------------------------------------------------
_ATTACH_INPUT = {"attach_input", "spd_attach_input_channel"}
_ATTACH_OUTPUT = {"attach_output", "spd_attach_output_channel"}
_GET = {"get", "get_consume", "spd_channel_get_item"}
_CONSUME = {
    "consume",
    "consume_until",
    "get_consume",
    "spd_channel_consume_item",
    "spd_channel_consume_items_until",
}
_PUT = {"put", "spd_channel_put_item"}
_DETACH = {"detach", "spd_detach_channel"}
_CHANNEL_MAKERS = {"create_channel"}
_CHANNEL_FINDERS = {"lookup", "lookup_channel"}
_SPAWNERS = {"spawn"}
#: get-request wildcard spellings that mark a ``.get`` as an STM get (and
#: not, say, ``dict.get``) when the receiver is otherwise ambiguous.
_WILDCARDS = {
    "STM_LATEST",
    "STM_OLDEST",
    "STM_LATEST_UNSEEN",
    "STM_OLDEST_UNSEEN",
}

_Path = tuple[tuple[int, int], ...]


def _lock_like(expr: ast.expr) -> str | None:
    """The runtime's lock naming convention (shared with lockcheck)."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return None
    if name == "lock" or name.endswith("_lock") or name.endswith("_locks"):
        return name
    return None


# ----------------------------------------------------------------------
# per-function summary model
# ----------------------------------------------------------------------
#: how a channel's capacity is known: ("bounded", n) | "unbounded" | "unknown"
_Cap = tuple


@dataclass
class _ConnDecl:
    """One attach site binding a local variable to a connection."""

    var: str
    direction: str                      # "input" | "output"
    #: resolved channel key, ("param", idx) for parameter channels, or None
    channel: object
    line: int
    escaped: bool = False


@dataclass
class _Op:
    kind: str                           # put | get | consume | detach | lookup_wait
    #: ("conn", var) | ("param", idx) — what the op acts on
    target: tuple
    line: int
    path: _Path
    blocking: bool = True
    ts_literal: int | None = None
    ts_param: int | None = None
    lock: str | None = None


@dataclass
class _CallSite:
    callee: str
    line: int
    path: _Path
    lock: str | None
    #: arg position -> ("conn", var) | ("chan", key) | ("int", value)
    args: dict[int, tuple] = field(default_factory=dict)


@dataclass
class _ParamAttach:
    """``def f(chan): inp = chan.attach_input()`` — instantiated per caller."""

    param: int
    direction: str
    line: int
    conn_var: str | None                # local var the connection binds to


@dataclass
class _Summary:
    """Everything the linker needs to know about one function."""

    module: str                         # display path of the defining file
    file: str
    qualname: str
    name: str
    line: int
    is_async: bool = False
    params: list[str] = field(default_factory=list)
    #: wall-clock ``time.sleep`` call sites (lines) in this scope
    sleeps: list[int] = field(default_factory=list)
    conns: dict[str, _ConnDecl] = field(default_factory=dict)
    channels: dict[str, str] = field(default_factory=dict)   # var -> key
    creates: dict[str, _Cap] = field(default_factory=dict)   # key -> capacity
    create_lines: dict[str, int] = field(default_factory=dict)
    ops: list[_Op] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)
    spawns: list[tuple[str, int]] = field(default_factory=list)
    param_attaches: list[_ParamAttach] = field(default_factory=list)
    #: params that behave like connections (have STM ops on them)
    conn_params: set[int] = field(default_factory=set)

    @property
    def id(self) -> str:
        return f"{self.module}::{self.qualname}"

    @property
    def label(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def _terminates(stmts: list[ast.stmt], from_index: int) -> bool:
    return any(
        isinstance(s, (ast.Break, ast.Continue, ast.Return, ast.Raise))
        for s in stmts[from_index:]
    )


class _FuncWalker:
    """Build the summary of one scope (statement-path order preserved)."""

    def __init__(
        self,
        body: list[ast.stmt],
        summary: _Summary,
        consts: dict[str, object],
        parent: "_FuncWalker | None" = None,
        sleep_aliases: tuple[set[str], set[str]] | None = None,
    ) -> None:
        self.summary = summary
        self.consts = consts
        self.parent = parent
        #: ({module aliases of time}, {bare names bound to time.sleep})
        self.sleep_aliases = sleep_aliases or (set(), set())
        #: (body, qualname, summary-factory args) of nested functions
        self.nested: list[tuple[list[ast.stmt], str, list[str], int, bool]] = []
        self.lists: dict[int, list[ast.stmt]] = {}
        self._recognized: set[int] = set()
        self._locks: list[str] = []
        self._walk_block(body, ())

    # -- ordering: lexical position within a common statement list ---------

    def strictly_precedes(self, a: _Path, b: _Path) -> bool:
        i = 0
        while i < len(a) and i < len(b) and a[i] == b[i]:
            i += 1
        if i == len(a) or i == len(b):
            return False
        (a_list, a_idx), (b_list, b_idx) = a[i], b[i]
        if a_list != b_list or a_idx >= b_idx:
            return False
        for list_id, idx in a[i + 1:]:
            if _terminates(self.lists[list_id], idx):
                return False
        return True

    # -- name resolution helpers ------------------------------------------

    def _const_value(self, expr: ast.expr) -> object:
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Name) and expr.id in self.consts:
            return self.consts[expr.id]
        return None

    def _channel_key_of_call(self, call: ast.Call) -> tuple[str | None, _Cap]:
        """Resolve ``X.create_channel(...)`` / ``X.lookup(...)``."""
        func = call.func
        meth = func.attr if isinstance(func, ast.Attribute) else None
        if meth in _CHANNEL_MAKERS:
            name = None
            if call.args:
                name = self._const_value(call.args[0])
            for kw in call.keywords:
                if kw.arg == "name":
                    name = self._const_value(kw.value)
            cap: _Cap = ("unbounded",)
            for kw in call.keywords:
                if kw.arg == "capacity":
                    value = self._const_value(kw.value)
                    if value is None and isinstance(kw.value, ast.Constant):
                        cap = ("unbounded",)
                    elif isinstance(value, int) and not isinstance(value, bool):
                        cap = ("bounded", value)
                    else:
                        cap = ("unknown",)
            key = name if isinstance(name, str) else None
            return key, cap
        if meth in _CHANNEL_FINDERS:
            name = self._const_value(call.args[0]) if call.args else None
            return (name if isinstance(name, str) else None), ("unknown",)
        return None, ("unknown",)

    def _resolve_channel_expr(self, expr: ast.expr) -> object:
        """Channel key, ("param", idx), or None for a channel-valued expr."""
        if isinstance(expr, ast.Name):
            if expr.id in self.summary.channels:
                return self.summary.channels[expr.id]
            if expr.id in self.summary.params:
                return ("param", self.summary.params.index(expr.id))
            return None
        if isinstance(expr, ast.Call):
            meth = expr.func.attr if isinstance(expr.func, ast.Attribute) else None
            if meth in _CHANNEL_MAKERS | _CHANNEL_FINDERS:
                key, cap = self._channel_key_of_call(expr)
                if key is not None and meth in _CHANNEL_MAKERS:
                    self._record_create(key, cap, expr.lineno)
                return key
        return None

    def _record_create(self, key: str, cap: _Cap, line: int) -> None:
        prior = self.summary.creates.get(key)
        if prior is None or (prior[0] != "bounded" and cap[0] == "bounded"):
            self.summary.creates[key] = cap
            self.summary.create_lines.setdefault(key, line)

    def _attach_direction(self, call: ast.Call) -> str | None:
        func = call.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name in _ATTACH_INPUT:
            return "input"
        if name in _ATTACH_OUTPUT:
            return "output"
        return None

    # -- statement walk ----------------------------------------------------

    def _walk_block(self, stmts: list[ast.stmt], prefix: _Path) -> None:
        self.lists[id(stmts)] = stmts
        for idx, stmt in enumerate(stmts):
            self._walk_stmt(stmt, prefix + ((id(stmts), idx),))

    def _walk_stmt(self, stmt: ast.stmt, path: _Path) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(
                (
                    stmt.body,
                    f"{self.summary.qualname}.{stmt.name}",
                    [a.arg for a in stmt.args.args],
                    stmt.lineno,
                    isinstance(stmt, ast.AsyncFunctionDef),
                )
            )
            return
        if isinstance(stmt, ast.ClassDef):
            return  # class bodies are collected as their own scopes
        if isinstance(stmt, ast.Assign):
            self._handle_assign(stmt.targets, stmt.value, path)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._handle_assign([stmt.target], stmt.value, path)
        held_here = 0
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                lock = _lock_like(item.context_expr)
                if lock is not None:
                    self._locks.append(lock)
                    held_here += 1
                    continue
                ctx = item.context_expr
                if isinstance(ctx, ast.Call):
                    direction = self._attach_direction(ctx)
                    if direction is not None and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        var = item.optional_vars.id
                        self._declare_conn(var, direction, ctx, path)
                        # the context manager detaches on exit
                        self._op("detach", ("conn", var), ctx.lineno, path)
        for node in self._iter_exprs(stmt):
            if isinstance(node, ast.Call):
                self._handle_call(node, path)
        for node in self._iter_exprs(stmt):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in self._recognized
            ):
                self._note_plain_use(node.id)
        for block in self._child_blocks(stmt):
            self._walk_block(block, path)
        if held_here:
            del self._locks[-held_here:]

    def _child_blocks(self, stmt: ast.stmt) -> list[list[ast.stmt]]:
        blocks: list[list[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                blocks.append(block)
        for handler in getattr(stmt, "handlers", []):
            blocks.append(handler.body)
        return blocks

    def _iter_exprs(self, stmt: ast.stmt):
        todo: list[ast.AST] = []
        for fname, value in ast.iter_fields(stmt):
            if fname in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.AST):
                todo.append(value)
            elif isinstance(value, list):
                todo.extend(v for v in value if isinstance(v, ast.AST))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        yield sub
                continue
            yield node
            todo.extend(ast.iter_child_nodes(node))

    # -- events ------------------------------------------------------------

    def _current_lock(self) -> str | None:
        return self._locks[-1] if self._locks else None

    def _op(self, kind: str, target: tuple, line: int, path: _Path,
            blocking: bool = True, ts_literal: int | None = None,
            ts_param: int | None = None) -> None:
        self.summary.ops.append(
            _Op(kind, target, line, path, blocking, ts_literal, ts_param,
                self._current_lock())
        )
        if target[0] == "param":
            self.summary.conn_params.add(target[1])

    def _declare_conn(self, var: str, direction: str, attach_call: ast.Call,
                      path: _Path) -> None:
        func = attach_call.func
        channel: object = None
        if isinstance(func, ast.Attribute):
            channel = self._resolve_channel_expr(func.value)
        elif isinstance(func, ast.Name) and attach_call.args:
            channel = self._resolve_channel_expr(attach_call.args[0])
        if isinstance(channel, tuple) and channel and channel[0] == "param":
            self.summary.param_attaches.append(
                _ParamAttach(channel[1], direction, attach_call.lineno, var)
            )
        self.summary.conns[var] = _ConnDecl(
            var, direction, channel, attach_call.lineno
        )

    def _note_plain_use(self, name: str) -> None:
        """A Load of a tracked connection outside any recognized op/call:
        the connection escapes (returned, yielded, stored, captured)."""
        walker: _FuncWalker | None = self
        while walker is not None:
            decl = walker.summary.conns.get(name)
            if decl is not None:
                decl.escaped = True
                return
            walker = walker.parent

    def _target_for(self, name: str) -> tuple | None:
        """Resolve an op receiver: local conn, param, or an ancestor's conn."""
        if name in self.summary.conns:
            return ("conn", name)
        if name in self.summary.params:
            return ("param", self.summary.params.index(name))
        walker = self.parent
        while walker is not None:
            if name in walker.summary.conns:
                # closure op on an enclosing function's connection: attribute
                # it to the defining scope so obligations stay discharged.
                return ("outer", walker, name)
            walker = walker.parent
        return None

    def _handle_assign(self, targets: list[ast.expr], value: ast.expr,
                       path: _Path) -> None:
        while isinstance(value, (ast.Await, ast.YieldFrom)):
            value = value.value
        candidates = [value]
        if isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            for val in candidates:
                if not isinstance(val, ast.Call):
                    continue
                direction = self._attach_direction(val)
                if direction is not None:
                    self._declare_conn(target.id, direction, val, path)
                    self._recognize_call_names(val)
                    break
                key = self._resolve_channel_expr(val)
                if isinstance(key, str):
                    self.summary.channels[target.id] = key
                    self._recognize_call_names(val)
                    break

    def _recognize_call_names(self, call: ast.Call) -> None:
        """Mark a call's receiver chain as consumed (not an escape)."""
        for sub in ast.walk(call):
            if isinstance(sub, ast.Name):
                self._recognized.add(id(sub))

    def _is_stm_get(self, node: ast.Call, target: tuple | None) -> bool:
        """Disambiguate ``conn.get(...)`` from ``dict.get(...)``."""
        if target is not None and target[0] == "conn":
            return True
        if not node.args:
            # bare .get() on a parameter — only STM if other STM ops exist
            return target is not None and target[0] == "param" and (
                target[1] in self.summary.conn_params
            )
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, int):
            return True
        if isinstance(first, ast.Name) and first.id in _WILDCARDS:
            return True
        if isinstance(first, ast.Attribute) and first.attr in _WILDCARDS:
            return True
        return any(kw.arg in ("block", "timeout") for kw in node.keywords)

    def _handle_call(self, node: ast.Call, path: _Path) -> None:
        func = node.func
        # -- wall-clock sleep sites (STM506) -------------------------------
        time_mods, sleep_names = self.sleep_aliases
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id in time_mods
        ) or (isinstance(func, ast.Name) and func.id in sleep_names):
            self.summary.sleeps.append(node.lineno)
            return

        # -- spawn edges ---------------------------------------------------
        spawn_target = None
        if isinstance(func, ast.Attribute) and func.attr in _SPAWNERS:
            if node.args and isinstance(node.args[0], ast.Name):
                spawn_target = node.args[0].id
        elif (
            (isinstance(func, ast.Name) and func.id == "Thread")
            or (isinstance(func, ast.Attribute) and func.attr == "Thread")
        ):
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    spawn_target = kw.value.id
        if spawn_target is not None:
            self.summary.spawns.append((spawn_target, node.lineno))
            self._recognize_call_names(node)
            return

        # -- creates outside assignments still register the channel --------
        if isinstance(func, ast.Attribute) and func.attr in _CHANNEL_MAKERS:
            key, cap = self._channel_key_of_call(node)
            if key is not None:
                self._record_create(key, cap, node.lineno)

        # -- lookup(..., wait=True) is a blocking STM call -----------------
        if isinstance(func, ast.Attribute) and func.attr in _CHANNEL_FINDERS:
            if any(
                kw.arg == "wait"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                self._op("lookup_wait", ("conn", "<lookup>"), node.lineno, path)

        # -- connection-method ops -----------------------------------------
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            var, meth = func.value.id, func.attr
            target = self._target_for(var)
            emitted = False
            block_kw = True
            for kw in node.keywords:
                if kw.arg == "block" and isinstance(kw.value, ast.Constant):
                    block_kw = bool(kw.value.value)
                if kw.arg == "timeout" and not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is None
                ):
                    block_kw = False
            if meth in _GET and self._is_stm_get(node, target):
                emitted |= self._emit(target, "get", node, path, block_kw)
            if meth in _CONSUME:
                emitted |= self._emit(target, "consume", node, path, True)
            if meth in _PUT and (
                (target is not None and target[0] != "param")
                or len(node.args) >= 2
            ):
                ts_lit, ts_par = self._timestamp_of(node.args[0]) if node.args else (None, None)
                emitted |= self._emit(
                    target, "put", node, path, block_kw, ts_lit, ts_par
                )
            if meth in _DETACH:
                emitted |= self._emit(target, "detach", node, path, True)
            if emitted:
                self._recognized.add(id(func.value))
            return

        # -- spd_* free-function forms --------------------------------------
        if isinstance(func, ast.Name) and node.args and isinstance(
            node.args[0], ast.Name
        ):
            spd = func.id
            kinds = []
            if spd in _GET:
                kinds.append("get")
            if spd in _CONSUME:
                kinds.append("consume")
            if spd in _PUT:
                kinds.append("put")
            if spd in _DETACH:
                kinds.append("detach")
            if spd in _ATTACH_INPUT | _ATTACH_OUTPUT:
                direction = "input" if spd in _ATTACH_INPUT else "output"
                channel = self._resolve_channel_expr(node.args[0])
                if isinstance(channel, tuple) and channel[0] == "param":
                    self.summary.param_attaches.append(
                        _ParamAttach(channel[1], direction, node.lineno, None)
                    )
                self._recognized.add(id(node.args[0]))
                return
            if kinds and spd.startswith("spd_"):
                target = self._target_for(node.args[0].id)
                ts_lit = ts_par = None
                if "put" in kinds and len(node.args) > 1:
                    ts_lit, ts_par = self._timestamp_of(node.args[1])
                for kind in kinds:
                    self._emit(target, kind, node, path, True,
                               ts_lit if kind == "put" else None,
                               ts_par if kind == "put" else None)
                self._recognized.add(id(node.args[0]))
                return

        # -- plain calls: record forwarded conn/chan/int args ---------------
        if isinstance(func, ast.Name):
            site = _CallSite(func.id, node.lineno, path, self._current_lock())
            for pos, arg in enumerate(node.args):
                val = self._arg_value(arg)
                if val is not None:
                    site.args[pos] = val
                    if isinstance(arg, ast.Name):
                        self._recognized.add(id(arg))
            self.summary.calls.append(site)

    def _emit(self, target: tuple | None, kind: str, node: ast.Call,
              path: _Path, blocking: bool, ts_literal: int | None = None,
              ts_param: int | None = None) -> bool:
        if target is None:
            return False
        if target[0] == "outer":
            _tag, walker, var = target
            walker.summary.ops.append(
                _Op(kind, ("conn", var), node.lineno, path, blocking,
                    ts_literal, ts_param, self._current_lock())
            )
            return True
        self._op(kind, target, node.lineno, path, blocking, ts_literal, ts_param)
        return True

    def _timestamp_of(self, expr: ast.expr) -> tuple[int | None, int | None]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int) and not (
            isinstance(expr.value, bool)
        ):
            return expr.value, None
        if isinstance(expr, ast.Name) and expr.id in self.summary.params:
            return None, self.summary.params.index(expr.id)
        return None, None

    def _arg_value(self, arg: ast.expr) -> tuple | None:
        if isinstance(arg, ast.Name):
            if arg.id in self.summary.conns:
                return ("conn", arg.id)
            if arg.id in self.summary.channels:
                return ("chan", self.summary.channels[arg.id])
            if arg.id in self.summary.params:
                return ("fwd", self.summary.params.index(arg.id))
            value = self.consts.get(arg.id)
            if isinstance(value, int) and not isinstance(value, bool):
                return ("int", value)
            return None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, int) and not (
            isinstance(arg.value, bool)
        ):
            return ("int", arg.value)
        return None


# ----------------------------------------------------------------------
# program-level extraction
# ----------------------------------------------------------------------
def _sleep_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names the module binds to wall-clock sleeping: module aliases of
    ``time`` (so ``t.sleep`` is caught under ``import time as t``) and
    bare names bound by ``from time import sleep [as s]``.  ``asyncio``
    imports never land here, so ``await asyncio.sleep`` stays legal."""
    time_mods: set[str] = set()
    sleep_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_mods.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    sleep_names.add(alias.asname or "sleep")
    return time_mods, sleep_names


def _module_constants(tree: ast.Module) -> dict[str, object]:
    consts: dict[str, object] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    consts[target.id] = stmt.value.value
    return consts


def _collect_scopes(src: SourceFile) -> list[tuple[_FuncWalker, _Summary]]:
    """Walk every scope of one file: module body, functions, methods,
    nested closures (each closure walker keeps a reference to its parent
    so ops on captured connections are attributed to the defining scope)."""
    consts = _module_constants(src.tree)
    sleep_aliases = _sleep_aliases(src.tree)
    out: list[tuple[_FuncWalker, _Summary]] = []

    def walk(body: list[ast.stmt], qualname: str, params: list[str],
             line: int, parent: _FuncWalker | None,
             is_async: bool = False) -> None:
        summary = _Summary(
            module=src.display, file=src.display, qualname=qualname,
            name=qualname.rsplit(".", 1)[-1], line=line, params=params,
            is_async=is_async,
        )
        walker = _FuncWalker(body, summary, consts, parent, sleep_aliases)
        out.append((walker, summary))
        for nbody, nqual, nparams, nline, nasync in walker.nested:
            walk(nbody, nqual, nparams, nline, walker, nasync)

    # The module-body walker recurses into every (nested) function it sees,
    # so plain functions are fully covered; class bodies are opaque to it
    # (walk_stmt skips ClassDef), hence methods are collected separately.
    walk(src.tree.body, "<module>", [], 1, None)
    stack: list[tuple[ast.ClassDef, str]] = [
        (n, "") for n in src.tree.body if isinstance(n, ast.ClassDef)
    ]
    while stack:
        cls, prefix = stack.pop()
        for child in cls.body:
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{cls.name}."))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(
                    child.body,
                    f"{prefix}{cls.name}.{child.name}",
                    [a.arg for a in child.args.args],
                    child.lineno,
                    None,
                    isinstance(child, ast.AsyncFunctionDef),
                )
    return out


@dataclass
class _Program:
    summaries: list[_Summary]
    walkers: dict[str, _FuncWalker]                 # summary id -> walker
    by_name: dict[str, list[_Summary]] = field(default_factory=dict)

    def resolve(self, name: str, caller: _Summary) -> list[_Summary]:
        """Callee candidates: same-scope siblings, then same module, then
        any module (merging candidates keeps the analysis conservative)."""
        candidates = self.by_name.get(name, [])
        if not candidates:
            return []
        prefix = f"{caller.qualname}.{name}"
        scoped = [
            s for s in candidates
            if s.module == caller.module and s.qualname == prefix
        ]
        if scoped:
            return scoped
        local = [s for s in candidates if s.module == caller.module]
        return local or candidates


def _link(sources: list[SourceFile]) -> _Program:
    summaries: list[_Summary] = []
    walkers: dict[str, _FuncWalker] = {}
    for src in sources:
        for walker, summary in _collect_scopes(src):
            summaries.append(summary)
            walkers[summary.id] = walker
    prog = _Program(summaries, walkers)
    for s in summaries:
        if s.name != "<module>":
            prog.by_name.setdefault(s.name, []).append(s)
    return prog


# ----------------------------------------------------------------------
# interprocedural effects
# ----------------------------------------------------------------------
@dataclass
class _ParamEffects:
    kinds: set[str] = field(default_factory=set)
    blocking_get: bool = False
    blocking_put: bool = False
    #: (this conn param puts with ts taken from param j)
    ts_params: set[int] = field(default_factory=set)


class _Effects:
    """Memoized transitive effect summaries over the call graph."""

    def __init__(self, prog: _Program) -> None:
        self.prog = prog
        self._params: dict[str, dict[int, _ParamEffects]] = {}
        self._blocking: dict[str, bool] = {}

    # .. per-parameter effects ............................................

    def params(
        self, fn: _Summary, _stack: frozenset | None = None
    ) -> dict[int, _ParamEffects]:
        _stack = _stack or frozenset()
        if fn.id in self._params:
            return self._params[fn.id]
        if fn.id in _stack:
            return {}
        stack = _stack | {fn.id}
        out: dict[int, _ParamEffects] = {}

        def eff(idx: int) -> _ParamEffects:
            return out.setdefault(idx, _ParamEffects())

        for op in fn.ops:
            if op.target[0] != "param":
                continue
            e = eff(op.target[1])
            e.kinds.add(op.kind)
            if op.kind == "get" and op.blocking:
                e.blocking_get = True
            if op.kind == "put" and op.blocking:
                e.blocking_put = True
            if op.kind == "put" and op.ts_param is not None:
                e.ts_params.add(op.ts_param)
        for call in fn.calls:
            for callee in self.prog.resolve(call.callee, fn):
                sub = self.params(callee, stack)
                for pos, val in call.args.items():
                    if val[0] != "fwd" or pos not in sub:
                        continue
                    e = eff(val[1])
                    e.kinds |= sub[pos].kinds
                    e.blocking_get |= sub[pos].blocking_get
                    e.blocking_put |= sub[pos].blocking_put
        self._params[fn.id] = out
        return out

    # .. does calling fn (possibly) block on STM? .........................

    def blocking_stm(
        self, fn: _Summary, _stack: frozenset | None = None
    ) -> tuple[bool, str]:
        _stack = _stack or frozenset()
        if fn.id in self._blocking:
            return self._blocking[fn.id], ""
        if fn.id in _stack:
            return False, ""
        stack = _stack | {fn.id}
        verdict, why = False, ""
        for op in fn.ops:
            if op.kind == "lookup_wait":
                verdict, why = True, f"lookup(wait=True) at {fn.file}:{op.line}"
                break
            if op.kind in ("get", "put") and op.blocking:
                verdict, why = True, f"blocking {op.kind} at {fn.file}:{op.line}"
                break
        if not verdict:
            for call in fn.calls:
                for callee in self.prog.resolve(call.callee, fn):
                    sub, _w = self.blocking_stm(callee, stack)
                    if sub:
                        verdict = True
                        why = f"'{callee.label}' blocks on STM"
                        break
                if verdict:
                    break
        self._blocking[fn.id] = verdict
        return verdict, why

    # .. the op-kind closure of one local connection ......................

    def conn_kinds(
        self, fn: _Summary, var: str
    ) -> tuple[set[str], bool, bool, list[str], dict[str, int]]:
        """(kinds, blocking_get, blocking_put, resolved helper labels,
        first-op lines) for connection ``var``, following the calls it is
        passed into.  The declaration's ``escaped`` flag already covers
        untrackable uses."""
        kinds: set[str] = set()
        blocking_get = blocking_put = False
        helpers: list[str] = []
        lines: dict[str, int] = {}
        for op in fn.ops:
            if op.target == ("conn", var):
                kinds.add(op.kind)
                lines.setdefault(op.kind, op.line)
                if op.kind == "get" and op.blocking:
                    blocking_get = True
                if op.kind == "put" and op.blocking:
                    blocking_put = True
        decl = fn.conns.get(var)
        for call in fn.calls:
            positions = [p for p, v in call.args.items() if v == ("conn", var)]
            if not positions:
                continue
            callees = self.prog.resolve(call.callee, fn)
            if not callees:
                if decl is not None:
                    decl.escaped = True  # passed somewhere we cannot see
                continue
            helpers.append(call.callee)
            for callee in callees:
                sub = self.params(callee)
                for pos in positions:
                    e = sub.get(pos)
                    if e is None:
                        continue
                    kinds |= e.kinds
                    blocking_get |= e.blocking_get
                    blocking_put |= e.blocking_put
        return kinds, blocking_get, blocking_put, helpers, lines


# ----------------------------------------------------------------------
# the exported graph
# ----------------------------------------------------------------------
@dataclass
class ThreadNode:
    id: str
    label: str
    file: str
    line: int
    spawned_by: list[str] = field(default_factory=list)


@dataclass
class ChannelNode:
    key: str
    name: str | None
    capacity: int | None                # statically known bound, else None
    bounded: bool
    file: str | None = None
    line: int | None = None


@dataclass
class GraphEdge:
    kind: str                           # "put" | "get" | "spawn"
    src: str
    dst: str
    file: str
    line: int
    blocking: bool = True
    #: for put edges: whether the connection demonstrably puts (an output
    #: attach with no visible put is topology-only, not a producer).
    puts: bool = True


@dataclass
class ChannelGraph:
    """The whole-program topology: threads, channels, dataflow + spawns."""

    threads: dict[str, ThreadNode] = field(default_factory=dict)
    channels: dict[str, ChannelNode] = field(default_factory=dict)
    edges: list[GraphEdge] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    # .. views ............................................................

    def producers(self, key: str) -> list[GraphEdge]:
        return [e for e in self.edges if e.kind == "put" and e.dst == key]

    def consumers(self, key: str) -> list[GraphEdge]:
        return [e for e in self.edges if e.kind == "get" and e.src == key]

    def to_json(self) -> dict:
        return {
            "threads": [
                {
                    "id": t.id,
                    "label": t.label,
                    "file": t.file,
                    "line": t.line,
                    "spawned_by": sorted(t.spawned_by),
                }
                for t in sorted(self.threads.values(), key=lambda t: t.id)
            ],
            "channels": [
                {
                    "key": c.key,
                    "name": c.name,
                    "capacity": c.capacity,
                    "bounded": c.bounded,
                    "created_at": f"{c.file}:{c.line}" if c.file else None,
                }
                for c in sorted(self.channels.values(), key=lambda c: c.key)
            ],
            "edges": [
                {
                    "kind": e.kind,
                    "src": e.src,
                    "dst": e.dst,
                    "at": f"{e.file}:{e.line}",
                    "blocking": e.blocking,
                }
                for e in sorted(
                    self.edges, key=lambda e: (e.kind, e.src, e.dst, e.line)
                )
            ],
            "pipeline": self.main_chain(),
        }

    def to_dot(self) -> str:
        lines = [
            "digraph stm {",
            "  rankdir=LR;",
            '  node [fontname="Helvetica"];',
        ]
        for t in sorted(self.threads.values(), key=lambda t: t.id):
            lines.append(
                f'  "{t.id}" [shape=box style=rounded '
                f'label="{t.label}\\n{t.file}:{t.line}"];'
            )
        for c in sorted(self.channels.values(), key=lambda c: c.key):
            cap = f" cap={c.capacity}" if c.bounded else ""
            label = (c.name or c.key) + cap
            lines.append(f'  "{c.key}" [shape=ellipse label="{label}"];')
        styles = {"put": "solid", "get": "solid", "spawn": "dashed"}
        for e in sorted(self.edges, key=lambda e: (e.kind, e.src, e.dst, e.line)):
            lines.append(
                f'  "{e.src}" -> "{e.dst}" '
                f'[label="{e.kind}" style={styles[e.kind]}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def main_chain(self) -> list[str]:
        """The longest thread-to-thread dataflow path (a linear pipeline's
        stage order) — the static seed for placement search."""
        succ: dict[str, set[str]] = {t: set() for t in self.threads}
        for c in self.channels:
            for pe in self.producers(c):
                for ge in self.consumers(c):
                    if pe.src != ge.dst:
                        succ.setdefault(pe.src, set()).add(ge.dst)
        best: list[str] = []

        def dfs(node: str, path: list[str]) -> None:
            nonlocal best
            if len(path) > len(best):
                best = list(path)
            for nxt in sorted(succ.get(node, ())):
                if nxt not in path:
                    path.append(nxt)
                    dfs(nxt, path)
                    path.pop()

        for start in sorted(succ):
            dfs(start, [start])
        return [self.threads[t].label if t in self.threads else t for t in best]

    def placement_model(self, compute_us: float = 1000.0,
                        output_bytes: int = 1024):
        """Seed :mod:`repro.runtime.placement` with the extracted chain.

        Stage compute/size default to placeholders — the topology is the
        static contribution; calibrate costs from ``repro.obs`` metrics.
        """
        from repro.runtime.placement import PipelineModel, Stage

        chain = self.main_chain()
        if not chain:
            raise ValueError("no thread-to-thread dataflow chain extracted")
        stages = tuple(
            Stage(
                name,
                compute_us=compute_us,
                output_bytes=output_bytes if i < len(chain) - 1 else 0,
            )
            for i, name in enumerate(chain)
        )
        return PipelineModel(stages=stages)


# ----------------------------------------------------------------------
# thread attribution
# ----------------------------------------------------------------------
@dataclass
class _AttachInst:
    """One attach site attributed to one thread root."""

    thread: str
    channel: str
    direction: str
    file: str
    line: int
    blocking: bool                      # any blocking get (input) / put (output)
    has_put: bool = False


def _thread_roots(prog: _Program) -> tuple[dict[str, _Summary], dict[str, list[str]]]:
    """Spawn targets plus uncalled entries that reach STM activity."""
    spawned: dict[str, _Summary] = {}
    spawned_by: dict[str, list[str]] = {}
    called: set[str] = set()
    for fn in prog.summaries:
        for call in fn.calls:
            for callee in prog.resolve(call.callee, fn):
                called.add(callee.id)
        for target, _line in fn.spawns:
            for callee in prog.resolve(target, fn):
                spawned[callee.id] = callee
                spawned_by.setdefault(callee.id, []).append(fn.id)

    def touches_stm(fn: _Summary, seen: set[str]) -> bool:
        if fn.id in seen:
            return False
        seen.add(fn.id)
        if fn.conns or fn.ops or fn.spawns or fn.param_attaches or fn.creates:
            return True
        return any(
            touches_stm(callee, seen)
            for call in fn.calls
            for callee in prog.resolve(call.callee, fn)
        )

    roots = dict(spawned)
    for fn in prog.summaries:
        if fn.id in called or fn.id in spawned:
            continue
        if touches_stm(fn, set()):
            roots[fn.id] = fn
    return roots, spawned_by


def _attribute(prog: _Program, effects: _Effects,
               roots: dict[str, _Summary]) -> list[_AttachInst]:
    """Collect every root's transitive attach sites (with channel binding
    of parameter channels instantiated per call site)."""
    out: list[_AttachInst] = []
    for root_id, root in roots.items():

        def visit(fn: _Summary, env: dict[int, str], seen: set, root_id=root_id) -> None:
            key = (fn.id, tuple(sorted(env.items())))
            if key in seen or len(seen) > 400:
                return
            seen.add(key)
            for var, decl in fn.conns.items():
                channel = decl.channel
                if isinstance(channel, tuple) and channel and channel[0] == "param":
                    channel = env.get(channel[1])
                if not isinstance(channel, str):
                    channel = f"?{fn.file}:{decl.line}"
                kinds, bget, bput, _helpers, lines = effects.conn_kinds(fn, var)
                # anchor the edge at the first put/get (falling back to the
                # attach site) so graph-level findings point at the op.
                op = "put" if decl.direction == "output" else "get"
                out.append(
                    _AttachInst(
                        root_id, channel, decl.direction, fn.file,
                        lines.get(op, decl.line),
                        bget if decl.direction == "input" else bput,
                        has_put="put" in kinds,
                    )
                )
            for pa in fn.param_attaches:
                if pa.conn_var is not None and pa.conn_var in fn.conns:
                    continue  # already handled through the conn decl above
                channel = env.get(pa.param)
                if channel is None:
                    continue
                out.append(
                    _AttachInst(
                        root_id, channel, pa.direction, fn.file, pa.line,
                        True, has_put=True,
                    )
                )
            for call in fn.calls:
                for callee in prog.resolve(call.callee, fn):
                    child_env: dict[int, str] = {}
                    for pos, val in call.args.items():
                        if val[0] == "chan":
                            child_env[pos] = val[1]
                        elif val[0] == "fwd" and val[1] in env:
                            child_env[pos] = env[val[1]]
                    visit(callee, child_env, seen)

        visit(root, {}, set())
    return out


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
def _merge_channels(prog: _Program) -> dict[str, ChannelNode]:
    channels: dict[str, ChannelNode] = {}
    for fn in prog.summaries:
        for key, cap in fn.creates.items():
            node = channels.get(key)
            line = fn.create_lines.get(key)
            if node is None:
                channels[key] = ChannelNode(
                    key=key, name=key,
                    capacity=cap[1] if cap[0] == "bounded" else None,
                    bounded=cap[0] == "bounded",
                    file=fn.file, line=line,
                )
            elif cap[0] == "bounded" and not node.bounded:
                node.bounded = True
                node.capacity = cap[1]
    return channels


def _rule_501_wait_cycles(graph: ChannelGraph) -> list[Finding]:
    """Bounded cycles in the thread-level dataflow digraph.

    An acyclic network of STM channels cannot deadlock on put/get alone;
    a *cycle* whose consumers all block on get and in which at least one
    channel is bounded with a blocking put can (the bounded-buffer
    variant of Kahn-network artificial deadlock: every thread on the
    cycle ends up waiting for a peer that is itself waiting).  A plain
    producer->consumer pair is NOT a cycle in this digraph — the full/
    empty waits of one channel are complementary and never hold at once.
    """
    # thread -> thread dataflow edges, labeled by channel and put site
    flow: dict[str, list[tuple[str, str, GraphEdge]]] = {}
    for pe in graph.edges:
        if pe.kind != "put":
            continue
        for ge in graph.consumers(pe.dst):
            if not ge.blocking:
                continue  # a non-blocking getter breaks the wait chain
            if ge.dst == pe.src:
                continue  # self-loops are protolint territory
            flow.setdefault(pe.src, []).append((ge.dst, pe.dst, pe))

    findings: list[Finding] = []
    seen_sites: set[tuple[str, int]] = set()
    for start, outs in sorted(flow.items()):
        for first_dst, first_chan, pe in outs:
            chan = graph.channels.get(first_chan)
            if chan is None or not chan.bounded or not pe.blocking:
                continue  # the cycle must contain a bounded blocking put
            # DFS: is `start` reachable from first_dst through flow edges?
            path = _flow_path(flow, first_dst, start, limit=20)
            if path is None:
                continue
            site = (pe.file, pe.line)
            if site in seen_sites:
                continue
            seen_sites.add(site)
            cycle = [start, *path]  # path runs first_dst .. start
            labels = " -> ".join(
                graph.threads[t].label if t in graph.threads else t
                for t in cycle
            )
            findings.append(
                Finding(
                    "STM501",
                    pe.file,
                    pe.line,
                    f"blocking put to bounded channel "
                    f"'{chan.name or chan.key}' (capacity {chan.capacity}) "
                    f"lies on a put->get wait cycle {labels}: potential "
                    "deadlock once the bounded channel fills",
                )
            )
    return findings


def _flow_path(
    flow: dict[str, list[tuple[str, str, GraphEdge]]],
    src: str,
    dst: str,
    limit: int,
) -> list[str] | None:
    """Simple path src -> dst in the dataflow digraph (BFS, bounded)."""
    if src == dst:
        return [src]
    frontier: list[list[str]] = [[src]]
    visited = {src}
    while frontier:
        next_frontier: list[list[str]] = []
        for path in frontier:
            if len(path) > limit:
                continue
            for nxt, _chan, _pe in flow.get(path[-1], ()):
                if nxt == dst:
                    return path + [nxt]
                if nxt not in visited:
                    visited.add(nxt)
                    next_frontier.append(path + [nxt])
        frontier = next_frontier
    return None


def _rule_502_starvation(prog: _Program, effects: _Effects) -> list[Finding]:
    findings: list[Finding] = []
    for fn in prog.summaries:
        for var, decl in fn.conns.items():
            if decl.direction != "input":
                continue
            kinds, _bg, _bp, helpers, _lines = effects.conn_kinds(fn, var)
            if decl.escaped:
                continue
            if not helpers:
                continue  # purely local: protolint's STM201/205 own this
            if kinds & {"consume", "detach"}:
                continue
            via = ", ".join(f"'{h}'" for h in dict.fromkeys(helpers))
            findings.append(
                Finding(
                    "STM502",
                    fn.file,
                    decl.line,
                    f"input connection '{var}' is handed to {via} but no "
                    "reachable code ever consumes or detaches it: the "
                    "connection pins the channel's GC horizon forever",
                )
            )
    return findings


def _rule_503_orphans(graph: ChannelGraph) -> list[Finding]:
    findings: list[Finding] = []
    for key, chan in sorted(graph.channels.items()):
        if chan.name is None:
            continue  # unnamed/synthetic channels: identity is heuristic
        producers = [e for e in graph.producers(key) if e.puts]
        if not producers or graph.consumers(key):
            continue
        first = min(producers, key=lambda e: (e.file, e.line))
        findings.append(
            Finding(
                "STM503",
                first.file,
                first.line,
                f"channel '{chan.name}' is produced here but no scanned "
                "code ever attaches an input connection: items accumulate "
                "with nowhere to go (orphan producer)",
            )
        )
    return findings


def _rule_504_ts_regression(prog: _Program, effects: _Effects) -> list[Finding]:
    findings: list[Finding] = []
    for fn in prog.summaries:
        walker = prog.walkers[fn.id]
        # literal-timestamp put events per connection: direct puts plus
        # helper calls whose summary puts conn-param with ts-param.
        events: dict[str, list[tuple[int, _Path, int, bool]]] = {}
        for op in fn.ops:
            if op.kind == "put" and op.target[0] == "conn" and op.ts_literal is not None:
                events.setdefault(op.target[1], []).append(
                    (op.line, op.path, op.ts_literal, False)
                )
        for call in fn.calls:
            conn_positions = {
                pos: val[1] for pos, val in call.args.items() if val[0] == "conn"
            }
            int_positions = {
                pos: val[1] for pos, val in call.args.items() if val[0] == "int"
            }
            if not conn_positions or not int_positions:
                continue
            for callee in prog.resolve(call.callee, fn):
                params = effects.params(callee)
                for pos, var in conn_positions.items():
                    e = params.get(pos)
                    if e is None or "put" not in e.kinds:
                        continue
                    for ts_param in e.ts_params:
                        if ts_param in int_positions:
                            events.setdefault(var, []).append(
                                (call.line, call.path,
                                 int_positions[ts_param], True)
                            )
        for var, evs in events.items():
            evs.sort(key=lambda e: e[0])
            reported = False
            for i, (l1, p1, ts1, via1) in enumerate(evs):
                for l2, p2, ts2, via2 in evs[i + 1:]:
                    if not (via1 or via2):
                        continue  # direct/direct pairs are STM204's domain
                    if ts2 < ts1 and walker.strictly_precedes(p1, p2):
                        findings.append(
                            Finding(
                                "STM504",
                                fn.file,
                                l2,
                                f"timestamp {ts2} flowing into '{var}.put' "
                                f"through a helper call is older than the "
                                f"timestamp {ts1} put at line {l1}: "
                                "cross-procedure timestamp regression",
                            )
                        )
                        reported = True
                        break
                if reported:
                    break
    return findings


def _rule_505_blocking_under_lock(prog: _Program, effects: _Effects) -> list[Finding]:
    findings: list[Finding] = []
    for fn in prog.summaries:
        for op in fn.ops:
            if op.lock is None:
                continue
            if op.kind == "lookup_wait" or (
                op.kind in ("get", "put") and op.blocking
            ):
                what = "lookup(wait=True)" if op.kind == "lookup_wait" else (
                    f"blocking {op.kind}"
                )
                findings.append(
                    Finding(
                        "STM505",
                        fn.file,
                        op.line,
                        f"{what} while holding lock '{op.lock}': the STM "
                        "call can park the thread (or the event loop) with "
                        "the lock held",
                    )
                )
        for call in fn.calls:
            if call.lock is None:
                continue
            for callee in prog.resolve(call.callee, fn):
                blocks, why = effects.blocking_stm(callee)
                if blocks:
                    findings.append(
                        Finding(
                            "STM505",
                            fn.file,
                            call.line,
                            f"call to '{call.callee}' while holding lock "
                            f"'{call.lock}' reaches a blocking STM "
                            f"operation ({why or 'transitively'})",
                        )
                    )
                    break
    return findings


def _rule_506_wall_clock_sleeps(prog: _Program) -> list[Finding]:
    """Wall-clock sleeps on STM kernel paths.

    A sleep is flagged when its own function performs STM channel
    operations, or when it sits in a helper that an STM-active function
    calls (transitively): in both shapes the sleeping scope is pacing
    channel traffic with the wall clock.  On the asyncio runtime a
    ``time.sleep`` anywhere on such a path parks the event loop — every
    task in the space stops, including the GC daemon.  Deliberate
    settle sleeps (benchmarks, teardown) carry ``# stm-ok: STM506``.
    """

    def stm_active(fn: _Summary) -> bool:
        return bool(fn.ops or fn.conns or fn.conn_params or fn.param_attaches)

    findings: list[Finding] = []
    flagged: set[tuple[str, int]] = set()

    def flag(fn: _Summary, line: int, via: str | None) -> None:
        site = (fn.file, line)
        if site in flagged:
            return
        flagged.add(site)
        consequence = (
            "under the asyncio runtime this parks the whole event loop"
            if fn.is_async
            else "on the asyncio runtime the same path parks the event loop"
        )
        origin = (
            f"in '{fn.label}', which performs STM channel operations"
            if via is None
            else f"in '{fn.label}', reached from STM-active '{via}'"
        )
        findings.append(
            Finding(
                "STM506",
                fn.file,
                line,
                f"wall-clock time.sleep {origin}: {consequence}, and on "
                "any runtime it couples channel pacing to the wall clock "
                "instead of a blocking get/put or an event",
            )
        )

    for fn in prog.summaries:
        if not stm_active(fn):
            continue
        for line in fn.sleeps:
            flag(fn, line, None)
        # helpers this STM-active function calls that sleep themselves
        stack = [(fn, frozenset({fn.id}))]
        while stack:
            cur, seen = stack.pop()
            for call in cur.calls:
                for callee in prog.resolve(call.callee, cur):
                    if callee.id in seen or stm_active(callee):
                        continue  # active callees are flagged on their own
                    for line in callee.sleeps:
                        flag(callee, line, fn.label)
                    stack.append((callee, seen | {callee.id}))
    return findings


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def extract_graph(sources: list[SourceFile]) -> ChannelGraph:
    """Extract the whole-program channel graph and run STM501-506."""
    prog = _link(sources)
    effects = _Effects(prog)
    graph = ChannelGraph()
    graph.channels = _merge_channels(prog)
    roots, spawned_by = _thread_roots(prog)

    by_id = {fn.id: fn for fn in prog.summaries}
    for root_id, root in roots.items():
        graph.threads[root_id] = ThreadNode(
            id=root_id, label=root.label, file=root.file, line=root.line,
            spawned_by=[
                by_id[s].label for s in spawned_by.get(root_id, []) if s in by_id
            ],
        )
    for fn in prog.summaries:
        for target, line in fn.spawns:
            for callee in prog.resolve(target, fn):
                src_thread = fn.id if fn.id in graph.threads else None
                graph.edges.append(
                    GraphEdge("spawn", src_thread or fn.id, callee.id,
                              fn.file, line)
                )

    for inst in _attribute(prog, effects, roots):
        if inst.channel not in graph.channels:
            graph.channels[inst.channel] = ChannelNode(
                key=inst.channel,
                name=None if inst.channel.startswith("?") else inst.channel,
                capacity=None, bounded=False,
            )
        if inst.direction == "output":
            graph.edges.append(
                GraphEdge("put", inst.thread, inst.channel, inst.file,
                          inst.line, blocking=inst.blocking and inst.has_put,
                          puts=inst.has_put)
            )
        else:
            graph.edges.append(
                GraphEdge("get", inst.channel, inst.thread, inst.file,
                          inst.line, blocking=inst.blocking)
            )

    # de-duplicate edges from multiple instantiation paths
    seen: set[tuple] = set()
    unique: list[GraphEdge] = []
    for e in graph.edges:
        k = (e.kind, e.src, e.dst, e.file, e.line)
        if k in seen:
            continue
        seen.add(k)
        unique.append(e)
    graph.edges = unique

    graph.findings.extend(_rule_501_wait_cycles(graph))
    graph.findings.extend(_rule_502_starvation(prog, effects))
    graph.findings.extend(_rule_503_orphans(graph))
    graph.findings.extend(_rule_504_ts_regression(prog, effects))
    graph.findings.extend(_rule_505_blocking_under_lock(prog, effects))
    graph.findings.extend(_rule_506_wall_clock_sleeps(prog))
    return graph


def check_channel_graph(sources: list[SourceFile]) -> list[Finding]:
    """The pass entry point: findings only (the CLI may also export)."""
    return extract_graph(sources).findings


def summarize_program(sources: list[SourceFile]) -> tuple[_Program, _Effects]:
    """Public seam for the abstract interpreter (`repro.analysis.absint`):
    the linked per-function summary program plus its memoized transitive
    effects engine, so call sites can be resolved and composed without
    re-walking the sources."""
    prog = _link(sources)
    return prog, _Effects(prog)
