"""Per-function control-flow-graph IR for the abstract interpreter.

Every scope (module body, function, method, nested closure) is lowered to a
small instruction language over basic blocks with explicit edges for
branches, loops, ``try``/``except``/``finally``, ``with`` (including the
auto-detaching ``with attach(...) as conn:`` form), and the async variants.
The worklist engine in :mod:`repro.analysis.absint.engine` then runs
abstract domains (:mod:`~repro.analysis.absint.typestate`,
:mod:`~repro.analysis.absint.vtime`) to a fixpoint over this IR — one flow
engine for every flow-sensitive rule in the tree, where a lexical
"statement path" approximation once stood.

Lowering decisions that matter for soundness:

* ``finally`` bodies sit on *every* edge out of their ``try`` region —
  normal completion, ``return``/``break``/``continue``, and the
  exceptional pass-through — so a ``detach`` in a ``finally`` reaches the
  function exit on all paths (the classic STM205 false-positive shape).
* ``with attach(...) as conn:`` lowers to an ``attach`` followed by a
  synthetic finally region holding the ``detach``, so early exits from the
  body still detach.
* Exception edges are added only *inside* ``try`` statements (body block →
  handler entry / finally entry).  Implicit "any statement may raise"
  edges to the function exit are deliberately omitted: they would flood
  the exit join with half-finished states and drown every must-fact.
* A ``Name`` load that is only *tested* (``if conn is not None:``) is a
  ``test`` instruction, not a ``use``: testing a connection does not leak
  it, which keeps guarded-cleanup idioms analyzable instead of escaping.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["Instr", "Block", "CFG", "Scope", "collect_scopes", "build_cfg"]

# vocabulary (kept in sync with stmgraph's)
_ATTACH_INPUT = {"attach_input", "spd_attach_input_channel"}
_ATTACH_OUTPUT = {"attach_output", "spd_attach_output_channel"}
_GET = {"get", "spd_channel_get_item"}
_GET_CONSUME = {"get_consume"}
_CONSUME = {"consume", "spd_channel_consume_item"}
_CONSUME_UNTIL = {"consume_until", "spd_channel_consume_items_until"}
_PUT = {"put", "spd_channel_put_item"}
_DETACH = {"detach", "spd_detach_channel"}
_OP_METHODS = _GET | _GET_CONSUME | _CONSUME | _CONSUME_UNTIL | _PUT | _DETACH
#: spd_* free functions take the connection as their first argument.
_SPD_FUNCS = {n for n in _OP_METHODS if n.startswith("spd_")}
_SPD_ATTACH = {"spd_attach_input_channel", "spd_attach_output_channel"}


@dataclass
class Instr:
    """One abstract instruction.  ``kind`` selects the meaningful fields:

    * ``attach`` — var, direction, site, line
    * ``op``     — op (get/get_consume/consume/consume_until/put/detach),
                   var (receiver name), ts (request/timestamp expr AST or
                   None), item (var bound by a get), awaited, blocking
    * ``call``   — callee (resolvable plain-name calls only), conn_args
                   (positional Name arguments, pos → var), awaited
    * ``alias``  — dst, src (``conn2 = conn``)
    * ``assign`` — dst, expr (everything else that binds a name)
    * ``use``    — var (a Load that may leak the value)
    * ``test``   — var (a Load in a pure truth/None test — no leak)
    * ``kill``   — var (binding destroyed, value unknown)
    """

    kind: str
    line: int
    var: str | None = None
    direction: str | None = None
    site: str | None = None
    op: str | None = None
    ts: ast.expr | None = None
    item: str | None = None
    awaited: bool = False
    blocking: bool = True
    callee: str | None = None
    conn_args: dict[int, str] = field(default_factory=dict)
    dst: str | None = None
    src: str | None = None
    expr: ast.expr | None = None
    #: unique id within the scope (symbolic-base seed for get bindings)
    uid: int = 0


@dataclass
class Block:
    bid: int
    instrs: list[Instr] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    is_loop_head: bool = False

    def edge(self, to: int) -> None:
        if to not in self.succs:
            self.succs.append(to)


@dataclass
class SiteInfo:
    """One attach site in a scope (the typestate object it creates)."""

    site: str
    var: str | None
    direction: str
    line: int


@dataclass
class CFG:
    qualname: str
    file: str
    line: int
    is_async: bool
    params: list[str]
    blocks: dict[int, Block]
    entry: int
    exit: int
    sites: dict[str, SiteInfo]

    def reachable(self) -> list[int]:
        """Block ids reachable from entry, in id order."""
        seen: set[int] = set()
        stack = [self.entry]
        while stack:
            bid = stack.pop()
            if bid in seen:
                continue
            seen.add(bid)
            stack.extend(self.blocks[bid].succs)
        return sorted(seen)


@dataclass
class Scope:
    """One analyzable scope: the AST body plus its stmgraph identity."""

    file: str
    qualname: str
    line: int
    params: list[str]
    is_async: bool
    body: list[ast.stmt]


def collect_scopes(tree: ast.Module, file: str) -> list[Scope]:
    """Mirror stmgraph's scope traversal (and its qualnames, so each scope
    lines up with its per-function summary): the module body, plain
    functions (recursively, qualified ``<module>.f.g``), and methods of
    module-level classes (``Class.method``)."""
    out: list[Scope] = []

    def outer_defs(
        stmts: list[ast.stmt],
    ) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Outermost function defs under these statements, not descending
        into other scopes (defs, classes, lambdas)."""
        found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        queue: list[ast.AST] = list(stmts)
        while queue:
            node = queue.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(node)
            elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
                queue.extend(ast.iter_child_nodes(node))
        return found

    def walk(body: list[ast.stmt], qualname: str, params: list[str],
             line: int, is_async: bool) -> None:
        out.append(Scope(file, qualname, line, params, is_async, body))
        for fn in outer_defs(body):
            walk(
                fn.body,
                f"{qualname}.{fn.name}",
                [a.arg for a in fn.args.args],
                fn.lineno,
                isinstance(fn, ast.AsyncFunctionDef),
            )

    walk(tree.body, "<module>", [], 1, False)
    stack: list[tuple[ast.ClassDef, str]] = [
        (n, "") for n in tree.body if isinstance(n, ast.ClassDef)
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
                    isinstance(child, ast.AsyncFunctionDef),
                )
    return out


@dataclass
class _FinallyCtx:
    """One active finally region (real ``finally:`` or a with-attach
    epilogue): abrupt exits inside the region route through ``entry`` and
    register their real target as an extra successor of the region exit."""

    entry: int
    exit_block: int | None          # None: the finally itself never falls out
    extra: set[int] = field(default_factory=set)


class _Builder:
    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        self.blocks: dict[int, Block] = {}
        self.sites: dict[str, SiteInfo] = {}
        self._next = 0
        self._uid = 0
        self.entry = self.new_block().bid
        self.exit = self.new_block().bid
        self.cur: Block | None = self.blocks[self.entry]
        #: (head_bid, after_bid, finally_depth at loop entry)
        self.loops: list[tuple[int, int, int]] = []
        self.finallys: list[_FinallyCtx] = []
        #: handler-entry bids of the innermost enclosing try-with-handlers
        self.handlers: list[list[int]] = []
        self.build()

    # -- plumbing ---------------------------------------------------------

    def new_block(self) -> Block:
        b = Block(self._next)
        self.blocks[self._next] = b
        self._next += 1
        return b

    def emit(self, instr: Instr) -> None:
        if self.cur is not None:
            instr.uid = self._uid
            self._uid += 1
            self.cur.instrs.append(instr)

    def _goto(self, bid: int) -> None:
        if self.cur is not None:
            self.cur.edge(bid)
        self.cur = self.blocks[bid]

    def _abrupt(self, target: int, through_finallys: int = 0) -> None:
        """End the current block with a jump to ``target``, routing through
        the ``through_finallys`` innermost finally regions (approximated by
        the innermost one; the union-join at the exit keeps this sound)."""
        if self.cur is None:
            return
        if through_finallys and self.finallys:
            ctx = self.finallys[-1]
            ctx.extra.add(target)
            self.cur.edge(ctx.entry)
        else:
            self.cur.edge(target)
        self.cur = None  # dead until the next label

    def build(self) -> None:
        self.visit_body(self.scope.body)
        if self.cur is not None:
            self.cur.edge(self.exit)

    # -- statements -------------------------------------------------------

    def visit_body(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if self.cur is None:
                # unreachable code after return/raise/…: still lower it into
                # a fresh preds-less block so nested defs register escapes
                # consistently, but it stays bottom in the fixpoint.
                self.cur = self.new_block()
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:  # noqa: PLR0912 - dispatcher
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # separate scopes (or opaque class bodies): captured names leak
            self._emit_closure_uses(stmt)
        elif isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, (ast.While,)):
            self._visit_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_for(stmt)
        elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            self._visit_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.Match):
            self._visit_match(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._lower_expr(stmt.value)
            self._abrupt(self.exit, through_finallys=len(self.finallys))
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._lower_expr(stmt.exc)
            if self.handlers:
                if self.cur is not None:
                    for h in self.handlers[-1]:
                        self.cur.edge(h)
                    self.cur = None
            else:
                self._abrupt(self.exit, through_finallys=len(self.finallys))
        elif isinstance(stmt, ast.Break):
            if self.loops:
                head, after, fdepth = self.loops[-1]
                self._abrupt(after, through_finallys=len(self.finallys) - fdepth)
            else:
                self.cur = None
        elif isinstance(stmt, ast.Continue):
            if self.loops:
                head, after, fdepth = self.loops[-1]
                self._abrupt(head, through_finallys=len(self.finallys) - fdepth)
            else:
                self.cur = None
        else:
            self._lower_simple(stmt)

    def _visit_if(self, stmt: ast.If) -> None:
        self._lower_expr(stmt.test, test=True)
        branch = self.cur
        after = self.new_block()
        then = self.new_block()
        if branch is not None:
            branch.edge(then.bid)
        self.cur = then
        self.visit_body(stmt.body)
        if self.cur is not None:
            self.cur.edge(after.bid)
        if stmt.orelse:
            orelse = self.new_block()
            if branch is not None:
                branch.edge(orelse.bid)
            self.cur = orelse
            self.visit_body(stmt.orelse)
            if self.cur is not None:
                self.cur.edge(after.bid)
        elif branch is not None:
            branch.edge(after.bid)
        self.cur = self.blocks[after.bid]

    def _visit_while(self, stmt: ast.While) -> None:
        head = self.new_block()
        head.is_loop_head = True
        after = self.new_block()
        self._goto(head.bid)
        self._lower_expr(stmt.test, test=True)
        head_end = self.cur
        body = self.new_block()
        if head_end is not None:
            head_end.edge(body.bid)
            # ``while True:`` has no false edge; anything else can skip
            if not (isinstance(stmt.test, ast.Constant) and stmt.test.value is True):
                head_end.edge(after.bid)
        self.loops.append((head.bid, after.bid, len(self.finallys)))
        self.cur = body
        self.visit_body(stmt.body)
        if self.cur is not None:
            self.cur.edge(head.bid)
        self.loops.pop()
        if stmt.orelse:
            orelse = self.new_block()
            if head_end is not None:
                head_end.edge(orelse.bid)
            self.cur = orelse
            self.visit_body(stmt.orelse)
            if self.cur is not None:
                self.cur.edge(after.bid)
        self.cur = self.blocks[after.bid]

    def _visit_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        self._lower_expr(stmt.iter)
        head = self.new_block()
        head.is_loop_head = True
        after = self.new_block()
        self._goto(head.bid)
        head.edge(after.bid)  # empty iterable
        body = self.new_block()
        head.edge(body.bid)
        self.cur = body
        self._kill_target(stmt.target)
        self.loops.append((head.bid, after.bid, len(self.finallys)))
        self.visit_body(stmt.body)
        if self.cur is not None:
            self.cur.edge(head.bid)
        self.loops.pop()
        if stmt.orelse:
            orelse = self.new_block()
            head.edge(orelse.bid)
            self.cur = orelse
            self.visit_body(stmt.orelse)
            if self.cur is not None:
                self.cur.edge(after.bid)
        self.cur = self.blocks[after.bid]

    def _visit_try(self, stmt: ast.Try) -> None:
        after = self.new_block()
        fin_ctx: _FinallyCtx | None = None
        if stmt.finalbody:
            fin_entry = self.new_block()
            saved = self.cur
            self.cur = fin_entry
            # the try body may have stopped anywhere before this point:
            # item/timestamp must-facts do not survive into the region
            self.emit(Instr("havoc", stmt.lineno))
            self.visit_body(stmt.finalbody)
            fin_exit = self.cur.bid if self.cur is not None else None
            self.cur = saved
            fin_ctx = _FinallyCtx(fin_entry.bid, fin_exit)

        handler_entries = [self.new_block() for _ in stmt.handlers]

        # try body
        body_entry = self.new_block()
        self._goto(body_entry.bid)
        first_body_block = len(self.blocks)
        body_first = body_entry.bid
        if fin_ctx is not None:
            self.finallys.append(fin_ctx)
        if handler_entries:
            self.handlers.append([h.bid for h in handler_entries])
        self.visit_body(stmt.body)
        body_end = self.cur
        if handler_entries:
            self.handlers.pop()
        # any block of the try region may raise into any handler / finally
        region = [body_first] + [
            b for b in range(first_body_block, len(self.blocks))
        ]
        for bid in region:
            blk = self.blocks.get(bid)
            if blk is None or blk.bid == after.bid:
                continue
            for h in handler_entries:
                blk.edge(h.bid)
            if fin_ctx is not None:
                # matched handlers route later; an unmatched exception
                # type still runs the finally on its way out
                blk.edge(fin_ctx.entry)
        # else: runs after a clean body
        self.cur = body_end
        if stmt.orelse:
            if self.cur is not None:
                orelse = self.new_block()
                self.cur.edge(orelse.bid)
                self.cur = orelse
                self.visit_body(stmt.orelse)
        normal_end = self.cur

        # handlers
        handler_ends: list[Block] = []
        for handler, entry in zip(stmt.handlers, handler_entries, strict=True):
            self.cur = entry
            self.emit(Instr("havoc", handler.lineno))
            if handler.type is not None:
                self._lower_expr(handler.type)
            if handler.name:
                self.emit(Instr("kill", handler.lineno, dst=handler.name))
            self.visit_body(handler.body)
            if self.cur is not None:
                handler_ends.append(self.cur)
            # an uncaught re-raise inside the handler still hits the finally
            if fin_ctx is not None:
                entry.edge(fin_ctx.entry)

        if fin_ctx is not None:
            self.finallys.pop()
            for end in [normal_end, *handler_ends]:
                if end is not None:
                    end.edge(fin_ctx.entry)
            if fin_ctx.exit_block is not None:
                fexit = self.blocks[fin_ctx.exit_block]
                fexit.edge(after.bid)
                fexit.edge(self.exit)  # exceptional pass-through
                for target in fin_ctx.extra:
                    fexit.edge(target)
        else:
            for end in [normal_end, *handler_ends]:
                if end is not None:
                    end.edge(after.bid)
        self.cur = self.blocks[after.bid]

    def _visit_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        detaches: list[Instr] = []
        for item in stmt.items:
            ctx = item.context_expr
            unwrapped = _unwrap(ctx)
            direction = _attach_direction(unwrapped)
            if direction is not None and isinstance(unwrapped, ast.Call):
                var = (
                    item.optional_vars.id
                    if isinstance(item.optional_vars, ast.Name)
                    else None
                )
                # receiver expression of the attach still evaluates
                self._lower_call_subexprs(unwrapped)
                if var is not None:
                    site = self._attach(var, direction, ctx.lineno)
                    detaches.append(
                        Instr("op", ctx.lineno, op="detach", var=var, site=site)
                    )
            elif isinstance(ctx, ast.Name):
                # ``with conn:`` — the context manager detaches on exit
                detaches.append(Instr("op", ctx.lineno, op="detach", var=ctx.id))
                if isinstance(item.optional_vars, ast.Name):
                    self.emit(Instr("kill", ctx.lineno, dst=item.optional_vars.id))
            else:
                self._lower_expr(ctx)
                if isinstance(item.optional_vars, ast.Name):
                    self.emit(Instr("kill", ctx.lineno, dst=item.optional_vars.id))
                elif item.optional_vars is not None:
                    self._kill_target(item.optional_vars)
        if not detaches:
            self.visit_body(stmt.body)
            return
        # synthetic finally region: the detach(es) run on every exit
        epilogue = self.new_block()
        for ins in detaches:
            self.cur, saved = epilogue, self.cur
            self.emit(ins)
            self.cur = saved
        after = self.new_block()
        fin = _FinallyCtx(epilogue.bid, epilogue.bid)
        self.finallys.append(fin)
        self.visit_body(stmt.body)
        self.finallys.pop()
        if self.cur is not None:
            self.cur.edge(epilogue.bid)
        epilogue.edge(after.bid)
        epilogue.edge(self.exit)
        for target in fin.extra:
            epilogue.edge(target)
        self.cur = self.blocks[after.bid]

    def _visit_match(self, stmt: ast.Match) -> None:
        self._lower_expr(stmt.subject)
        subject = self.cur
        after = self.new_block()
        for case in stmt.cases:
            body = self.new_block()
            if subject is not None:
                subject.edge(body.bid)
            self.cur = body
            for name in _pattern_names(case.pattern):
                self.emit(Instr("kill", stmt.lineno, dst=name))
            if case.guard is not None:
                self._lower_expr(case.guard, test=True)
            self.visit_body(case.body)
            if self.cur is not None:
                self.cur.edge(after.bid)
        if subject is not None:
            subject.edge(after.bid)  # no case may match
        self.cur = self.blocks[after.bid]

    # -- simple statements & expressions ----------------------------------

    def _attach(self, var: str, direction: str, line: int) -> str:
        site = f"a{len(self.sites)}"
        self.sites[site] = SiteInfo(site, var, direction, line)
        self.emit(Instr("attach", line, var=var, direction=direction, site=site))
        return site

    def _kill_target(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.emit(Instr("kill", node.lineno, dst=node.id))
            elif isinstance(node, (ast.Attribute, ast.Subscript)):
                self._lower_expr(node.value)

    def _emit_closure_uses(self, stmt: ast.stmt) -> None:
        """Names loaded inside a nested def/class body leak from this scope
        (the legacy walker's escape rule; obligations may move elsewhere)."""
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                self.emit(Instr("use", sub.lineno, var=sub.id))

    def _lower_simple(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._lower_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._lower_assign([stmt.target], stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            synth = ast.BinOp(
                left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                op=stmt.op,
                right=stmt.value,
            ) if isinstance(stmt.target, ast.Name) else None
            self._lower_expr(stmt.value)
            if synth is not None and isinstance(stmt.target, ast.Name):
                ast.copy_location(synth, stmt)
                ast.copy_location(synth.left, stmt)
                self.emit(Instr("assign", stmt.lineno, dst=stmt.target.id, expr=synth))
            else:
                self._kill_target(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._kill_target(target)
        elif isinstance(stmt, ast.Expr):
            self._lower_expr(stmt.value)
        elif isinstance(stmt, ast.Assert):
            self._lower_expr(stmt.test, test=True)
            if stmt.msg is not None:
                self._lower_expr(stmt.msg)
        elif isinstance(
            stmt, (ast.Pass, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
        ):
            pass
        else:  # pragma: no cover - future statement kinds degrade gracefully
            self._lower_expr_children(stmt)

    def _lower_expr_children(self, stmt: ast.stmt) -> None:
        for _name, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                self._lower_expr(value)
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, ast.expr):
                        self._lower_expr(v)

    # .. the expression lowering core .....................................

    def _lower_assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        pairs: list[tuple[ast.expr, ast.expr]] = []
        unwrapped = _unwrap(value)
        for target in targets:
            if (
                isinstance(target, ast.Tuple)
                and isinstance(unwrapped, ast.Tuple)
                and len(target.elts) == len(unwrapped.elts)
            ):
                pairs.extend(zip(target.elts, unwrapped.elts, strict=True))
            else:
                pairs.append((target, value))
        binds: list[Instr] = []
        item_binds: dict[int, str] = {}
        recognized: set[int] = set()
        handled: set[int] = set()
        for target, val in pairs:
            uv = _unwrap(val)
            if not isinstance(target, ast.Name):
                self._kill_target(target)
                self._lower_expr(val)
                handled.add(id(val))
                continue
            direction = _attach_direction(uv)
            if direction is not None and isinstance(uv, ast.Call):
                self._lower_call_subexprs(uv)
                self._attach(target.id, direction, target.lineno)
                handled.add(id(val))
                continue
            get_call = _get_call(uv)
            if get_call is not None:
                # bind travels on the op instruction itself
                item_binds[id(get_call)] = target.id
            elif isinstance(uv, ast.Name):
                recognized.add(id(uv))
                binds.append(
                    Instr("alias", target.lineno, dst=target.id, src=uv.id)
                )
            else:
                binds.append(
                    Instr("assign", target.lineno, dst=target.id, expr=uv)
                )
        # loads/calls/ops of the RHS (original exprs: the awaited-call walk
        # must still see enclosing ``await``s), with item binds attached
        for _target, val in pairs:
            if id(val) in handled:
                continue
            self._lower_expr(val, item_binds=item_binds, recognized=recognized)
        for ins in binds:
            self.emit(ins)

    def _lower_call_subexprs(self, call: ast.Call) -> None:
        """Evaluate an attach call's receiver/arguments for their loads."""
        func = call.func
        if isinstance(func, ast.Attribute):
            self._lower_expr(func.value)
        for arg in call.args:
            self._lower_expr(arg)
        for kw in call.keywords:
            self._lower_expr(kw.value)

    def _lower_expr(
        self,
        expr: ast.expr,
        test: bool = False,
        item_binds: dict[int, str] | None = None,
        recognized: set[int] | None = None,
    ) -> None:
        """Emit loads, generic calls, and STM ops for one expression, in
        uses-before-ops order (a use at a ``consume`` line reads the value
        before the consume lands)."""
        item_binds = item_binds or {}
        recognized = set(recognized or ())
        awaited: set[int] = set()
        ops: list[tuple[ast.Call, str, str, ast.expr | None]] = []
        calls: list[ast.Call] = []
        test_ids = _test_name_ids(expr) if test else set()

        for node in ast.walk(expr):
            # ``item.timestamp`` reads immutable handle metadata — safe
            # after consume (only payloads are reclaimed), so it is a
            # non-leaking test-style load, not a use
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "timestamp"
                and isinstance(node.value, ast.Name)
            ):
                test_ids.add(id(node.value))
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
            if isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                get_call = _get_call(_unwrap(node.value))
                if get_call is not None:
                    item_binds[id(get_call)] = node.target.id
                else:
                    self.emit(Instr("kill", node.lineno, dst=node.target.id))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _OP_METHODS
                and isinstance(func.value, ast.Name)
            ):
                recognized.add(id(func.value))
                ops.append((node, _op_kind(func.attr), func.value.id,
                            node.args[0] if node.args else None))
            elif isinstance(func, ast.Name) and func.id in _SPD_FUNCS:
                if node.args and isinstance(node.args[0], ast.Name):
                    recognized.add(id(node.args[0]))
                    ops.append(
                        (node, _op_kind(func.id), node.args[0].id,
                         node.args[1] if len(node.args) > 1 else None)
                    )
            elif isinstance(func, ast.Name) and func.id not in _SPD_ATTACH:
                calls.append(node)
                for pos, arg in enumerate(node.args):
                    if isinstance(arg, ast.Name):
                        recognized.add(id(arg))

        # 1. plain loads (skipping recognized op receivers / call args);
        #    loads under a lambda still leak (legacy escape rule).
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in recognized
            ):
                kind = "test" if id(node) in test_ids else "use"
                self.emit(Instr(kind, node.lineno, var=node.id))

        # 2. generic calls (interprocedural summary application)
        for node in calls:
            conn_args = {
                pos: arg.id
                for pos, arg in enumerate(node.args)
                if isinstance(arg, ast.Name)
            }
            self.emit(
                Instr(
                    "call",
                    node.lineno,
                    callee=node.func.id,
                    conn_args=conn_args,
                    awaited=id(node) in awaited,
                )
            )

        # 3. STM ops
        for node, kind, var, ts in ops:
            self.emit(
                Instr(
                    "op",
                    node.lineno,
                    op=kind,
                    var=var,
                    ts=ts,
                    item=item_binds.get(id(node)),
                    awaited=id(node) in awaited,
                    blocking=_blocking(node),
                )
            )


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def _unwrap(value: ast.expr) -> ast.expr:
    while isinstance(value, (ast.Await, ast.YieldFrom)):
        value = value.value
    if isinstance(value, ast.Yield) and value.value is not None:
        return value.value
    return value


def _attach_direction(value: ast.expr) -> str | None:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
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


def _get_call(value: ast.expr) -> ast.Call | None:
    """``conn.get(...)`` / ``conn.get_consume(...)`` / ``spd_channel_get_item(conn, ...)``."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _GET | _GET_CONSUME
        and isinstance(func.value, ast.Name)
    ):
        return value
    if (
        isinstance(func, ast.Name)
        and func.id in _SPD_FUNCS & (_GET | _GET_CONSUME)
        and value.args
        and isinstance(value.args[0], ast.Name)
    ):
        return value
    return None


def _op_kind(name: str) -> str:
    if name in _GET:
        return "get"
    if name in _GET_CONSUME:
        return "get_consume"
    if name in _CONSUME:
        return "consume"
    if name in _CONSUME_UNTIL:
        return "consume_until"
    if name in _PUT:
        return "put"
    return "detach"


def _blocking(node: ast.Call) -> bool:
    blocking = True
    for kw in node.keywords:
        if kw.arg == "block" and isinstance(kw.value, ast.Constant):
            blocking = bool(kw.value.value)
        if kw.arg == "timeout" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            blocking = False
    return blocking


def _test_name_ids(expr: ast.expr) -> set[int]:
    """Name nodes whose load is a pure truth/None test (no leak)."""
    out: set[int] = set()
    stack: list[ast.expr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.add(id(node))
        elif isinstance(node, ast.BoolOp):
            stack.extend(node.values)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            stack.append(node.operand)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(o, ast.Constant) and o.value is None for o in operands
            ):
                stack.extend(
                    o for o in operands if isinstance(o, ast.Name)
                )
    return out


def _pattern_names(pattern: ast.pattern) -> list[str]:
    names: list[str] = []
    for node in ast.walk(pattern):
        name = getattr(node, "name", None)
        if isinstance(name, str):
            names.append(name)
    return names


def build_cfg(scope: Scope) -> CFG:
    builder = _Builder(scope)
    return CFG(
        qualname=scope.qualname,
        file=scope.file,
        line=scope.line,
        is_async=scope.is_async,
        params=scope.params,
        blocks=builder.blocks,
        entry=builder.entry,
        exit=builder.exit,
        sites=builder.sites,
    )
