"""Intra-procedural control-flow graphs over function ASTs.

A :class:`CFG` has one node per *statement* plus three synthetic nodes:
``entry``, ``exit`` (normal returns / fall-through), and ``raise_exit``
(uncaught exceptions).  Edges are labelled ``normal`` or ``exception``:

- branches (``if``/``elif``/``else``), loops (``while``/``for`` with back
  edges, ``break``/``continue``), ``with`` bodies, and early ``return``s
  produce ``normal`` edges;
- every statement that *may raise* (it contains a call, a ``yield``, an
  ``await``, a ``raise``, or an ``assert``) gets an ``exception`` edge to
  the innermost enclosing handler set — ``except`` headers and/or the
  ``finally`` entry — or to ``raise_exit`` when unprotected.  In this
  simulator the edges are not theoretical: :meth:`Process.interrupt`
  throws :class:`~repro.sim.events.Interrupt` into a process at whatever
  ``yield`` it is suspended on, so *any* yield point is a live exception
  source.

``finally`` bodies are laid out once and their exit fans out to every
continuation that can flow through them (normal fall-through, exception
propagation, routed ``return``/``break``/``continue``).  This merges paths
— standard for lint-grade CFGs — and is conservative in the direction the
dataflow clients here need (a leak that survives the merge is a leak on
some real path).

Yield points are flagged on the node (:attr:`CFGNode.is_yield`) so
dataflow rules can reason about suspension while resources are held.
"""

from __future__ import annotations

import ast
import typing

#: Edge labels.
NORMAL = "normal"
EXCEPTION = "exception"


class CFGNode:
    """One statement (or synthetic point) in the control-flow graph."""

    __slots__ = ("index", "stmt", "label", "succ", "pred")

    def __init__(self, index: int, stmt: ast.stmt | None,
                 label: str) -> None:
        self.index = index
        #: The statement this node represents; None for synthetic nodes.
        self.stmt = stmt
        #: ``entry`` / ``exit`` / ``raise_exit`` / ``stmt``.
        self.label = label
        #: Outgoing edges as ``(target, kind)`` pairs, deterministic order.
        self.succ: list[tuple[CFGNode, str]] = []
        #: Incoming edges as ``(source, kind)`` pairs.
        self.pred: list[tuple[CFGNode, str]] = []

    @property
    def is_yield(self) -> bool:
        """True when the statement contains a ``yield`` / ``yield from``.

        Nested function bodies do not count: their yields belong to the
        nested function's own CFG.
        """
        if self.stmt is None:
            return False
        return _contains_yield(self.stmt)

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def __repr__(self) -> str:
        kind = type(self.stmt).__name__ if self.stmt is not None else "-"
        return f"<CFGNode {self.index} {self.label} {kind} L{self.lineno}>"


class CFG:
    """Control-flow graph of one function / generator body."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.nodes: list[CFGNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        self.raise_exit = self._new(None, "raise_exit")
        _Builder(self).build()

    def _new(self, stmt: ast.stmt | None, label: str = "stmt") -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, label)
        self.nodes.append(node)
        return node

    def statements(self) -> list[CFGNode]:
        """The statement nodes in source order."""
        return [n for n in self.nodes if n.stmt is not None]


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the CFG for one function definition."""
    return CFG(func)


def _link(src: CFGNode, dst: CFGNode, kind: str = NORMAL) -> None:
    pair = (dst, kind)
    if pair not in src.succ:
        src.succ.append(pair)
        dst.pred.append((src, kind))


def _contains_yield(stmt: ast.stmt) -> bool:
    for node in walk_same_scope(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def may_raise(stmt: ast.stmt) -> bool:
    """Default may-raise predicate: calls, yields, awaits, raise, assert.

    ``yield`` counts because :meth:`Process.interrupt` delivers exceptions
    at suspension points; plain data statements (constant assignments,
    ``pass``, ``global``) cannot raise in any way this linter cares about.
    """
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in walk_same_scope(stmt):
        if isinstance(node, (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)):
            return True
    return False


def walk_same_scope(stmt: ast.stmt) -> typing.Iterator[ast.AST]:
    """Walk what executes *at* ``stmt`` in the enclosing frame.

    Compound statements contribute only their header expressions (bodies
    get their own CFG nodes); ``def``/``class`` statements contribute
    their decorators and argument defaults (those run at definition time);
    nested function/lambda bodies are never descended into.
    """
    roots: list[ast.AST]
    if isinstance(stmt, (ast.If, ast.While)):
        roots = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.target, stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots = list(stmt.decorator_list)
        roots.extend(d for d in stmt.args.defaults)
        roots.extend(d for d in stmt.args.kw_defaults if d is not None)
    elif isinstance(stmt, ast.ClassDef):
        roots = list(stmt.decorator_list) + list(stmt.bases)
    elif isinstance(stmt, ast.Try) or (hasattr(ast, "TryStar")
                                       and isinstance(stmt, ast.TryStar)):
        return  # bodies get their own nodes; the header itself is inert
    else:
        roots = [stmt]
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue  # a nested frame: nothing of ours executes inside
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


class _Frame:
    """Per-``try`` routing context while building."""

    __slots__ = ("exc_targets", "finally_entry", "demands")

    def __init__(self, exc_targets: list[CFGNode],
                 finally_entry: CFGNode | None) -> None:
        #: Where exceptions raised under this frame flow first.
        self.exc_targets = exc_targets
        self.finally_entry = finally_entry
        #: Continuations demanded through the ``finally`` body
        #: (populated by routed return/break/continue/exception edges).
        self.demands: list[CFGNode] = []


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: Stack of (continue_target, break_targets, frame_depth) per
        #: enclosing loop; ``frame_depth`` is ``len(self.frames)`` at loop
        #: entry, so jump routing only runs finallys *inside* the loop.
        self.loops: list[tuple[CFGNode, list[CFGNode], int]] = []
        #: Stack of enclosing try frames, innermost last.
        self.frames: list[_Frame] = []

    # -- helpers -------------------------------------------------------

    def exc_targets(self) -> list[CFGNode]:
        if self.frames:
            return self.frames[-1].exc_targets
        return [self.cfg.raise_exit]

    def route_jump(self, node: CFGNode, target: CFGNode,
                   min_depth: int = 0) -> bool:
        """Edge from ``node`` to ``target`` through enclosing finallys.

        A ``return`` (or ``break``/``continue``) inside ``try``/``finally``
        runs every enclosing ``finally`` body first; the merged model
        routes the edge into the innermost ``finally`` entry (no shallower
        than ``min_depth``) and records ``target`` as a demanded
        continuation of that frame.  Returns True when routed through a
        finally, False when the caller must link (or collect) directly.
        """
        for frame in reversed(self.frames[min_depth:]):
            if frame.finally_entry is not None:
                _link(node, frame.finally_entry)
                if target not in frame.demands:
                    frame.demands.append(target)
                return True
        return False

    # -- main ----------------------------------------------------------

    def build(self) -> None:
        frontier = self.build_body(self.cfg.func.body, [self.cfg.entry])
        for node in frontier:
            _link(node, self.cfg.exit)

    def build_body(self, stmts: list[ast.stmt],
                   frontier: list[CFGNode]) -> list[CFGNode]:
        for stmt in stmts:
            frontier = self.build_stmt(stmt, frontier)
        return frontier

    def build_stmt(self, stmt: ast.stmt,
                   frontier: list[CFGNode]) -> list[CFGNode]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._build_while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._build_for(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, frontier)
        if isinstance(stmt, ast.Try) or (hasattr(ast, "TryStar")
                                         and isinstance(stmt, ast.TryStar)):
            return self._build_try(stmt, frontier)
        # Simple statement: one node.
        node = self._stmt_node(stmt, frontier)
        if isinstance(stmt, ast.Return):
            if not self.route_jump(node, self.cfg.exit):
                _link(node, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            # The exception edge added by _stmt_node is the only way out.
            return []
        if isinstance(stmt, ast.Break):
            if self.loops:
                header, breaks, depth = self.loops[-1]
                if not self.route_jump(node, _BreakMark(breaks),
                                       min_depth=depth):
                    breaks.append(node)
            return []
        if isinstance(stmt, ast.Continue):
            if self.loops:
                header, breaks, depth = self.loops[-1]
                if not self.route_jump(node, header, min_depth=depth):
                    _link(node, header)
            return []
        return [node]

    def _stmt_node(self, stmt: ast.stmt,
                   frontier: list[CFGNode]) -> CFGNode:
        node = self.cfg._new(stmt)
        for prev in frontier:
            _link(prev, node)
        if may_raise(stmt):
            for target in self.exc_targets():
                _link(node, target, EXCEPTION)
        return node

    # -- compound statements -------------------------------------------

    def _build_if(self, stmt: ast.If,
                  frontier: list[CFGNode]) -> list[CFGNode]:
        header = self._stmt_node(stmt, frontier)
        then_exit = self.build_body(stmt.body, [header])
        if stmt.orelse:
            else_exit = self.build_body(stmt.orelse, [header])
        else:
            else_exit = [header]
        return then_exit + else_exit

    def _build_while(self, stmt: ast.While,
                     frontier: list[CFGNode]) -> list[CFGNode]:
        header = self._stmt_node(stmt, frontier)
        breaks: list[CFGNode] = []
        self.loops.append((header, breaks, len(self.frames)))
        body_exit = self.build_body(stmt.body, [header])
        self.loops.pop()
        for node in body_exit:
            _link(node, header)  # back edge
        exits = breaks
        infinite = (isinstance(stmt.test, ast.Constant)
                    and bool(stmt.test.value))
        if not infinite:
            exits = exits + [header]  # condition-false exit
        if stmt.orelse:
            return self.build_body(stmt.orelse, exits) if exits else []
        return exits

    def _build_for(self, stmt: ast.For | ast.AsyncFor,
                   frontier: list[CFGNode]) -> list[CFGNode]:
        header = self._stmt_node(stmt, frontier)
        breaks: list[CFGNode] = []
        self.loops.append((header, breaks, len(self.frames)))
        body_exit = self.build_body(stmt.body, [header])
        self.loops.pop()
        for node in body_exit:
            _link(node, header)
        exits = breaks + [header]  # iterator exhaustion
        if stmt.orelse:
            return self.build_body(stmt.orelse, exits)
        return exits

    def _build_with(self, stmt: ast.With | ast.AsyncWith,
                    frontier: list[CFGNode]) -> list[CFGNode]:
        header = self._stmt_node(stmt, frontier)
        return self.build_body(stmt.body, [header])

    def _build_try(self, stmt: ast.Try,
                   frontier: list[CFGNode]) -> list[CFGNode]:
        cfg = self.cfg
        handler_heads: list[CFGNode] = []
        handler_nodes: list[tuple[ast.ExceptHandler, CFGNode]] = []
        for handler in stmt.handlers:
            head = cfg._new(handler, "stmt")  # type: ignore[arg-type]
            handler_heads.append(head)
            handler_nodes.append((handler, head))

        finally_entry: CFGNode | None = None
        if stmt.finalbody:
            finally_entry = cfg._new(None, "finally")

        outer_targets = self.exc_targets()
        # Exceptions in the try body reach the handlers; with no handlers
        # (or a non-matching / re-raising one) they reach the finally, or
        # propagate outward directly.
        body_targets = list(handler_heads)
        if finally_entry is not None:
            body_targets = body_targets + [finally_entry]
        if not body_targets:
            body_targets = list(outer_targets)

        frame = _Frame(body_targets, finally_entry)
        self.frames.append(frame)
        body_exit = self.build_body(stmt.body, frontier)
        self.frames.pop()

        # else-clause runs after a clean try body; its exceptions are NOT
        # caught by this try's handlers.
        else_frame = _Frame(
            [finally_entry] if finally_entry is not None else outer_targets,
            finally_entry)
        self.frames.append(else_frame)
        if stmt.orelse:
            body_exit = self.build_body(stmt.orelse, body_exit)
        # Handler bodies: exceptions raised inside them flow to finally /
        # outward too.
        handler_exits: list[CFGNode] = []
        for handler, head in handler_nodes:
            handler_exits.extend(self.build_body(handler.body, [head]))
        self.frames.pop()
        frame.demands.extend(else_frame.demands)

        normal_exits = body_exit + handler_exits
        if finally_entry is None:
            return normal_exits

        # Lay the finally body out once; everything funnels through it.
        for node in normal_exits:
            _link(node, finally_entry)
        finally_exit = self.build_body(stmt.finalbody, [finally_entry])
        continuations: list[CFGNode] = []
        for node in finally_exit:
            # Exception propagation resumes after the finally completes.
            for target in outer_targets:
                _link(node, target, EXCEPTION)
            for demand in frame.demands:
                if isinstance(demand, _BreakMark):
                    # Approximation: a break through nested finallys skips
                    # finallys between this one and the loop.
                    demand.targets.append(node)
                elif demand is cfg.exit:
                    # A routed return still runs *outer* finallys first.
                    if not self.route_jump(node, demand):
                        _link(node, demand)
                else:
                    _link(node, demand)
            continuations.append(node)
        return continuations


class _BreakMark(CFGNode):
    """Placeholder target used when a ``break`` routes through ``finally``.

    ``route_jump`` needs a node-shaped target for break edges whose real
    destination (the loop exit frontier) is not known yet; the mark keeps
    the list the loop will drain.
    """

    __slots__ = ("targets",)

    def __init__(self, targets: list[CFGNode]) -> None:
        super().__init__(-1, None, "break-mark")
        self.targets = targets
