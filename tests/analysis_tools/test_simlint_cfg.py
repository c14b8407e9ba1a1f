"""CFG construction and dataflow fixpoint tests for simlint v2."""

import ast
import textwrap

from repro.analysis_tools.simlint.cfg import (
    EXCEPTION,
    NORMAL,
    build_cfg,
)
from repro.analysis_tools.simlint.dataflow import (
    EMPTY,
    GenKillProblem,
    solve,
)


def cfg_for(source):
    """Build the CFG of the first function in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef))
    return build_cfg(func)


def node_at(cfg, snippet):
    """The *innermost* CFG node whose statement dump contains ``snippet``.

    Compound statements (If/While/Try) contain their bodies in the AST
    dump, so the smallest match picks the nested statement rather than
    the enclosing header.
    """
    matches = [node for node in cfg.statements()
               if snippet in ast.dump(node.stmt)]
    if not matches:
        raise AssertionError(f"no statement matching {snippet!r}")
    return min(matches, key=lambda node: len(ast.dump(node.stmt)))


def successors(node, kind=None):
    return [target for target, edge_kind in node.succ
            if kind is None or edge_kind == kind]


# ----------------------------------------------------------------------
# CFG shapes
# ----------------------------------------------------------------------

def test_straight_line_chains_to_exit():
    cfg = cfg_for("""
        def f():
            a = 1
            b = 2
    """)
    first = node_at(cfg, "'a'")
    second = node_at(cfg, "'b'")
    assert successors(first, NORMAL) == [second]
    assert cfg.exit in successors(second, NORMAL)


def test_branch_rejoins_after_if():
    cfg = cfg_for("""
        def f(x):
            if x:
                a = 1
            else:
                b = 2
            c = 3
    """)
    then_node = node_at(cfg, "'a'")
    else_node = node_at(cfg, "'b'")
    join = node_at(cfg, "'c'")
    assert successors(then_node, NORMAL) == [join]
    assert successors(else_node, NORMAL) == [join]


def test_if_without_else_falls_through():
    cfg = cfg_for("""
        def f(x):
            if x:
                a = 1
            c = 3
    """)
    header = node_at(cfg, "Name(id='x'")
    join = node_at(cfg, "'c'")
    # Both the taken branch and the skip go on to the join.
    assert join in successors(node_at(cfg, "'a'"), NORMAL)
    assert join in successors(header, NORMAL)


def test_while_loop_back_edge_break_and_continue():
    cfg = cfg_for("""
        def f(x):
            while x:
                if x > 1:
                    break
                if x > 2:
                    continue
                a = 1
            done = True
    """)
    header = node_at(cfg, "While")
    after = node_at(cfg, "'done'")
    break_node = node_at(cfg, "Break")
    continue_node = node_at(cfg, "Continue")
    body_tail = node_at(cfg, "'a'")
    assert successors(break_node, NORMAL) == [after]
    assert successors(continue_node, NORMAL) == [header]
    assert successors(body_tail, NORMAL) == [header]
    assert after in successors(header, NORMAL)


def test_early_return_goes_to_exit():
    cfg = cfg_for("""
        def f(x):
            if x:
                return 1
            y = 2
    """)
    ret = node_at(cfg, "Return")
    assert successors(ret, NORMAL) == [cfg.exit]


def test_raising_statement_has_exception_edge_to_raise_exit():
    cfg = cfg_for("""
        def f(x):
            y = g(x)
    """)
    call = node_at(cfg, "'g'")
    assert cfg.raise_exit in successors(call, EXCEPTION)


def reachable(start, kind=None):
    """All nodes reachable from ``start``; the first hop may be
    restricted to edge ``kind``."""
    first = successors(start, kind)
    seen = set()
    queue = list(first)
    while queue:
        node = queue.pop()
        if node.index in seen:
            continue
        seen.add(node.index)
        queue.extend(target for target, _ in node.succ)
    return {node.index for node in first} | seen


def test_try_finally_routes_both_paths_through_finally():
    cfg = cfg_for("""
        def f():
            before = 1
            try:
                risky()
            finally:
                cleanup()
            after = 2
    """)
    risky = node_at(cfg, "'risky'")
    cleanup = node_at(cfg, "'cleanup'")
    after = node_at(cfg, "'after'")
    # Normal completion runs the finally (possibly via a synthetic
    # entry node) then continues past the try.
    assert cleanup.index in reachable(risky, NORMAL)
    assert after in successors(cleanup, NORMAL)
    # An exception also runs the finally, then propagates out.
    assert cleanup.index in reachable(risky, EXCEPTION)
    assert cfg.raise_exit in successors(cleanup)


def test_try_except_routes_exception_to_handler():
    cfg = cfg_for("""
        def f():
            try:
                risky()
            except ValueError:
                handled = 1
            after = 2
    """)
    risky = node_at(cfg, "'risky'")
    handled = node_at(cfg, "'handled'")
    after = node_at(cfg, "'after'")
    handler_targets = successors(risky, EXCEPTION)
    assert any(handled in successors(t, NORMAL) or t is handled
               for t in handler_targets)
    assert after in successors(handled, NORMAL)


def test_yield_statements_are_marked():
    cfg = cfg_for("""
        def f(res):
            request = res.request()
            yield request
            res.release(request)
    """)
    grant = node_at(cfg, "Yield")
    assert grant.is_yield
    assert not node_at(cfg, "'release'").is_yield


def test_for_loop_iterates_and_exits():
    cfg = cfg_for("""
        def f(items):
            for item in items:
                use(item)
            done = True
    """)
    header = node_at(cfg, "For")
    body = node_at(cfg, "'use'")
    after = node_at(cfg, "'done'")
    assert body in successors(header, NORMAL)
    assert after in successors(header, NORMAL)
    assert header in successors(body, NORMAL)


# ----------------------------------------------------------------------
# Dataflow fixpoint
# ----------------------------------------------------------------------

class TrackAssign(GenKillProblem):
    """Gen the name on ``x = ...``; kill it on ``del``-like marker calls."""

    direction = "forward"
    mode = "may"

    def gen(self, node):
        stmt = node.stmt
        if (isinstance(stmt, ast.Assign)
                and isinstance(stmt.targets[0], ast.Name)):
            return frozenset({stmt.targets[0].id})
        return EMPTY

    def kill(self, node):
        stmt = node.stmt
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == "clear"):
            return frozenset(
                arg.id for arg in stmt.value.args
                if isinstance(arg, ast.Name))
        return EMPTY


def test_forward_may_union_over_branches():
    cfg = cfg_for("""
        def f(x):
            if x:
                a = 1
            else:
                b = 2
            tail = 3
    """)
    solution = solve(cfg, TrackAssign())
    tail = node_at(cfg, "'tail'")
    assert solution.before(tail) == frozenset({"a", "b"})


def test_kill_removes_fact_on_the_killing_path():
    cfg = cfg_for("""
        def f(x):
            a = 1
            clear(a)
            tail = 3
    """)
    solution = solve(cfg, TrackAssign())
    assert solution.before(node_at(cfg, "'tail'")) == EMPTY


def test_loop_fixpoint_accumulates_iteration_facts():
    cfg = cfg_for("""
        def f(items):
            for item in items:
                a = 1
            tail = 3
    """)
    solution = solve(cfg, TrackAssign())
    # The loop may run zero times, but 'a' may also be live at the tail.
    assert "a" in solution.before(node_at(cfg, "'tail'"))


def test_exception_edge_does_not_apply_gen():
    """An acquisition that raises never held the slot: the canonical
    ``x = acquire(); try: ... finally: release(x)`` must analyse clean."""
    cfg = cfg_for("""
        def f(res):
            a = g()
            tail = 3
    """)
    solution = solve(cfg, TrackAssign())
    # Along the exception edge out of the assignment, 'a' is NOT genned.
    assert "a" not in solution.before(cfg.raise_exit)
    # Along the normal path it is.
    assert "a" in solution.before(node_at(cfg, "'tail'"))


def test_solver_is_deterministic():
    source = """
        def f(x):
            if x:
                a = 1
            while x:
                b = 2
                if a:
                    break
            tail = 3
    """
    states = []
    for _ in range(3):
        cfg = cfg_for(source)
        solution = solve(cfg, TrackAssign())
        states.append(sorted(
            (node.index, tuple(sorted(solution.before(node))))
            for node in cfg.statements()))
    assert states[0] == states[1] == states[2]
