"""A worklist fixpoint solver over the simlint CFG.

Every problem the rules define is a forward may-analysis: a fact holds at
a point when it holds along *some* path from the entry.  Rules describe
their analysis as a :class:`GenKillProblem` subclass; the solver owns
iteration order, convergence, and edge semantics.

One edge refinement matters for the pairing rules: on an *exception*
edge the gen set of the raising statement is **not** applied (its kill set
is).  An ``x = res.request()`` that raises never granted the slot, while a
``res.release(x)`` whose surroundings raise has already returned it — so
exception paths see acquisitions as not-yet-taken and releases as done.
Without this, every ``try: ... finally: release()`` would report its own
cleanup as a leak.
"""

from __future__ import annotations

import collections

from repro.analysis_tools.simlint.cfg import CFG, EXCEPTION, CFGNode

State = frozenset[str]
EMPTY: State = frozenset()


class GenKillProblem:
    """A forward gen/kill dataflow problem over value names."""

    def gen(self, node: CFGNode) -> State:
        return EMPTY

    def kill(self, node: CFGNode) -> State:
        return EMPTY

    def transfer(self, node: CFGNode, state: State) -> State:
        """Default transfer: ``(state - kill) | gen``."""
        return (state - self.kill(node)) | self.gen(node)

    def exception_transfer(self, node: CFGNode, state: State) -> State:
        """Transfer applied along exception edges leaving ``node``.

        Kills apply (cleanup that ran, ran); gens do not (the raising
        statement never completed its acquisition).
        """
        return state - self.kill(node)


class Solution:
    """Fixpoint states: ``state_in[i]`` / ``state_out[i]`` per node index."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.state_in: dict[int, State] = {}
        self.state_out: dict[int, State] = {}

    def before(self, node: CFGNode) -> State:
        return self.state_in.get(node.index, EMPTY)


def solve(cfg: CFG, problem: GenKillProblem) -> Solution:
    """Run the worklist algorithm to fixpoint; deterministic order.

    States start empty and only grow (union joins, monotone transfers),
    so the result is the least fixpoint whatever the visiting order; the
    order is still fixed (by node index, then by edge order) so that a
    run is reproducible step for step.
    """
    solution = Solution(cfg)
    state_in = solution.state_in
    state_out = solution.state_out
    for node in cfg.nodes:
        state_in[node.index] = EMPTY
        state_out[node.index] = EMPTY
    pending = collections.deque(cfg.nodes)
    on_list = {node.index for node in pending}
    while pending:
        node = pending.popleft()
        on_list.discard(node.index)
        joined = EMPTY
        for source, kind in node.pred:
            if kind == EXCEPTION:
                joined |= problem.exception_transfer(
                    source, state_in[source.index])
            else:
                joined |= state_out[source.index]
        new_out = problem.transfer(node, joined)
        if (joined == state_in[node.index]
                and new_out == state_out[node.index]):
            continue
        state_in[node.index] = joined
        state_out[node.index] = new_out
        for target, _kind in node.succ:
            if target.index not in on_list:
                on_list.add(target.index)
                pending.append(target)
    return solution
