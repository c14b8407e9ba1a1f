"""The endorsement-policy language: AST, parser, evaluator, target planner.

Fabric policies are boolean expressions over endorsing-peer principals
(§II of the paper): ``AND('p0','p1')``, ``OR('p0','p1','p2')``,
``OutOf(2,'p0','p1','p2')``, arbitrarily nested.

Three operations matter to the simulation:

- :meth:`EndorsementPolicy.evaluate` — does a set of endorsers satisfy the
  policy?  Used by VSCC in the validate phase.
- :meth:`EndorsementPolicy.select_targets` — which peers should a client send
  the proposal to?  OR branches are load-balanced via a chooser callback
  (the paper's clients round-robin across the OR targets, which is what
  makes the execute phase scale under OR).
- :meth:`EndorsementPolicy.max_required` — how many endorsements a satisfying
  set can require; drives VSCC cost (AND verifies more signatures than OR).
"""

from __future__ import annotations

import re
import typing

from repro.common.config import TopologyConfig
from repro.common.errors import ConfigurationError

# Callback deciding among ``n`` alternatives; returns an index in [0, n).
Chooser = typing.Callable[[int], int]


class EndorsementPolicy:
    """Base class for policy AST nodes."""

    def evaluate(self, endorsers: typing.AbstractSet[str]) -> bool:
        """True iff ``endorsers`` satisfies this policy."""
        raise NotImplementedError

    def select_targets(self, chooser: Chooser) -> set[str]:
        """A minimal set of peers whose endorsements satisfy the policy."""
        raise NotImplementedError

    def principals(self) -> set[str]:
        """All peer names mentioned anywhere in the policy."""
        raise NotImplementedError

    def min_required(self) -> int:
        """Size of the smallest satisfying endorser set."""
        raise NotImplementedError

    def max_required(self) -> int:
        """Size of the largest minimal satisfying endorser set."""
        raise NotImplementedError

    def to_spec(self) -> str:
        """Round-trippable textual form."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_spec()}>"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EndorsementPolicy)
                and self.to_spec() == other.to_spec())

    def __hash__(self) -> int:
        return hash(self.to_spec())


class Principal(EndorsementPolicy):
    """A single named endorsing peer."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("principal name must be non-empty")
        self.name = name

    def evaluate(self, endorsers: typing.AbstractSet[str]) -> bool:
        return self.name in endorsers

    def select_targets(self, chooser: Chooser) -> set[str]:
        return {self.name}

    def principals(self) -> set[str]:
        return {self.name}

    def min_required(self) -> int:
        return 1

    def max_required(self) -> int:
        return 1

    def to_spec(self) -> str:
        return f"'{self.name}'"


class _Composite(EndorsementPolicy):
    label = ""

    def __init__(self, children: typing.Sequence[EndorsementPolicy]) -> None:
        if not children:
            raise ConfigurationError(
                f"{self.label} policy needs at least one operand")
        self.children = list(children)

    def principals(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            names |= child.principals()
        return names


class And(_Composite):
    """All operands must be satisfied."""

    label = "AND"

    def evaluate(self, endorsers: typing.AbstractSet[str]) -> bool:
        return all(child.evaluate(endorsers) for child in self.children)

    def select_targets(self, chooser: Chooser) -> set[str]:
        targets: set[str] = set()
        for child in self.children:
            targets |= child.select_targets(chooser)
        return targets

    def min_required(self) -> int:
        return sum(child.min_required() for child in self.children)

    def max_required(self) -> int:
        return sum(child.max_required() for child in self.children)

    def to_spec(self) -> str:
        inner = ",".join(child.to_spec() for child in self.children)
        return f"AND({inner})"


class Or(_Composite):
    """Any one operand suffices."""

    label = "OR"

    def evaluate(self, endorsers: typing.AbstractSet[str]) -> bool:
        return any(child.evaluate(endorsers) for child in self.children)

    def select_targets(self, chooser: Chooser) -> set[str]:
        index = chooser(len(self.children))
        if not 0 <= index < len(self.children):
            raise ValueError(
                f"chooser returned {index} for {len(self.children)} options")
        return self.children[index].select_targets(chooser)

    def min_required(self) -> int:
        return min(child.min_required() for child in self.children)

    def max_required(self) -> int:
        return max(child.max_required() for child in self.children)

    def to_spec(self) -> str:
        inner = ",".join(child.to_spec() for child in self.children)
        return f"OR({inner})"


class OutOf(EndorsementPolicy):
    """At least ``k`` of the operands must be satisfied."""

    def __init__(self, k: int,
                 children: typing.Sequence[EndorsementPolicy]) -> None:
        if not children:
            raise ConfigurationError("OutOf policy needs operands")
        if not 1 <= k <= len(children):
            raise ConfigurationError(
                f"OutOf({k}) over {len(children)} operands is unsatisfiable")
        self.k = k
        self.children = list(children)

    def evaluate(self, endorsers: typing.AbstractSet[str]) -> bool:
        satisfied = sum(
            1 for child in self.children if child.evaluate(endorsers))
        return satisfied >= self.k

    def select_targets(self, chooser: Chooser) -> set[str]:
        # Rotate which k children are chosen so load spreads like OR.
        start = chooser(len(self.children))
        targets: set[str] = set()
        for offset in range(self.k):
            child = self.children[(start + offset) % len(self.children)]
            targets |= child.select_targets(chooser)
        return targets

    def principals(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            names |= child.principals()
        return names

    def min_required(self) -> int:
        return sum(sorted(c.min_required() for c in self.children)[:self.k])

    def max_required(self) -> int:
        return sum(sorted((c.max_required() for c in self.children),
                          reverse=True)[:self.k])

    def to_spec(self) -> str:
        inner = ",".join(child.to_spec() for child in self.children)
        return f"OutOf({self.k},{inner})"


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    \s*(
        AND | OR | OutOf |
        \( | \) | , |
        '[^']*' | "[^"]*" |
        \d+
    )""", re.VERBOSE | re.IGNORECASE)


def _tokenize(spec: str) -> list[str]:
    tokens: list[str] = []
    position = 0
    while position < len(spec):
        match = _TOKEN_RE.match(spec, position)
        if match is None:
            remainder = spec[position:].strip()
            if not remainder:
                break
            raise ConfigurationError(
                f"cannot tokenize policy at {remainder[:20]!r}")
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._position = 0

    def peek(self) -> str | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def take(self, expected: str | None = None) -> str:
        token = self.peek()
        if token is None:
            raise ConfigurationError("unexpected end of policy expression")
        if expected is not None and token != expected:
            raise ConfigurationError(
                f"expected {expected!r}, found {token!r}")
        self._position += 1
        return token

    def parse(self) -> EndorsementPolicy:
        policy = self.parse_expression()
        if self.peek() is not None:
            raise ConfigurationError(
                f"trailing tokens in policy: {self._tokens[self._position:]}")
        return policy

    def parse_expression(self) -> EndorsementPolicy:
        token = self.take()
        upper = token.upper()
        if upper in ("AND", "OR"):
            self.take("(")
            children = self.parse_operands()
            self.take(")")
            return And(children) if upper == "AND" else Or(children)
        if upper == "OUTOF":
            self.take("(")
            count_token = self.take()
            if not count_token.isdigit():
                raise ConfigurationError(
                    f"OutOf needs a leading integer, found {count_token!r}")
            self.take(",")
            children = self.parse_operands()
            self.take(")")
            return OutOf(int(count_token), children)
        if token[0] in "'\"":
            return Principal(token[1:-1])
        raise ConfigurationError(f"unexpected token {token!r} in policy")

    def parse_operands(self) -> list[EndorsementPolicy]:
        operands = [self.parse_expression()]
        while self.peek() == ",":
            self.take(",")
            operands.append(self.parse_expression())
        return operands


def parse_policy(spec: str) -> EndorsementPolicy:
    """Parse a policy expression like ``AND('p0',OR('p1','p2'))``."""
    tokens = _tokenize(spec)
    if not tokens:
        raise ConfigurationError("empty policy expression")
    return _Parser(tokens).parse()


_SHORTHAND_RE = re.compile(r"^(OR|AND)(\d+)$", re.IGNORECASE)
_OUTOF_SHORTHAND_RE = re.compile(r"^OutOf\((\d+),(\d+)\)$", re.IGNORECASE)


def resolve_policy_spec(spec: str,
                        peer_names: typing.Sequence[str]) -> EndorsementPolicy:
    """Resolve a policy spec against the deployed endorsing peers.

    Accepts the paper's shorthand (``OR10``, ``AND5``, ``OutOf(3,5)``) as
    well as full expressions.  Shorthand ``ORk``/``ANDk`` means the policy
    over the first ``min(k, n)`` deployed peers — the degraded-policy reading
    that makes the paper's Table II AND5 rows at 1 and 3 peers meaningful
    (see DESIGN.md §3).  ``OR(1..n)`` / ``AND(1..n)`` mean "over all deployed
    peers".
    """
    if not peer_names:
        raise ConfigurationError("no endorsing peers to resolve policy over")
    spec = spec.strip()
    if spec in ("OR(1..n)", "OR*"):
        return Or([Principal(name) for name in peer_names])
    if spec in ("AND(1..n)", "AND*"):
        return And([Principal(name) for name in peer_names])
    match = _SHORTHAND_RE.match(spec)
    if match:
        operator, count = match.group(1).upper(), int(match.group(2))
        if count < 1:
            raise ConfigurationError(f"policy {spec!r} needs k >= 1")
        selected = [Principal(n) for n in peer_names[:min(count,
                                                          len(peer_names))]]
        return And(selected) if operator == "AND" else Or(selected)
    match = _OUTOF_SHORTHAND_RE.match(spec)
    if match:
        k, n = int(match.group(1)), int(match.group(2))
        pool = [Principal(name) for name in peer_names[:min(n,
                                                            len(peer_names))]]
        return OutOf(min(k, len(pool)), pool)
    return parse_policy(spec)


def channel_policies(topology: TopologyConfig
                     ) -> dict[str, EndorsementPolicy]:
    """Each channel's policy over the topology's endorsing peers."""
    endorsing = topology.peer_names[:topology.num_endorsing_peers]
    return {config.name: resolve_policy_spec(config.endorsement_policy,
                                             endorsing)
            for config in [topology.channel, *topology.extra_channels]}
