"""Exception types shared across the library.

Every error carries the offending ids/values as attributes so callers can
react programmatically instead of parsing messages.
"""

from __future__ import annotations


class RoommatesError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Profile validation
# ---------------------------------------------------------------------------

class AsymmetricAcceptability(RoommatesError):
    """Agent ``i`` ranks ``j`` but ``j`` does not rank ``i``."""

    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"agent {i} ranks agent {j}, but {j} does not rank {i}")


class DuplicateInOrder(RoommatesError):
    """An agent appears more than once in a single preference order."""

    def __init__(self, agent: int, duplicate: int):
        self.agent, self.duplicate = agent, duplicate
        super().__init__(f"agent {duplicate} appears twice in the order of agent {agent}")


# ---------------------------------------------------------------------------
# Search budgets and size limits
# ---------------------------------------------------------------------------

class BudgetExceeded(RoommatesError):
    """A backtracking search ran past its node budget without finishing."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search exceeded its budget of {nodes} nodes")


class TieGroupTooLarge(RoommatesError):
    """Exact tie resolution is infeasible because some tie group is too big."""

    def __init__(self, agent: int, size: int, limit: int):
        self.agent, self.size, self.limit = agent, size, limit
        super().__init__(
            f"agent {agent} has a tie group of size {size}; exact search is limited to {limit}"
        )


class TooManyAgents(RoommatesError):
    """An exhaustive witness-order search was asked for too many agents."""

    def __init__(self, count: int, limit: int):
        self.count, self.limit = count, limit
        super().__init__(f"exhaustive order search limited to {limit} agents, got {count}")


# ---------------------------------------------------------------------------
# Structural preconditions
# ---------------------------------------------------------------------------

class TiesUnsupported(RoommatesError):
    """The requested check is only defined for profiles without ties."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"this check requires a profile without ties (agent {agent} has a tie)")


class NotComplete(RoommatesError):
    """A solver precondition failed: the profile is not complete."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"profile is not complete: agent {agent} does not rank everyone")


class NotNarcissistic(RoommatesError):
    """A solver precondition failed: some agent is not strictly on top of its own order."""

    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"profile is not narcissistic: agent {agent} is not strictly first in its own order")


class NoMutualPair(RoommatesError):
    """The greedy solver found no mutual most-acceptable pair among the remaining agents."""

    def __init__(self, remaining: tuple[int, ...]):
        self.remaining = tuple(remaining)
        super().__init__(
            f"no mutual most-acceptable pair among the {len(self.remaining)} remaining agents"
        )


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

class DegreeTooHigh(RoommatesError):
    """The input graph has a vertex of degree above the supported maximum."""

    def __init__(self, vertex: int, degree: int, limit: int):
        self.vertex, self.degree, self.limit = vertex, degree, limit
        super().__init__(f"vertex {vertex} has degree {degree}, but at most {limit} is supported")


class KOutOfRange(RoommatesError):
    """The target independent-set size is outside 1..n."""

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        super().__init__(f"target size k={k} must satisfy 1 <= k <= {n}")


class NotIndependent(RoommatesError):
    """A claimed independent set contains two adjacent vertices."""

    def __init__(self, u: int, v: int):
        self.u, self.v = u, v
        super().__init__(f"vertices {u} and {v} are adjacent, so the set is not independent")


class WrongSize(RoommatesError):
    """A set has the wrong cardinality for the requested construction."""

    def __init__(self, expected: int, actual: int):
        self.expected, self.actual = expected, actual
        super().__init__(f"expected a set of size {expected}, got {actual}")


class InternalInvariantViolation(RoommatesError):
    """A property that the implementation guarantees was observed to fail.

    Seeing this error means the library itself is wrong, not the caller.
    """


# ---------------------------------------------------------------------------
# Instances and I/O
# ---------------------------------------------------------------------------

class UnknownFixture(RoommatesError):
    """No built-in instance goes by the requested name."""

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name, self.known = name, known
        super().__init__(f"unknown fixture {name!r}; known fixtures: {', '.join(known)}")


class ParseError(RoommatesError):
    """A text file does not conform to its documented format."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{message}")
