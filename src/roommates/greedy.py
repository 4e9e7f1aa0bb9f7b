"""Greedy matching for complete, narcissistic profiles.

The algorithm repeatedly takes the lexicographically smallest mutual
most-acceptable pair, matches it, removes both agents, and repeats on the
rest.  Whenever it runs to completion the resulting matching is stable: a
pair matched in some round cannot later turn blocking, because each agent
was paired with a most-preferred agent among those still present.  On
single-peaked, single-crossing, or tie-sensitive single-crossing profiles
a mutual pair provably exists in every round, so the algorithm never gets
stuck there; on unstructured input it may raise NoMutualPair.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InternalInvariantViolation, NoMutualPair, NotComplete, NotNarcissistic
from .model import AgentId, Matching, Profile, _Record, most_acceptable_set
from .stability import find_blocking_pairs

Pair = tuple[AgentId, AgentId]


class SolveTrace(_Record):
    """Round-by-round record of a greedy run.

    Each entry is ``(pair, remaining)`` — the pair matched in that round
    and how many agents were left afterwards.  The counts decrease by two
    down to zero on a successful run.
    """

    _fields = ("rounds",)

    rounds: tuple[tuple[Pair, int], ...]

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(pair for pair, _ in self.rounds)


def find_mutual_most_acceptable_pair(profile: Profile) -> Pair | None:
    """The lexicographically smallest pair that top-ranks each other.

    A pair {x, y} qualifies when y is among x's most acceptable agents and
    vice versa (selves excluded, ties allowed).  Returns None when no such
    pair exists.  Works on arbitrary profiles; the greedy solver repeats
    this scan over the remaining agents in every round.
    """
    tops = {i: most_acceptable_set(profile, i) for i in profile.agents}
    for x in profile.agents:
        for y in sorted(tops[x]):
            if y > x and x in tops[y]:
                return (x, y)
    return None


def _check_preconditions(profile: Profile) -> None:
    # In a Profile an order ranks only the profile's agents, none twice, so
    # it is complete when it ranks all but maybe its owner.
    n = profile.n_agents
    for i in profile.agents:
        members = profile.orders[i].members
        if len(members) + (i not in members) != n:
            raise NotComplete(i)
    for i in profile.agents:
        if next(profile.orders[i].group_slices(), None) != (i,):
            raise NotNarcissistic(i)


def greedy_solve(profile: Profile) -> tuple[Matching, SolveTrace]:
    """Run the greedy pairing to completion on a complete narcissistic profile.

    Returns the matching and its round trace.  Raises NotComplete or
    NotNarcissistic when the input does not qualify, and NoMutualPair
    (carrying the ids of the agents still unmatched) when some round has
    no mutually most-acceptable pair.  The output is checked against
    find_blocking_pairs before being returned.

    Each of the n/2 rounds repeats the scan of
    find_mutual_most_acceptable_pair over the remaining agents.  An agent's
    top group comes from a pointer that only moves forward, past groups
    whose agents have all left, so with tie groups of at most t agents a
    run costs O(n^2 t).
    """
    _check_preconditions(profile)

    orders = profile.orders
    left = dict.fromkeys(profile.agents)  # remaining agents, in id order
    # best[a]: the offset of a's best tie group that may hold a remaining agent.
    best = dict.fromkeys(profile.agents, 1)

    def top(a: AgentId) -> tuple[AgentId, ...]:
        """a's best tie group holding a remaining agent, or () if none is left."""
        members, ties, lo = orders[a].members, orders[a].ties, best[a]
        while lo < len(members):
            # A group starts at lo; it is a tie exactly when a span starts there.
            k = bisect_right(ties, lo)
            hi = ties[k] if k & 1 else lo + 1
            group = members[lo:hi]
            if not left.keys().isdisjoint(group):
                break
            lo = hi
        else:
            group = ()
        best[a] = lo
        return group

    rounds: list[tuple[Pair, int]] = []
    while left:
        found = next(
            ((x, y) for x in left for y in top(x) if y > x and y in left and x in top(y)),
            None,
        )
        if found is None:
            raise NoMutualPair(tuple(left))
        del left[found[0]], left[found[1]]
        rounds.append((found, len(left)))

    trace = SolveTrace(tuple(rounds))
    matching = Matching(trace.pairs)
    blocking = find_blocking_pairs(profile, matching)
    if blocking:
        raise InternalInvariantViolation(
            f"greedy run completed but {blocking[0].pair} blocks the result"
        )
    return matching, trace
