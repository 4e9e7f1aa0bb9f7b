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

from dataclasses import dataclass

from .errors import InternalInvariantViolation, NoMutualPair, NotComplete, NotNarcissistic
from .model import AgentId, Matching, Profile, most_acceptable_set
from .stability import find_blocking_pairs

Pair = tuple[AgentId, AgentId]


@dataclass(frozen=True)
class SolveTrace:
    """Round-by-round record of a greedy run.

    Each entry is ``(pair, remaining)`` — the pair matched in that round
    and how many agents were left afterwards.  The counts decrease by two
    down to zero on a successful run.
    """

    rounds: tuple[tuple[Pair, int], ...]

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(pair for pair, _ in self.rounds)


def find_mutual_most_acceptable_pair(profile: Profile) -> Pair | None:
    """The lexicographically smallest pair that top-ranks each other.

    A pair {x, y} qualifies when y is among x's most acceptable agents and
    vice versa (selves excluded, ties allowed).  Returns None when no such
    pair exists.  Works on arbitrary profiles; the greedy solver keeps an
    incremental equivalent of this scan.
    """
    tops = {i: most_acceptable_set(profile, i) for i in profile.agents}
    for x in profile.agents:
        for y in sorted(tops[x]):
            if y > x and x in tops[y]:
                return (x, y)
    return None


def _check_preconditions(profile: Profile) -> None:
    for i in profile.agents:
        if profile.orders[i].ranks.keys() | {i} != profile.agent_set:
            raise NotComplete(i)
    for i in profile.agents:
        order = profile.orders[i]
        if not order.members or order.group(0) != (i,):
            raise NotNarcissistic(i)


def greedy_solve(profile: Profile) -> tuple[Matching, SolveTrace]:
    """Run the greedy pairing to completion on a complete narcissistic profile.

    Returns the matching and its round trace.  Raises NotComplete or
    NotNarcissistic when the input does not qualify, and NoMutualPair
    (carrying the ids of the agents still unmatched) when some round has
    no mutually most-acceptable pair.  The output is checked against
    find_blocking_pairs before being returned.

    Quadratic in the number of agents as long as tie groups stay small.
    Each agent carries a lazily materialised view of its best surviving tie
    group plus a reverse index of who currently tops whom, so removals cost
    time proportional to the affected top groups rather than to n.
    """
    _check_preconditions(profile)

    agents = profile.agents
    n = len(agents)
    index = {a: k for k, a in enumerate(agents)}
    orders = [profile.orders[a] for a in agents]
    alive = [True] * n

    # cur[k]: surviving members (dense indices) of k's best non-self tie
    # group; gi[k]: that group's index in glists[k]; fans[m]: agents whose
    # current top group contains m.  Groups are materialised only when the
    # pointer reaches them, so untouched tails cost nothing.
    gi = [0] * n
    cur: list[set[int]] = [set() for _ in range(n)]
    fans: list[set[int]] = [set() for _ in range(n)]

    def promote(k: int) -> None:
        order = orders[k]
        j = gi[k] + 1
        while j < len(order.starts):
            live = {m for m in (index[a] for a in order.group(j)) if alive[m]}
            if live:
                gi[k] = j
                cur[k] = live
                for m in live:
                    fans[m].add(k)
                return
            j += 1
        gi[k] = j
        cur[k] = set()

    for k in range(n):
        promote(k)
    remaining = n

    def remove(k: int) -> None:
        nonlocal remaining
        alive[k] = False
        remaining -= 1
        for a in fans[k]:
            if alive[a]:
                cur[a].discard(k)
                if not cur[a]:
                    promote(a)
        fans[k].clear()

    rounds: list[tuple[Pair, int]] = []
    pairs: list[Pair] = []
    while remaining:
        found: Pair | None = None
        for x in range(n):
            if not alive[x] or not cur[x]:
                continue
            best = -1
            for y in cur[x]:
                if y > x and (best < 0 or y < best) and x in cur[y]:
                    best = y
            if best >= 0:
                found = (agents[x], agents[best])
                break
        if found is None:
            raise NoMutualPair(tuple(a for k, a in enumerate(agents) if alive[k]))
        remove(index[found[0]])
        remove(index[found[1]])
        pairs.append(found)
        rounds.append((found, remaining))

    matching = Matching(pairs)
    blocking = find_blocking_pairs(profile, matching)
    if blocking:
        raise InternalInvariantViolation(
            f"greedy run completed but {blocking[0].pair} blocks the result"
        )
    return matching, SolveTrace(tuple(rounds))
