"""Blocking pairs, stability checks, and an exhaustive stable-matching search.

The enumerator walks partner assignments agent by agent, propagating two
facts to the not-yet-decided neighbors of every decision:

* once an agent ends up unmatched, every neighbor must be matched at least
  as well as it ranks that agent, or the two would block;
* once an agent is matched, every neighbor it strictly prefers to its
  partner is under the same obligation.

Both facts only ever shrink a neighbor's options to "partners ranked at or
above some group" and "may not stay single", so the search state per agent
is a rank threshold plus one flag.  Every leaf reached this way is a stable
matching and every stable matching survives to exactly one leaf (two
leaves differ in the partner of the agent branched on where their paths
split), so no post-filtering or deduplication is needed.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from dataclasses import dataclass
from enum import Enum
from math import inf

from .errors import BudgetExceeded
from .model import AgentId, Matching, Profile

DEFAULT_SEARCH_BUDGET = 10_000_000


def _depth_first(root: Iterator, budget: float = inf) -> bool:
    """Run a backtracking search on an explicit stack; True if a frame said so.

    Frames are generators.  A frame yields a child frame to descend into it
    and True to end the whole search; the code after a ``yield`` undoes that
    branch once the child is exhausted.  Children count as search nodes, and
    passing ``budget`` of them raises BudgetExceeded.
    """
    stack = [root]
    nodes = 0
    while stack:
        # One step of the top frame: it descends, stops, or is exhausted.
        for child in stack[-1]:
            if child is True:
                return True
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(budget)
            stack.append(child)
            break
        else:
            stack.pop()
    return False


class BlockingReason(Enum):
    """Why one side of a blocking pair wants to defect."""

    UNMATCHED = "unmatched"
    PREFERS_OVER_PARTNER = "prefers_over_partner"


@dataclass(frozen=True)
class BlockingPair:
    """An acceptable pair that would abandon a matching, with both motives."""

    pair: tuple[AgentId, AgentId]
    reason_x: BlockingReason
    reason_y: BlockingReason


def check_matching(profile: Profile, matching: Matching) -> None:
    """Raise ValueError unless every pair is an edge of the acceptability graph."""
    orders = profile.orders
    for a, b in matching.pairs:
        if a not in orders or b not in orders:
            raise ValueError(f"pair ({a}, {b}) mentions an agent outside the profile")
        if b not in orders[a].ranks:
            raise ValueError(f"pair ({a}, {b}) is not mutually acceptable")


def find_blocking_pairs(profile: Profile, matching: Matching) -> list[BlockingPair]:
    """All blocking pairs of ``matching``, sorted by (min id, max id).

    A pair blocks when both agents are either unmatched or strictly prefer
    each other to their current partners (weak stability).
    """
    check_matching(profile, matching)
    partner_of = matching.partner_map
    orders = profile.orders
    # Per agent: everyone it would defect to — all acceptable agents when
    # unmatched, otherwise the members ahead of its partner's tie group.  A
    # pair blocks iff each member lies in the other's set, so matched
    # partners (equal group) and one-sided crushes drop out without
    # scanning the full acceptability graph.
    better: dict[AgentId, Collection[AgentId]] = {}
    for x in profile.agents:
        px = partner_of.get(x)
        order = orders[x]
        if px is None:
            better[x] = order.ranks
            continue
        want = set(order.members[: order.starts[order.ranks[px]]])
        want.discard(x)
        better[x] = want
    blocking = []
    for x in profile.agents:
        wants_x = better[x]
        if not wants_x:
            continue
        reason_x = (
            BlockingReason.UNMATCHED
            if partner_of.get(x) is None
            else BlockingReason.PREFERS_OVER_PARTNER
        )
        for y in wants_x:
            if y > x and x in better[y]:
                reason_y = (
                    BlockingReason.UNMATCHED
                    if partner_of.get(y) is None
                    else BlockingReason.PREFERS_OVER_PARTNER
                )
                blocking.append(BlockingPair((x, y), reason_x, reason_y))
    blocking.sort(key=lambda bp: bp.pair)
    return blocking


def is_stable(profile: Profile, matching: Matching) -> bool:
    """True when the matching admits no blocking pair."""
    return not find_blocking_pairs(profile, matching)


def is_perfect(profile: Profile, matching: Matching) -> bool:
    """True when every agent of the profile is matched."""
    return matching.matched_agents == profile.agent_set


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

class _StableSearch:
    """Backtracking enumeration of all stable matchings of one profile."""

    def __init__(self, profile: Profile):
        self.agents = profile.agents
        m = len(self.agents)
        index = {a: i for i, a in enumerate(self.agents)}
        self.nbrs: list[list[int]] = []
        self.rank: list[dict[int, int]] = []
        for a in self.agents:
            ranks = profile.orders[a].ranks  # symmetric: all rank ``a`` back
            local = sorted(index[b] for b in ranks if b != a)
            self.nbrs.append(local)
            self.rank.append({q: ranks[self.agents[q]] for q in local})
        self.maxrank = [len(profile.orders[a].starts) for a in self.agents]
        self.can_unmatch = [True] * m
        self.decided = [False] * m
        self.partner = [-1] * m
        self.found: list[Matching] = []

    def run(self, budget: int, first_only: bool = False) -> list[Matching]:
        _depth_first(self._frame(first_only, len(self.agents)), budget)
        return sorted(self.found, key=lambda m: m.pairs)

    # -- propagation ------------------------------------------------------

    def _decide(self, x: int, q: int) -> list[tuple[list, int, object]]:
        """Give ``x`` partner ``q`` (-1: none); return the trail that undoes it.

        Trail entries are (list, index, old value).  Every undecided
        neighbor that a newly decided agent ranks above its partner (above
        staying single: every neighbor) must end up matched at least as
        well as it ranks that agent.
        """
        members = (x, q) if q >= 0 else (x,)
        trail: list[tuple[list, int, object]] = []
        for a in members:
            trail.append((self.decided, a, False))
            self.decided[a] = True
        self.partner[x] = q
        if q >= 0:
            self.partner[q] = x
        for a in members:
            rank_a = self.rank[a]
            limit = rank_a.get(self.partner[a], inf)
            for z in self.nbrs[a]:
                if not self.decided[z] and rank_a[z] < limit:
                    if self.maxrank[z] > self.rank[z][a]:
                        trail.append((self.maxrank, z, self.maxrank[z]))
                        self.maxrank[z] = self.rank[z][a]
                    if self.can_unmatch[z]:
                        trail.append((self.can_unmatch, z, True))
                        self.can_unmatch[z] = False
        return trail

    # -- search -----------------------------------------------------------

    def _choices(self, x: int) -> list[int]:
        mx = self.maxrank[x]
        rank_x = self.rank[x]
        return [
            q
            for q in self.nbrs[x]
            if not self.decided[q]
            and rank_x[q] <= mx
            and self.rank[q][x] <= self.maxrank[q]
        ]

    def _pick_agent(self) -> tuple[int, list[int]]:
        """Undecided agent with the fewest options.

        At a dead end it is one with no options that may not stay single.
        """
        best: tuple[int, list[int]] | None = None
        best_size = None
        for x in range(len(self.agents)):
            if self.decided[x]:
                continue
            options = self._choices(x)
            size = len(options) + (1 if self.can_unmatch[x] else 0)
            if size == 0:
                return x, options
            if best_size is None or size < best_size:
                best, best_size = (x, options), size
                if size == 1:
                    break
        return best

    def _frame(self, first_only: bool, undecided: int):
        """A search frame for :func:`_depth_first`: one decision per child."""
        if not undecided:
            self.found.append(Matching([
                (self.agents[i], self.agents[q])
                for i, q in enumerate(self.partner)
                if q > i
            ]))
            if first_only:
                yield True
            return
        x, options = self._pick_agent()
        if self.can_unmatch[x]:
            options.append(-1)
        for q in options:
            trail = self._decide(x, q)
            yield self._frame(first_only, undecided - (2 if q >= 0 else 1))
            for values, i, old in reversed(trail):
                values[i] = old


def enumerate_stable_matchings(
    profile: Profile, *, budget: int = DEFAULT_SEARCH_BUDGET
) -> list[Matching]:
    """All stable matchings (maximal or not), each once, canonically sorted.

    Raises BudgetExceeded when the backtracking search would pass ``budget``
    decision nodes.
    """
    return _StableSearch(profile).run(budget)


def exists_stable_matching(
    profile: Profile, *, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[bool, Matching | None]:
    """Early-exit wrapper: (True, witness) or (False, None)."""
    found = _StableSearch(profile).run(budget, first_only=True)
    if found:
        return True, found[0]
    return False, None
