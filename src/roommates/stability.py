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
matching and every stable matching survives to a leaf, so no post-filtering
is needed.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum

from .errors import BudgetExceeded
from .model import (
    AgentId,
    Matching,
    Profile,
    acceptability_graph,
)

DEFAULT_SEARCH_BUDGET = 10_000_000


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
        if b not in orders[a].ranks or a not in orders[b].ranks:
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

class _Stop(Exception):
    """Internal: unwind the search once enough matchings were found."""


class _StableSearch:
    """Backtracking enumeration of all stable matchings of one profile."""

    def __init__(self, profile: Profile, budget: int):
        graph = acceptability_graph(profile)
        self.agents = profile.agents
        m = len(self.agents)
        index = {a: i for i, a in enumerate(self.agents)}
        self.nbrs: list[list[int]] = []
        self.rank: list[dict[int, int]] = []
        for a in self.agents:
            ranks = profile.orders[a].ranks
            local = sorted(index[b] for b in graph.neighbors[a])
            self.nbrs.append(local)
            self.rank.append({q: ranks[self.agents[q]] for q in local})
        self.maxrank = [len(profile.orders[a].starts) for a in self.agents]
        self.can_unmatch = [True] * m
        self.decided = [False] * m
        self.partner = [-1] * m
        self.undecided = m
        self.budget = budget
        self.nodes = 0
        self.found: list[Matching] = []
        self.limit: int | None = None

    def run(self, limit: int | None = None) -> list[Matching]:
        self.limit = limit
        try:
            self._branch()
        except _Stop:
            pass
        unique = sorted(set(self.found), key=lambda m: m.pairs)
        return unique

    # -- propagation ------------------------------------------------------

    def _oblige(self, z: int, threshold: int, trail: list[tuple[int, int]],
                flags: list[int]) -> None:
        """Force undecided ``z`` to end up matched at rank <= threshold."""
        if self.maxrank[z] > threshold:
            trail.append((z, self.maxrank[z]))
            self.maxrank[z] = threshold
        if self.can_unmatch[z]:
            flags.append(z)
            self.can_unmatch[z] = False

    def _apply_match(self, x: int, q: int):
        self.decided[x] = self.decided[q] = True
        self.partner[x] = q
        self.partner[q] = x
        self.undecided -= 2
        trail: list[tuple[int, int]] = []
        flags: list[int] = []
        for a, b in ((x, q), (q, x)):
            rank_a = self.rank[a]
            limit = rank_a[b]
            for z in self.nbrs[a]:
                if not self.decided[z] and rank_a[z] < limit:
                    self._oblige(z, self.rank[z][a], trail, flags)
        return trail, flags

    def _apply_unmatched(self, x: int):
        self.decided[x] = True
        self.partner[x] = -1
        self.undecided -= 1
        trail: list[tuple[int, int]] = []
        flags: list[int] = []
        for z in self.nbrs[x]:
            if not self.decided[z]:
                self._oblige(z, self.rank[z][x], trail, flags)
        return trail, flags

    def _undo(self, trail: list[tuple[int, int]], flags: list[int]) -> None:
        for z, old in reversed(trail):
            self.maxrank[z] = old
        for z in flags:
            self.can_unmatch[z] = True

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

    def _pick_agent(self) -> tuple[int, list[int]] | None:
        """Undecided agent with the fewest options (None = a dead end)."""
        best: tuple[int, list[int]] | None = None
        best_size = None
        for x in range(len(self.agents)):
            if self.decided[x]:
                continue
            options = self._choices(x)
            size = len(options) + (1 if self.can_unmatch[x] else 0)
            if size == 0:
                return None
            if best_size is None or size < best_size:
                best, best_size = (x, options), size
                if size == 1:
                    break
        return best

    def _emit(self) -> None:
        pairs = [
            (self.agents[i], self.agents[self.partner[i]])
            for i in range(len(self.agents))
            if self.partner[i] > i
        ]
        self.found.append(Matching(pairs))
        if self.limit is not None and len(self.found) >= self.limit:
            raise _Stop

    def _branch(self) -> None:
        if self.undecided == 0:
            self._emit()
            return
        picked = self._pick_agent()
        if picked is None:
            return
        x, options = picked
        for q in options:
            self._count_node()
            undo = self._apply_match(x, q)
            self._branch()
            self._undo(*undo)
            self.decided[x] = self.decided[q] = False
            self.undecided += 2
        if self.can_unmatch[x]:
            self._count_node()
            undo = self._apply_unmatched(x)
            self._branch()
            self._undo(*undo)
            self.decided[x] = False
            self.undecided += 1

    def _count_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(self.budget)


def enumerate_stable_matchings(
    profile: Profile, *, budget: int = DEFAULT_SEARCH_BUDGET
) -> list[Matching]:
    """All stable matchings (maximal or not), deduplicated, canonically sorted.

    Raises BudgetExceeded when the backtracking search would pass ``budget``
    decision nodes.
    """
    return _StableSearch(profile, budget).run()


def exists_stable_matching(
    profile: Profile, *, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[bool, Matching | None]:
    """Early-exit wrapper: (True, witness) or (False, None)."""
    found = _StableSearch(profile, budget).run(limit=1)
    if found:
        return True, found[0]
    return False, None
