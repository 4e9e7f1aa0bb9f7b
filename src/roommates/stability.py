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

Each node branches on the first undecided agent, in id order, with at most
one way to go; failing that, on the first agent with the fewest.  An
agent's branching size is its live options (undecided neighbors within
its threshold that also have it within theirs) plus 1 while it may stay
single.  Sizes are not recounted per node: each decision lowers them as
options die, through the same trail that undoes the thresholds, and only
the chosen agent's options are listed.  Neighbors are stored in each
agent's rank order, so a lowered threshold walks only the options it cuts
off, and a decided agent's threshold drops below every rank, so an option
is live exactly when each side is within the other's threshold.

Sizes are kept in a bytearray, with 255 for a decided agent, so picking
the agent is a few C-level byte searches (for 0, for 1 before the first
0, then for 2, 3, ... until one hits) rather than a scan over Python ints.
A profile in which some agent has 254 or more neighbors does not fit a
byte; it keeps its sizes in a list and the pick takes their minimum.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from .model import AgentId, Matching, Profile
from .search import DEFAULT_SEARCH_BUDGET, depth_first


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
        ranks_of = {a: order.ranks for a, order in profile.orders.items()}
        self.ranks = [ranks_of[a] for a in self.agents]
        # links[i]: (q, q's rank of i) for each neighbor q, in i's rank
        # order (ties by id).  below[i][r]: the position in links[i] of the
        # first neighbor i ranks in group r or worse, for r up to one past
        # the last group, so every rank window is a slice.
        self.links: list[list[tuple[int, int]]] = []
        self.below: list[list[int]] = []
        for a in self.agents:
            order = profile.orders[a]
            others = [b for b in order.members if b != a]
            self.links.append(list(zip(
                map(index.__getitem__, others),
                map(itemgetter(a), map(ranks_of.__getitem__, others)),
            )))
            starts = [*order.starts, len(order.members)]
            if a in order.ranks:  # the owner's own entry is not a neighbor
                own = order.ranks[a]
                starts[own + 1:] = [s - 1 for s in starts[own + 1:]]
            self.below.append([*starts, starts[-1]])
        # span[i]: the id range [lo, hi) within two links of agent i, which
        # bounds the sizes a decision on i can change.  Acceptability is
        # symmetric, so the one-link ranges of i's neighbors cover i too.
        ids = [[q for q, _ in links] for links in self.links]
        near_lo = [min([i, *nbrs]) for i, nbrs in enumerate(ids)]
        near_hi = [max([i, *nbrs]) for i, nbrs in enumerate(ids)]
        self.span = [
            (
                min(map(near_lo.__getitem__, nbrs), default=i),
                max(map(near_hi.__getitem__, nbrs), default=i) + 1,
            )
            for i, nbrs in enumerate(ids)
        ]
        # pair[i][q] for q > i: the one (agent i, agent q) tuple that every
        # leaf holding that pair shares, made by the first such leaf.
        self.pair: list[dict[int, tuple[AgentId, AgentId]]] = [{} for _ in range(m)]
        # maxrank[i]: the worst group i may still be matched in, or -1 once
        # i is decided, so that no one is live in a decided agent's eyes.
        # A decided agent may not stay single either.
        self.maxrank = [len(profile.orders[a].starts) for a in self.agents]
        self.can_unmatch = [True] * m
        self.partner = [-1] * m
        # Branching size of each undecided agent: its live options plus 1
        # while it may stay single.  A decided agent's size is ``closed``.
        # Sizes below 255 fit a byte, with 255 for a decided agent, so the
        # pick is a few byte searches; a profile where some agent has 254
        # or more neighbors keeps a list, and the pick scans it.
        size = [len(links) + 1 for links in self.links]
        self.wide = max(size, default=0) >= 255
        self.size = size if self.wide else bytearray(size)
        self.closed = m + 1 if self.wide else 255
        self.found: list[Matching] = []

    def run(self, budget: int, first_only: bool = False) -> list[Matching]:
        depth_first(self._frame(first_only, len(self.agents)), budget)
        return sorted(self.found, key=lambda m: m.pairs)

    # -- propagation ------------------------------------------------------

    def _decide(self, x: int, q: int) -> list[tuple[object, object, object]]:
        """Give ``x`` partner ``q`` (-1: none); return the trail that undoes it.

        Trail entries are (array, index or slice, old value).  Every
        undecided neighbor that a newly decided agent ranks above its
        partner (above staying single: every neighbor) must end up matched
        at least as well as it ranks that agent.  Sizes follow every option
        that dies; one decision can kill many, so the trail keeps a copy of
        the part of the size array it can reach rather than an entry per
        change.
        """
        members = (x, q) if q >= 0 else (x,)
        links = self.links
        maxrank, size, can_unmatch = self.maxrank, self.size, self.can_unmatch
        below = self.below
        lo, hi = self.span[x]
        if q >= 0:
            q_lo, q_hi = self.span[q]
            lo, hi = (lo if lo < q_lo else q_lo), (hi if hi > q_hi else q_hi)
        trail: list[tuple[object, object, object]] = [(size, slice(lo, hi), size[lo:hi])]
        reach = []  # per member, the neighbors within its threshold
        for a in members:
            old = maxrank[a]
            reach.append(links[a][:below[a][old + 1]])
            trail.append((maxrank, a, old))
            maxrank[a] = -1
            if can_unmatch[a]:
                trail.append((can_unmatch, a, True))
                can_unmatch[a] = False
            size[a] = self.closed
        self.partner[x] = q
        if q >= 0:
            self.partner[q] = x
        # The decided agents leave every option list they were live in.
        for live in reach:
            for z, back in live:
                if back <= maxrank[z]:
                    size[z] -= 1
        for a in members:
            p = self.partner[a]
            # The neighbors a ranks above its partner; all when single.
            ahead = links[a][:below[a][self.ranks[a][self.agents[p]]]] if p >= 0 else links[a]
            for z, new in ahead:
                old = maxrank[z]
                if old > new:
                    trail.append((maxrank, z, old))
                    maxrank[z] = new
                    # Options of z ranked in groups new+1..old die on both
                    # sides; liveness is read from the current state, so a
                    # pair killed earlier is not counted again.
                    below_z = below[z]
                    killed = 0
                    for y, y_rank in links[z][below_z[new + 1]:below_z[old + 1]]:
                        if y_rank <= maxrank[y]:
                            killed += 1
                            size[y] -= 1
                    size[z] -= killed
                if can_unmatch[z]:
                    trail.append((can_unmatch, z, True))
                    can_unmatch[z] = False
                    size[z] -= 1
        return trail

    # -- search -----------------------------------------------------------

    def _choices(self, x: int) -> list[int]:
        """The live options of ``x``, in id order."""
        maxrank = self.maxrank
        end = self.below[x][maxrank[x] + 1]
        options = [q for q, back in self.links[x][:end] if back <= maxrank[q]]
        options.sort()
        return options

    def _pick_agent(self) -> tuple[int, list[int]]:
        """The undecided agent to branch on, with its options.

        It is the first agent in id order of size at most 1, else the first
        of the smallest size.  Byte sizes are searched value by value from
        0 up, each search a C-level scan that stops at the first hit; a list
        of sizes is scanned for its minimum.
        """
        size = self.size
        if self.wide:
            fewest = min(size)
            x = size.index(fewest)
            if fewest == 0:
                # An earlier agent of size 1 still comes first.
                try:
                    x = size.index(1, 0, x)
                except ValueError:
                    pass
        else:
            x = size.find(0)
            if x >= 0:
                one = size.find(1, 0, x)
                if one >= 0:
                    x = one
            fewest = 0
            while x < 0:
                fewest += 1
                x = size.find(fewest)
        return x, self._choices(x)

    def _frame(self, first_only: bool, undecided: int):
        """A search frame for :func:`depth_first`: one decision per child."""
        if not undecided:
            pair, agents = self.pair, self.agents
            self.found.append(Matching([
                pair[i].get(q) or pair[i].setdefault(q, (agents[i], agents[q]))
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
