"""Core data model: agents, weak-order preferences, profiles, matchings,
and witness orders (a linear order of the agents, such as an axis).

Agents are plain non-negative ints.  A preference order ranks the agents
its owner finds acceptable in tie groups, best group first; an agent may
list itself.  It is stored flat: the members in rank order (ascending
inside a tie group), the offset where each group starts, and a rank table
built with the order; the frozenset ``groups`` are a view derived from
that storage on request.  A profile bundles one order per agent, and its
constructor is the one validity check: acceptability is symmetric and no
order names an agent twice.  Nothing more is required, so an agent may
rank nobody and the number of agents may be odd.

Top-level profiles use dense ids ``0..n-1``.  Profiles produced by
:func:`restrict` keep the surviving agents' original ids, so sub-profiles
stay comparable with the instance they came from.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, pairwise

from .errors import AsymmetricAcceptability, DuplicateInOrder

AgentId = int

RawOrder = Sequence[Iterable[AgentId]]


# Python caches only small int objects, so rank values and offsets are
# taken from one list that grows on demand: every order stores each
# number once instead of once per entry.
_INTS: list[int] = []


def _ints(size: int) -> list[int]:
    """A list whose item k is k, at least ``size`` long, shared by all orders."""
    global _INTS
    ints = _INTS
    if len(ints) < size:
        ints = _INTS = ints + list(range(len(ints), max(size, 2 * len(ints))))
    return ints


def _tie_groups(starts: Sequence[int], size: int) -> list[int]:
    """Indices of the groups with two or more members, ascending.

    ``starts`` are the group offsets of an order with ``size`` members.
    ``starts[g] - g`` never decreases and rises just after each tie group,
    so one bisection per tie finds them all: O(t log g) steps for t ties
    among g groups.
    """
    count = len(starts)
    ties: list[int] = []
    g, excess = 0, 0
    while excess < size - count and g < count:
        # The first group after g with a larger excess follows a tie.
        g = bisect_right(range(count), excess, g + 1, key=lambda h: starts[h] - h)
        ties.append(g - 1)
        excess = (starts[g] if g < count else size) - g
    return ties


@dataclass(frozen=True, slots=True)
class PreferenceOrder:
    """One agent's ranked tie groups, stored flat, most preferred group first.

    ``members`` lists the ranked agents group by group, ascending inside a
    tie group, and ``starts`` holds the offset in ``members`` where each
    group begins: a ``range`` when every group is a singleton, else a tuple.
    ``ranks`` maps each member to its group's index and is built with the
    order.  ``groups`` is a view derived on each call.

    Build orders with :meth:`from_groups`.  The constructor is the library's
    internal fast path: it trusts that ``starts`` are valid offsets and that
    each group's members are ascending, and an order built from unsorted
    groups compares unequal to the same order built by :meth:`from_groups`.
    """

    owner: AgentId
    members: tuple[AgentId, ...]
    starts: Sequence[int]
    ranks: dict[AgentId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = len(self.members)
        numbers = _ints(size)
        if len(self.starts) == size:
            starts: Sequence[int] = range(size)
            values: Iterable[int] = numbers
        else:
            # Between two tie groups every group is a singleton, so there
            # both the offsets and the rank values are runs of consecutive
            # numbers; each run is one slice, and only a tie group adds a
            # repeated value.
            count = len(self.starts)
            offsets: list[int] = []
            values = []
            g = 0
            for t in _tie_groups(self.starts, size):
                lo = self.starts[t]
                hi = self.starts[t + 1] if t + 1 < count else size
                offsets += numbers[lo - t + g:lo + 1]
                values += numbers[g:t]
                values += [numbers[t]] * (hi - lo)
                g = t + 1
            offsets += numbers[size - count + g:size]
            values += numbers[g:count]
            starts = tuple(offsets)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ranks", dict(zip(self.members, values)))

    @classmethod
    def from_groups(cls, owner: AgentId, raw: RawOrder) -> "PreferenceOrder":
        """Build from raw tie groups, checking them.

        Repeats inside a group merge, empty groups drop, and an agent in two
        groups raises DuplicateInOrder.
        """
        seen: set[AgentId] = set()
        members: list[AgentId] = []
        starts: list[int] = []
        for raw_group in raw:
            group = sorted({int(x) for x in raw_group})
            if not group:
                continue
            for member in group:
                if member in seen:
                    raise DuplicateInOrder(owner, member)
                seen.add(member)
            starts.append(len(members))
            members += group
        return cls(owner, tuple(members), tuple(starts))

    def group(self, g: int) -> tuple[AgentId, ...]:
        """Members of tie group ``g``, ascending."""
        end = self.starts[g + 1] if g + 1 < len(self.starts) else len(self.members)
        return self.members[self.starts[g]:end]

    def group_slices(self) -> Iterator[tuple[AgentId, ...]]:
        """Each tie group's members, ascending, best group first."""
        members = self.members
        for lo, hi in pairwise((*self.starts, len(members))):
            yield members[lo:hi]

    @property
    def groups(self) -> tuple[frozenset[AgentId], ...]:
        return tuple(frozenset(g) for g in self.group_slices())

    @property
    def has_tie(self) -> bool:
        return len(self.starts) != len(self.members)

    def without(self, removed: Collection[AgentId]) -> "PreferenceOrder":
        """Copy of this order with ``removed`` deleted and empty groups dropped."""
        members: list[AgentId] = []
        starts: list[int] = []
        for group in self.group_slices():
            kept = [m for m in group if m not in removed]
            if kept:
                starts.append(len(members))
                members += kept
        return PreferenceOrder(self.owner, tuple(members), tuple(starts))


@dataclass(frozen=True)
class Profile:
    """A collection of preference orders, one per agent, keyed by owner.

    The constructor copies ``orders`` and raises DuplicateInOrder for an
    agent twice in one order and AsymmetricAcceptability for a one-sided
    pair.  Ids may be sparse, isolated agents are allowed and the number
    of agents may be odd.
    """

    orders: Mapping[AgentId, PreferenceOrder]

    def __post_init__(self) -> None:
        orders = dict(self.orders)
        for order in orders.values():
            if len(order.ranks) != len(order.members):
                seen: set[AgentId] = set()
                for member in order.members:
                    if member in seen:
                        raise DuplicateInOrder(order.owner, member)
                    seen.add(member)
        _check_symmetry(orders)
        object.__setattr__(self, "orders", orders)

    @cached_property
    def agents(self) -> tuple[AgentId, ...]:
        return tuple(sorted(self.orders))

    @cached_property
    def agent_set(self) -> frozenset[AgentId]:
        return frozenset(self.orders)

    @property
    def n_agents(self) -> int:
        return len(self.orders)

    def order(self, i: AgentId) -> PreferenceOrder:
        try:
            return self.orders[i]
        except KeyError:
            raise ValueError(f"no agent {i} in this profile") from None


@dataclass(frozen=True)
class Matching:
    """A set of disjoint unordered agent pairs."""

    pairs: tuple[tuple[AgentId, AgentId], ...]

    def __init__(self, pairs: Iterable[tuple[AgentId, AgentId] | Iterable[AgentId]] = ()):
        normalized = []
        for pair in pairs:
            a, b = pair
            if a == b:
                raise ValueError(f"an agent cannot be matched with itself: {a}")
            # An ordered tuple is kept as given, so callers can share pairs.
            if type(pair) is not tuple or not a < b:
                pair = (min(a, b), max(a, b))
            normalized.append(pair)
        normalized.sort()
        if len(set(chain.from_iterable(normalized))) != 2 * len(normalized):
            seen: set[AgentId] = set()
            for a, b in normalized:
                if a in seen or b in seen:
                    raise ValueError(f"pair ({a}, {b}) overlaps another pair")
                seen.update((a, b))
        object.__setattr__(self, "pairs", tuple(normalized))

    @cached_property
    def partner_map(self) -> dict[AgentId, AgentId]:
        partners: dict[AgentId, AgentId] = {}
        for a, b in self.pairs:
            partners[a] = b
            partners[b] = a
        return partners

    @cached_property
    def matched_agents(self) -> frozenset[AgentId]:
        return frozenset(self.partner_map)

    def partner(self, x: AgentId) -> AgentId | None:
        """Partner of ``x``, or None when ``x`` is unmatched."""
        return self.partner_map.get(x)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class WitnessOrder:
    """A linear order over all agents of a profile, e.g. a single-peaked axis."""

    sequence: tuple[AgentId, ...]

    def __init__(self, sequence: Sequence[AgentId]):
        seq = tuple(int(a) for a in sequence)
        if len(set(seq)) != len(seq):
            raise ValueError("a witness order must not repeat agents")
        object.__setattr__(self, "sequence", seq)

    def reversed(self) -> "WitnessOrder":
        return WitnessOrder(self.sequence[::-1])

    def __iter__(self):
        return iter(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _check_symmetry(orders: Mapping[AgentId, PreferenceOrder]) -> None:
    """Raise AsymmetricAcceptability for the first one-sided pair in id order.

    A profile in which every agent ranks every agent is symmetric, and one
    key-set comparison per order confirms it.  Any other profile is
    searched in sorted order.
    """
    everyone = orders.keys()
    if all(order.ranks.keys() == everyone for order in orders.values()):
        return
    for i in sorted(orders):
        for j in sorted(orders[i].ranks):
            if j == i:
                continue
            if j not in orders or i not in orders[j].ranks:
                raise AsymmetricAcceptability(i, j)


def build_profile(orders: Mapping[AgentId, RawOrder]) -> Profile:
    """Assemble a profile from per-agent raw tie groups.

    Ids may be sparse, and agents acceptable to nobody are tolerated (they
    occur legitimately in restricted and reduced instances).  Symmetric
    acceptability and duplicate-free orders are still enforced.
    """
    return Profile({
        int(i): PreferenceOrder.from_groups(int(i), raw) for i, raw in orders.items()
    })


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def most_acceptable_set(profile: Profile, i: AgentId) -> frozenset[AgentId]:
    """Members of ``i``'s best tie group once ``i`` itself is set aside."""
    for group in profile.order(i).group_slices():
        others = frozenset(group) - {i}
        if others:
            return others
    return frozenset()


def restrict(profile: Profile, removed: Iterable[AgentId]) -> Profile:
    """The profile on the remaining agents, with ``removed`` deleted everywhere.

    Surviving agents keep their ids.  Agents whose acceptable set (beyond
    themselves) becomes empty are kept: deleting them too would change which
    agents exist.
    """
    gone = frozenset(removed)
    unknown = gone - profile.agent_set
    if unknown:
        raise ValueError(f"cannot remove unknown agents: {sorted(unknown)}")
    kept_orders = {
        i: order.without(gone)
        for i, order in profile.orders.items()
        if i not in gone
    }
    return Profile(orders=kept_orders)
