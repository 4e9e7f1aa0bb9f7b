"""Core data model: agents, weak-order preferences, profiles, matchings,
and witness orders (a linear order of the agents, such as an axis).

Agents are plain non-negative ints.  A preference order ranks the agents
its owner finds acceptable in tie groups, best group first; an agent may
list itself.  It is stored flat: the members in rank order (ascending
inside a tie group) and the start and end of each tie group, so an order
without ties stores no span.  Group offsets, a rank table and the
frozenset ``groups`` are derived from those on each read, and kept by
no order.  A profile bundles one order per agent, and its
constructor is the one validity check: acceptability is symmetric and no
order names an agent twice.  Nothing more is required, so an agent may
rank nobody and the number of agents may be odd.

Top-level profiles use dense ids ``0..n-1``.  Profiles produced by
:func:`restrict` keep the surviving agents' original ids, so sub-profiles
stay comparable with the instance they came from.

The package's value types derive from :class:`_Record`, one small base
that builds equality, hash, repr, immutability and pickling from a tuple
of field names.  It generates no code at import, so defining a value
type costs nothing at start-up and no command loads ``inspect``.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import chain

from .errors import AsymmetricAcceptability, DuplicateInOrder

AgentId = int

RawOrder = Sequence[Iterable[AgentId]]


# Python caches only small int objects, so rank values and spans are
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


class _Record:
    """An immutable value whose fields are named by ``_fields``.

    Records of the same class are equal when their fields are; the hash
    and the repr are built from the same fields, and no attribute can be
    assigned or deleted.  Pickling and copying call the constructor with
    the fields in order.  The default ``__init__`` takes the fields by
    position or keyword, and a class attribute named after a field is its
    default; a class with ``__slots__`` writes its own.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() is missing field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        fields = ", ".join([f"{name}={value!r}" for name, value in pairs])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class PreferenceOrder(_Record):
    """One agent's ranked tie groups, stored flat, most preferred group first.

    ``members`` lists the ranked agents group by group, ascending inside a
    tie group, and ``ties`` the start and end in ``members`` of each group
    with two or more members: ``()`` when every group is a singleton.
    ``starts`` (the offset where each group begins: a ``range`` when every
    group is a singleton, else a tuple), ``ranks`` (each member's group
    index) and ``groups`` are derived from those on each read, so a reader
    that needs one more than once holds it.  ``starts`` stands for the
    stored form in equality, hash, repr and pickling.

    Build orders with :meth:`from_groups`.  The constructor takes the group
    offsets, as pickling passes them, and the library's builders call
    :meth:`_from_ties`.  Both trust their input and that each group's
    members are ascending: an order built from unsorted groups compares
    unequal to the same order built by :meth:`from_groups`.  Both take the
    span ints from :func:`_ints`, so every order shares the same objects.
    """

    __slots__ = ("owner", "members", "ties")
    _fields = ("owner", "members", "starts")

    owner: AgentId
    members: tuple[AgentId, ...]
    ties: tuple[int, ...]

    def __init__(self, owner: AgentId, members: tuple[AgentId, ...], starts: Sequence[int]):
        ends = (*starts[1:], len(members))
        ties = [bound for lo, hi in zip(starts, ends) if hi - lo > 1 for bound in (lo, hi)]
        self._store(owner, members, ties)

    @classmethod
    def _from_ties(
        cls, owner: AgentId, members: tuple[AgentId, ...], ties: Sequence[int]
    ) -> "PreferenceOrder":
        """The order with these members and tie spans, taken as given."""
        return cls.__new__(cls)._store(owner, members, ties)

    def _store(
        self, owner: AgentId, members: tuple[AgentId, ...], ties: Sequence[int]
    ) -> "PreferenceOrder":
        set_field = object.__setattr__
        set_field(self, "owner", owner)
        set_field(self, "members", members)
        set_field(self, "ties", tuple(map(_ints(len(members) + 1).__getitem__, ties)))
        return self

    @property
    def starts(self) -> Sequence[int]:
        return _group_starts(self)

    @property
    def ranks(self) -> dict[AgentId, int]:
        return _rank_table(self)

    @classmethod
    def from_groups(cls, owner: AgentId, raw: RawOrder) -> "PreferenceOrder":
        """Build from raw tie groups, checking them.

        Repeats inside a group merge, empty groups drop, and an agent in two
        groups raises DuplicateInOrder.
        """
        seen: set[AgentId] = set()
        members: list[AgentId] = []
        ties: list[int] = []
        for raw_group in raw:
            group = sorted({int(x) for x in raw_group})
            if not group:
                continue
            for member in group:
                if member in seen:
                    raise DuplicateInOrder(owner, member)
                seen.add(member)
            if len(group) > 1:
                ties += (len(members), len(members) + len(group))
            members += group
        return cls._from_ties(owner, tuple(members), ties)

    def group_slices(self) -> Iterator[tuple[AgentId, ...]]:
        """Each tie group's members, ascending, best group first."""
        members, ties = self.members, self.ties
        # Singletons from lo to each tie's start, then the tie; after the last
        # tie, singletons up to the end.
        for lo, start, end in zip((0, *ties[1::2]), (*ties[::2], len(members)), (*ties[1::2], 0)):
            for k in range(lo, start):
                yield members[k:k + 1]
            if start < end:
                yield members[start:end]

    @property
    def groups(self) -> tuple[frozenset[AgentId], ...]:
        return tuple(frozenset(g) for g in self.group_slices())

    @property
    def has_tie(self) -> bool:
        return bool(self.ties)

    def without(self, removed: Collection[AgentId]) -> "PreferenceOrder":
        """Copy of this order with ``removed`` deleted and empty groups dropped."""
        members: list[AgentId] = []
        ties: list[int] = []
        for group in self.group_slices():
            kept = [m for m in group if m not in removed]
            if len(kept) > 1:
                ties += (len(members), len(members) + len(kept))
            members += kept
        return PreferenceOrder._from_ties(self.owner, tuple(members), ties)


def _group_starts(order: PreferenceOrder) -> Sequence[int]:
    """A new sequence of the offsets where the groups of ``order`` start.

    Between two ties they are consecutive numbers: one slice of :func:`_ints`.
    """
    size, ties = len(order.members), order.ties
    if not ties:
        return range(size)
    numbers, starts = _ints(size), []
    for lo, last in zip((0, *ties[1::2]), (*ties[::2], size - 1)):
        starts += numbers[lo:last + 1]
    return tuple(starts)


def _rank_table(order: PreferenceOrder) -> dict[AgentId, int]:
    """A new table from each member of ``order`` to its group's index.

    Between two tie groups the values, taken from :func:`_ints`, are a run
    of consecutive numbers: one slice each.
    """
    members, ties = order.members, order.ties
    numbers = _ints(len(members))
    if not ties:
        return dict(zip(members, numbers))
    values: list[int] = []
    lo = extra = 0  # extra: the members beyond one per group before lo
    for start, end in zip(ties[::2], ties[1::2]):
        values += numbers[lo - extra:start - extra]
        values += [numbers[start - extra]] * (end - start)
        extra += end - start - 1
        lo = end
    values += numbers[lo - extra:len(members) - extra]
    return dict(zip(members, values))


class Profile(_Record):
    """A collection of preference orders, one per agent, keyed by owner.

    The constructor copies ``orders`` and raises DuplicateInOrder for an
    agent twice in one order and AsymmetricAcceptability for a one-sided
    pair.  Ids may be sparse, isolated agents are allowed and the number
    of agents may be odd.
    """

    _fields = ("orders",)

    orders: Mapping[AgentId, PreferenceOrder]

    def __init__(self, orders: Mapping[AgentId, PreferenceOrder]):
        orders = dict(orders)
        _check_symmetry(orders)
        object.__setattr__(self, "orders", orders)

    @cached_property
    def agents(self) -> tuple[AgentId, ...]:
        return tuple(sorted(self.orders))

    @property
    def n_agents(self) -> int:
        return len(self.orders)

    def order(self, i: AgentId) -> PreferenceOrder:
        try:
            return self.orders[i]
        except KeyError:
            raise ValueError(f"no agent {i} in this profile") from None


class Matching(_Record):
    """A set of disjoint unordered agent pairs."""

    _fields = ("pairs",)

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

    def partner(self, x: AgentId) -> AgentId | None:
        """Partner of ``x``, or None when ``x`` is unmatched."""
        return self.partner_map.get(x)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


class WitnessOrder(_Record):
    """A linear order over all agents of a profile, e.g. a single-peaked axis."""

    _fields = ("sequence",)

    sequence: tuple[AgentId, ...]

    def __init__(self, sequence: Sequence[AgentId]):
        seq = tuple(int(a) for a in sequence)
        if len(set(seq)) != len(seq):
            raise ValueError("a witness order must not repeat agents")
        object.__setattr__(self, "sequence", seq)

    def __iter__(self):
        return iter(self.sequence)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _check_symmetry(orders: Mapping[AgentId, PreferenceOrder]) -> None:
    """The profile constructor's validity check.

    Raise DuplicateInOrder for the first order, in the mapping's order,
    that names an agent twice, and then AsymmetricAcceptability for the
    first one-sided pair in id order.  One set of each order's members
    answers the duplicate test, and whether the order ranks exactly the
    profile's agents.  A profile in which every agent does is symmetric.
    In any other, each agent must rank exactly the agents of lower id that
    rank it, which needs no rank table.
    """
    everyone = set(orders)
    complete = True
    for order in orders.values():
        ranked = set(order.members)
        if len(ranked) != len(order.members):
            seen: set[AgentId] = set()
            for member in order.members:
                if member in seen:
                    raise DuplicateInOrder(order.owner, member)
                seen.add(member)
        complete = complete and ranked == everyone
    if complete:
        return
    from array import array  # an extension module: complete profiles never load it
    owners = sorted(orders)
    index = {i: k for k, i in enumerate(owners)}
    # lower[k]: the agents of lower id that rank owners[k], as positions in owners.
    lower = [array("i") for _ in owners]
    for k, i in enumerate(owners):
        for j in orders[i].members:
            if j > i and j in index:
                lower[index[j]].append(k)
    if all(
        everyone.issuperset(orders[i].members)
        and lower[k] == array("i", sorted([index[j] for j in orders[i].members if j < i]))
        for k, i in enumerate(owners)
    ):
        return
    ranked = {i: set(orders[i].members) for i in owners}
    one_sided = [(i, j) for i in owners for j in orders[i].members if i not in ranked.get(j, ())]
    raise AsymmetricAcceptability(*min(one_sided))


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
    unknown = gone - profile.orders.keys()
    if unknown:
        raise ValueError(f"cannot remove unknown agents: {sorted(unknown)}")
    kept_orders = {
        i: order.without(gone)
        for i, order in profile.orders.items()
        if i not in gone
    }
    return Profile(orders=kept_orders)
