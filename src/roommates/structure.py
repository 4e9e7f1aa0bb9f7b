"""Structural properties of profiles: completeness, ties, narcissism,
single-peakedness, single-crossingness (plain and tie-sensitive), and
worst-restrictedness.

The ``is_*_wrt`` checks verify a property against a supplied axis; the
``find_*_order`` functions search for such an axis exhaustively and are
meant for small instances only.

Every crossing check judges a pair's collapsed runs along the axis by one
rule, ``_CROSSING_RUNS``, and the axis checks find the smallest pair that
breaks it in one place, :func:`_first_crossing_violation`.  When every voter
ranks every agent, itself included, a tie-aware Kendall identity decides
there with O(n^2 log n) comparisons in O(n^2) memory; its sorted-list
insertions add O(n^3) element moves, which run as block copies and stay
well below the comparisons' cost up to n=800.  Otherwise a streaming scan
reads each voter's view of each pair through :func:`_voter_relations`,
keeping one run string per pair: O(n^3) time and O(n^2) memory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import combinations, groupby, pairwise, permutations

from .errors import BudgetExceeded, TieGroupTooLarge, TiesUnsupported, TooManyAgents
from .model import AgentId, PreferenceOrder, Profile, WitnessOrder
from .search import DEFAULT_SEARCH_BUDGET, depth_first

OrderLike = "WitnessOrder | Sequence[AgentId]"


@dataclass(frozen=True)
class Verdict:
    """Boolean check outcome plus the first counterexample when it fails."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PropertyReport:
    """Summary of a profile's structural properties, as printed by the CLI."""

    complete: bool
    has_ties: bool
    narcissistic: bool
    single_peaked: Verdict | None = None
    tssc: Verdict | None = None
    single_crossing: bool | None = None
    notes: tuple[str, ...] = field(default=())


def _order_positions(profile: Profile, order: OrderLike) -> dict[AgentId, int]:
    """Positions of a witness order, checked to be a permutation of the agents."""
    seq = tuple(order.sequence if isinstance(order, WitnessOrder) else order)
    if len(seq) != len(set(seq)) or set(seq) != set(profile.agent_set):
        raise ValueError("order must be a permutation of the profile's agents")
    return {a: p for p, a in enumerate(seq)}


# ---------------------------------------------------------------------------
# Definitional checks
# ---------------------------------------------------------------------------

def is_complete(profile: Profile) -> bool:
    """True when every agent ranks every other agent.

    Every Profile has symmetric acceptability, so this is a length test.
    """
    n = profile.n_agents
    return all(
        len(order.ranks) + (i not in order.ranks) == n
        for i, order in profile.orders.items()
    )


def has_ties(profile: Profile) -> bool:
    """True when some tie group holds more than one agent."""
    return any(order.has_tie for order in profile.orders.values())


def is_narcissistic(profile: Profile) -> bool:
    """True when every agent lists itself strictly first in its own order.

    This is the strict reading: an agent that omits itself does not count,
    and neither does one that merely ties itself with its favorite.
    """
    return all(
        order.members and order.group(0) == (i,)
        for i, order in profile.orders.items()
    )


# ---------------------------------------------------------------------------
# Single-peakedness w.r.t. a given axis
# ---------------------------------------------------------------------------

def is_single_peaked_wrt(profile: Profile, order: OrderLike) -> Verdict:
    """Check the no-valley condition against a given axis.

    For every agent i and axis-consecutive x < y < z inside i's acceptable
    set, x strictly better than y must imply y at least as good as z.
    Equivalently: no agent's order may strictly improve on both sides of
    any acceptable agent.  On failure the verdict carries the
    lexicographically first violating (agent, x, y, z).

    An order passes exactly when its ranks along the axis never rise and
    then fall, since the largest rank between a rise and a later fall is
    a valley.  That holds exactly when the ranks never rise up to the
    first best rank and never fall after it, so one ``min`` and two sorted
    comparisons per agent check it, each a run that sorts in linear time.
    An order that ranks every agent is read along the axis itself; any
    other order is first sorted by axis position.
    """
    pos = _order_positions(profile, order)
    for i in sorted(profile.orders):
        ranks = profile.orders[i].ranks
        along = pos if len(ranks) == len(pos) else sorted(ranks, key=pos.__getitem__)
        seq = list(map(ranks.__getitem__, along))
        if not seq:
            continue
        peak = seq.index(min(seq))
        before, after = seq[peak::-1], seq[peak:]
        if before != sorted(before) or after != sorted(after):
            return Verdict(False, _first_valley_witness(profile.orders[i], pos))
    return Verdict(True)


def _first_valley_witness(
    order: PreferenceOrder, pos: dict[AgentId, int]
) -> tuple[AgentId, AgentId, AgentId, AgentId]:
    """Lexicographically smallest (i, x, y, z) violating the no-valley rule.

    One pass along the axis makes each (x, y) an O(1) test, so the search
    takes O(n^2) time instead of trying every triple.
    """
    ranks = order.ranks
    # best_after[a]: the best rank held after a along the axis, so y is the
    # middle of a valley exactly when best_after[y] < ranks[y].
    best_after: dict[AgentId, int] = {}
    best = len(ranks)
    for a in sorted(ranks, key=pos.__getitem__, reverse=True):
        best_after[a] = best
        best = min(best, ranks[a])
    members = sorted(ranks)
    for x in members:
        px, rx = pos[x], ranks[x]
        for y in members:
            ry = ranks[y]
            if pos[y] > px and rx < ry and best_after[y] < ry:
                py = pos[y]
                z = next(z for z in members if pos[z] > py and ranks[z] < ry)
                return (order.owner, x, y, z)
    raise AssertionError("caller guarantees a violation exists")


# ---------------------------------------------------------------------------
# Crossing structure w.r.t. a given voter axis
# ---------------------------------------------------------------------------

_A, _T, _B = "A", "T", "B"

# Collapsed run strings a pair may show along a crossing axis: the
# subsequences of A,T,B and of B,T,A.  Without ties only A and B occur, and
# the set then admits exactly the sequences of at most two runs.
_CROSSING_RUNS = frozenset(
    {"", "A", "T", "B", "AT", "AB", "TA", "TB", "BT", "BA", "ATB", "BTA"}
)


def _voter_relations(
    order: PreferenceOrder,
) -> Iterator[tuple[tuple[AgentId, AgentId], str]]:
    """Yield ((x, y), rel) for each pair x < y the voter ranks.

    rel is A when x is strictly better, B when y is, and T on a tie.
    """
    ranks = order.ranks
    members = sorted(ranks)
    for idx, x in enumerate(members):
        rx = ranks[x]
        for y in members[idx + 1 :]:
            ry = ranks[y]
            yield (x, y), _A if rx < ry else _B if rx > ry else _T


def _first_crossing_violation(
    profile: Profile, pos: dict[AgentId, int]
) -> tuple[AgentId, AgentId] | None:
    """Smallest pair whose collapsed runs leave _CROSSING_RUNS, or None.

    When every voter ranks every agent, itself included, the tie-aware
    Kendall identity decides with O(n^2 log n) comparisons; otherwise the
    streaming scan reads every voter's view of every pair it ranks.
    """
    everyone = profile.agent_set
    if everyone and all(
        order.ranks.keys() == everyone for order in profile.orders.values()
    ):
        return _kendall_crossing_violation(profile, pos)
    return _scan_crossing_violation(profile, pos)


def _scan_crossing_violation(
    profile: Profile, pos: dict[AgentId, int]
) -> tuple[AgentId, AgentId] | None:
    """The streaming scan behind :func:`_first_crossing_violation`.

    Visits voters along the axis and keeps one run string per pair, so it
    takes O(n^3) time and O(n^2) memory on complete profiles.  Every voter
    is read even after a violation, since a smaller pair may fail further
    along.
    """
    runs: defaultdict[tuple[AgentId, AgentId], str] = defaultdict(str)
    violated: set[tuple[AgentId, AgentId]] = set()
    for v in sorted(profile.orders, key=pos.__getitem__):
        for pair, rel in _voter_relations(profile.orders[v]):
            seen = runs[pair]
            if seen[-1:] == rel:
                continue
            seen += rel
            if seen in _CROSSING_RUNS:
                runs[pair] = seen
            else:
                violated.add(pair)
    return min(violated, default=None)


def _doubled_midranks(order: PreferenceOrder, index: dict[AgentId, int]) -> list[int]:
    """Twice each agent's mid-rank plus one, in a list in ``index`` order.

    An agent in a tie group holding positions b .. b+s-1 gets 2b + s, so the
    values order agents as the voter does, ties equal.
    """
    keys = [0] * len(index)
    members = order.members
    for lo, hi in pairwise((*order.starts, len(members))):
        for a in members[lo:hi]:
            keys[index[a]] = lo + hi
    return keys


def _discord(
    order: PreferenceOrder,
    index: dict[AgentId, int],
    ku: list[int],
    kv: list[int],
) -> list[int]:
    """D_x(u, v) = sum over y != x of |s_u(x, y) - s_v(x, y)|, for every x.

    s is -1, 0 or +1 as the voter puts x ahead of y, ties them, or puts y
    ahead, so a partner the two voters order oppositely counts 2 and one
    tied by exactly one of them counts 1.  ``order`` is u's order,
    ``ku``, ``kv`` the two voters' :func:`_doubled_midranks`, and the result
    is in ``index`` order too.  With P the agents strictly ahead of x in
    both orders and Q those, x included, at or ahead of x in both,
    D_x = ku[x] + kv[x] - 2(P + Q).  One sweep over u's
    groups, keeping v's keys of the agents already passed sorted, finds P
    and Q with one bisection each: O(n log n) comparisons, plus O(n^2)
    element moves for the insertions.  A lone agent's insertion point is
    its P, so its Q is searched for from there.
    """
    out = [a + b for a, b in zip(ku, kv)]
    passed: list[int] = []
    members = order.members
    for lo, hi in pairwise((*order.starts, len(members))):
        if hi - lo == 1:
            x = index[members[lo]]
            k = kv[x]
            at = bisect_left(passed, k)
            passed.insert(at, k)
            out[x] -= 2 * (at + bisect_right(passed, k, at))
            continue
        group = [index[a] for a in members[lo:hi]]
        for x in group:
            out[x] -= 2 * bisect_left(passed, kv[x])
        for x in group:
            insort(passed, kv[x])
        for x in group:
            out[x] -= 2 * bisect_right(passed, kv[x])
    return out


def _kendall_crossing_violation(
    profile: Profile, pos: dict[AgentId, int]
) -> tuple[AgentId, AgentId] | None:
    """:func:`_first_crossing_violation` for profiles ranking every agent.

    With A, T, B read as -1, 0, +1, a pair's collapsed runs stay in
    _CROSSING_RUNS exactly when its sequence along the axis is monotone,
    that is, when its total variation equals |last - first|; it is never
    less.  Summing over the partners y of one agent x, x lies in a violating
    pair iff sum_t D_x(v_t, v_t+1) > D_x(v_1, v_n) (see :func:`_discord`).  The
    smallest such x is the first coordinate of the smallest violating pair,
    and one pass over x's partners finds the second.
    """
    agents = profile.agents
    n = len(agents)
    index = {a: k for k, a in enumerate(agents)}
    voters = [profile.orders[v] for v in sorted(profile.orders, key=pos.__getitem__)]
    keys = [_doubled_midranks(order, index) for order in voters]
    excess = [-d for d in _discord(voters[0], index, keys[0], keys[-1])]
    for order, ku, kv in zip(voters, keys, keys[1:]):
        excess = [e + d for e, d in zip(excess, _discord(order, index, ku, kv))]
    x = next((x for x, e in enumerate(excess) if e > 0), None)
    if x is None:
        return None
    for y in range(x + 1, n):
        word = "".join(
            _A if k[x] < k[y] else _B if k[x] > k[y] else _T for k in keys
        )
        if "".join(rel for rel, _ in groupby(word)) not in _CROSSING_RUNS:
            return agents[x], agents[y]
    raise AssertionError("an agent with excess variation has a violating pair")


def _extend_runs(runs, rels, trail: list) -> bool:
    """Append each (key, rel) of ``rels`` to the run string ``runs[key]``.

    Records every change on ``trail`` and stops with False at the first
    string that would leave _CROSSING_RUNS; :func:`_undo_runs` rolls back.
    """
    for key, rel in rels:
        seen = runs[key]
        if seen[-1:] == rel:
            continue
        extended = seen + rel
        if extended not in _CROSSING_RUNS:
            return False
        trail.append((key, seen))
        runs[key] = extended
    return True


def _undo_runs(runs, trail: list) -> None:
    for key, old in reversed(trail):
        runs[key] = old


def is_tssc_wrt(profile: Profile, order: OrderLike) -> Verdict:
    """Check tie-sensitive single-crossingness against a voter axis.

    For each unordered pair {x, y}, the voters ranking both must appear
    along the axis as a strict-x block, then a tied block, then a strict-y
    block — or the mirror image.  Voters ranking at most one of the two are
    unconstrained.  On failure the verdict carries the first violating pair
    in (min, max) order.

    Takes O(n^2 log n) comparisons (plus O(n^3) cheap list moves) when
    every voter ranks every agent, itself included, and O(n^3) time
    otherwise; memory is O(n^2) either way.
    """
    pair = _first_crossing_violation(profile, _order_positions(profile, order))
    return Verdict(True) if pair is None else Verdict(False, pair)


def is_trivially_crossing(profile: Profile) -> Verdict:
    """Does every co-ranked pair have agreeing voters, or at most two?

    A pair with unanimous voters contributes one block to any axis, and a
    pair with at most two voters can never produce three blocks — so a
    profile passing this check is tie-sensitively single-crossing with
    respect to *every* order of its agents.  On failure the verdict
    carries the first pair (in (min, max) order) with three or more
    disagreeing voters.
    """
    by_pair: dict[tuple[AgentId, AgentId], set[str]] = {}
    counts: dict[tuple[AgentId, AgentId], int] = {}
    for order in profile.orders.values():
        for pair, rel in _voter_relations(order):
            by_pair.setdefault(pair, set()).add(rel)
            counts[pair] = counts.get(pair, 0) + 1
    for pair in sorted(by_pair):
        if len(by_pair[pair]) > 1 and counts[pair] > 2:
            return Verdict(False, pair)
    return Verdict(True)


def break_ties_fixed(profile: Profile, tiebreak: OrderLike) -> Profile:
    """Resolve every tie by one global order, yielding a linear extension.

    Within each tie group, x comes before y exactly when x precedes y in
    ``tiebreak``.  Profiles without ties come back equal to the input.
    """
    pos = _order_positions(profile, tiebreak)
    new_orders = {}
    for i, order in profile.orders.items():
        members = order.members
        if order.has_tie:
            members = tuple(
                m
                for group in order.group_slices()
                for m in sorted(group, key=pos.__getitem__)
            )
        new_orders[i] = PreferenceOrder(i, members, range(len(members)))
    return Profile(orders=new_orders)


def is_sc_wrt(
    profile: Profile,
    order: OrderLike,
    *,
    max_tie_group: int = 6,
    tssc: Verdict | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> bool:
    """Is some per-agent linear extension single-crossing w.r.t. ``order``?

    Tries one cheap sufficient check first: break all ties by ascending id
    and test the resulting strict profile.  If that fails, searches the tie
    resolutions exactly, voter by voter along the axis.  The exact search
    refuses tie groups larger than ``max_tie_group`` (TieGroupTooLarge)
    rather than guessing, and raises BudgetExceeded past ``budget`` nodes.

    ``tssc``, when given, must be :func:`is_tssc_wrt` of this same profile
    and axis; it is trusted, not re-checked.  A yes settles the question,
    since breaking ties by any one global order keeps every pair's blocks
    monotone, and without ties the two properties coincide, so a no does
    too.  Only a tied profile with a tssc no is then decided here.

    The strict check costs what :func:`is_tssc_wrt` does: O(n^2 log n)
    comparisons when every voter ranks every agent, itself included, else
    O(n^3) time.
    """
    pos = _order_positions(profile, order)
    if tssc is not None and (tssc.ok or not has_ties(profile)):
        return tssc.ok
    if not has_ties(profile):
        return _first_crossing_violation(profile, pos) is None
    tiebroken = break_ties_fixed(profile, WitnessOrder(sorted(profile.agent_set)))
    if _first_crossing_violation(tiebroken, pos) is None:
        return True
    for i in sorted(profile.orders):
        for group in profile.orders[i].group_slices():
            if len(group) > max_tie_group:
                raise TieGroupTooLarge(i, len(group), max_tie_group)
    return _sc_exact(profile, pos, budget)


def _sc_exact(profile: Profile, pos: dict[AgentId, int], budget: int) -> bool:
    """Exact single-crossing decision by backtracking over tie resolutions.

    Voters are processed along the axis; each pair keeps its collapsed run
    string, and a tie group's permutations are only explored as far as
    those strings stay in _CROSSING_RUNS.  Exponential in the worst case —
    callers go through :func:`is_sc_wrt`, which guards group sizes and
    handles the common cases cheaply — so it stops with BudgetExceeded past
    ``budget`` nodes.
    """
    voters = [profile.orders[v] for v in sorted(profile.orders, key=pos.__getitem__)]
    runs: defaultdict[tuple[AgentId, AgentId], str] = defaultdict(str)
    # Backtracking revisits voters, so each one's strict relations are
    # listed once, on its first visit.
    strict: dict[int, list[tuple[tuple[AgentId, AgentId], str]]] = {}

    def frame(k: int, g: int):
        # Voters before k and voter k's groups before g are placed.  Voters
        # without a tie group past g are placed here, under one trail.
        trail: list = []
        while k < len(voters):
            order = voters[k]
            if g == 0:
                if k not in strict:
                    strict[k] = [p for p in _voter_relations(order) if p[1] != _T]
                if not _extend_runs(runs, strict[k], trail):
                    break
            tied = next(
                (h for h in range(g, len(order.starts)) if len(order.group(h)) > 1),
                None,
            )
            if tied is None:
                k, g = k + 1, 0
                continue
            for perm in permutations(order.group(tied)):
                rels = [
                    ((a, b), _A) if a < b else ((b, a), _B)
                    for a, b in combinations(perm, 2)
                ]
                perm_trail: list = []
                if _extend_runs(runs, rels, perm_trail):
                    yield frame(k, tied + 1)
                _undo_runs(runs, perm_trail)
            break
        else:
            yield True
        _undo_runs(runs, trail)

    return depth_first(frame(0, 0), budget)


# ---------------------------------------------------------------------------
# Exhaustive witness-order search
# ---------------------------------------------------------------------------

DEFAULT_SEARCH_AGENTS = 10


def find_single_peaked_order(
    profile: Profile, *, max_agents: int = DEFAULT_SEARCH_AGENTS
) -> WitnessOrder | None:
    """Lexicographically smallest single-peaked axis, or None.

    Exhaustive search over agent orders, pruned by the placement rule that
    an agent's strictly-better set must lie entirely on one side of it.
    Refuses profiles above ``max_agents`` (TooManyAgents).
    """
    agents = profile.agents
    if len(agents) > max_agents:
        raise TooManyAgents(len(agents), max_agents)
    if not agents:
        return WitnessOrder(())
    index = {a: i for i, a in enumerate(agents)}

    # better_masks[y]: for each voter, the agents it strictly prefers to y
    # (as an index bitmask), skipping empty sets.
    better_masks: list[list[int]] = [[] for _ in agents]
    constrained = 0
    for order in profile.orders.values():
        prefix = 0
        for group in order.group_slices():
            if prefix:
                for a in group:
                    better_masks[index[a]].append(prefix)
                    constrained |= prefix | (1 << index[a])
            for a in group:
                prefix |= 1 << index[a]

    full = (1 << len(agents)) - 1
    dead: set[int] = set()
    prefix_order: list[AgentId] = []

    def frame(placed: int):
        if placed == full:
            yield True
            return
        if placed in dead:
            return
        for y in range(len(agents)):
            bit = 1 << y
            # An agent in no constraint is safe to place now, and smallest.
            # Any other agent needs each of its strictly-better sets placed
            # wholly or not at all.
            free = not constrained & bit
            if not placed & bit and (
                free or all((b & placed) in (0, b) for b in better_masks[y])
            ):
                prefix_order.append(agents[y])
                yield frame(placed | bit)
                prefix_order.pop()
                if free:
                    break
        dead.add(placed)

    if depth_first(frame(0)):
        return WitnessOrder(prefix_order)
    return None


def find_tssc_order(
    profile: Profile, *, max_agents: int = DEFAULT_SEARCH_AGENTS
) -> WitnessOrder | None:
    """Lexicographically smallest tie-sensitive single-crossing voter axis.

    Same exhaustive regime as :func:`find_single_peaked_order`.  For
    profiles without ties this doubles as a single-crossing search, since
    the two properties coincide there.
    """
    agents = profile.agents
    if len(agents) > max_agents:
        raise TooManyAgents(len(agents), max_agents)
    if not agents:
        return WitnessOrder(())

    # Pair constraints: voters of each co-ranked pair with their relations.
    by_pair: dict[tuple[AgentId, AgentId], dict[AgentId, str]] = {}
    for v, order in profile.orders.items():
        for pair, rel in _voter_relations(order):
            by_pair.setdefault(pair, {})[v] = rel
    # Pairs where every participating voter agrees can never fail.
    pair_rel: list[dict[AgentId, str]] = [
        votes for votes in by_pair.values() if len(set(votes.values())) > 1
    ]
    voter_rels: dict[AgentId, list[tuple[int, str]]] = {a: [] for a in agents}
    for p_idx, votes in enumerate(pair_rel):
        for v, rel in votes.items():
            voter_rels[v].append((p_idx, rel))

    # Per-pair state: the collapsed run string seen so far.  A placement is
    # admissible while every string stays in _CROSSING_RUNS.
    state: list[str] = [""] * len(pair_rel)
    # The axis so far, kept in a dict for its order and its fast lookups.
    placed: dict[AgentId, None] = {}

    def frame():
        if len(placed) == len(agents):
            yield True
            return
        for v in agents:
            if v in placed:
                continue
            trail: list = []
            if _extend_runs(state, voter_rels[v], trail):
                placed[v] = None
                yield frame()
                placed.popitem()
            _undo_runs(state, trail)
            if not voter_rels[v]:
                # v is in no constraint: placing it now is safe and smallest.
                return

    if depth_first(frame()):
        return WitnessOrder(placed)
    return None


# ---------------------------------------------------------------------------
# Worst-restrictedness
# ---------------------------------------------------------------------------

def is_worst_restricted(profile: Profile) -> bool:
    """True when at most two distinct agents occur as somebody's worst choice.

    This is the global reading, taken over the whole profile.  On complete
    tie-free profiles, Sen's triple-wise worst-restriction (in every agent
    triple, some member is never ranked last among the three) implies it,
    but the converse fails: on its own this check does not guarantee a
    mutually most-acceptable pair.

    Only defined for profiles without ties; tied input raises
    TiesUnsupported rather than guessing at a generalization.
    """
    worsts: set[AgentId] = set()
    for i in sorted(profile.orders):
        order = profile.orders[i]
        if order.has_tie:
            raise TiesUnsupported(i)
        worst = next((a for a in reversed(order.members) if a != i), None)
        if worst is not None:
            worsts.add(worst)
    return len(worsts) <= 2


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def property_report(
    profile: Profile,
    order: OrderLike | None = None,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> PropertyReport:
    """Bundle the definitional checks, plus per-axis verdicts when given one.

    An exact single-crossing search that refuses its input or passes
    ``budget`` nodes leaves the verdict unknown, with a note saying why.
    """
    notes: list[str] = []
    single_peaked = tssc = None
    single_crossing: bool | None = None
    if order is not None:
        single_peaked = is_single_peaked_wrt(profile, order)
        tssc = is_tssc_wrt(profile, order)
        try:
            single_crossing = is_sc_wrt(profile, order, tssc=tssc, budget=budget)
        except (TieGroupTooLarge, BudgetExceeded) as exc:
            notes.append(str(exc))
    return PropertyReport(
        complete=is_complete(profile),
        has_ties=has_ties(profile),
        narcissistic=is_narcissistic(profile),
        single_peaked=single_peaked,
        tssc=tssc,
        single_crossing=single_crossing,
        notes=tuple(notes),
    )
