"""Profiles, preference orders, restriction, and matchings."""

from __future__ import annotations

import copy
import pickle
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roommates import (
    AsymmetricAcceptability,
    BetweennessInstance,
    BlockingPair,
    BlockingReason,
    DuplicateInOrder,
    EdgeColoring,
    GeneratorConfig,
    Graph,
    Matching,
    PreferenceOrder,
    Profile,
    PropertyReport,
    SolveTrace,
    Verdict,
    WitnessOrder,
    break_ties_fixed,
    build_profile,
    find_blocking_pairs,
    fixture,
    gen_narcissistic_sp,
    greedy_solve,
    independent_set_to_sr,
    most_acceptable_set,
    parse_profile,
    restrict,
    serialize_profile,
)

from roommates import model, structure

from oracles import most_acceptable_by_scan, mutually_acceptable_pairs, random_profile

# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_example_fixture_validates():
    profile = fixture("example1")
    assert profile.n_agents == 4
    assert profile.agents == (0, 1, 2, 3)
    assert profile.order(2).has_tie
    assert sum(profile.order(i).has_tie for i in profile.agents) == 1


def test_asymmetric_acceptability_is_rejected():
    with pytest.raises(AsymmetricAcceptability) as info:
        build_profile({0: [[0], [1]], 1: [[1]]})
    assert (info.value.i, info.value.j) in {(0, 1), (1, 0)}


def test_the_first_one_sided_pair_in_id_order_is_named():
    rng = random.Random(7)
    for _ in range(300):
        base = random_profile(rng, rng.randint(2, 8), p_edge=rng.random())
        orders = dict(base.orders)
        for _ in range(rng.randint(0, 3)):
            i = rng.choice(sorted(orders))
            j = rng.randrange(10)  # may be an agent outside the profile
            if j in orders[i].members:
                orders[i] = orders[i].without({j})
            else:
                orders[i] = PreferenceOrder.from_groups(
                    i, [*orders[i].group_slices(), [j]]
                )
        one_sided = [
            (i, j)
            for i in sorted(orders)
            for j in sorted(orders[i].members)
            if j != i and (j not in orders or i not in orders[j].members)
        ]
        if not one_sided:
            assert Profile(orders).orders == orders
            continue
        with pytest.raises(AsymmetricAcceptability) as info:
            Profile(orders)
        assert (info.value.i, info.value.j) == one_sided[0]


def test_duplicate_entry_in_an_order_is_rejected():
    with pytest.raises(DuplicateInOrder):
        build_profile({0: [[0], [1], [1]], 1: [[1], [0]]})


def test_direct_construction_rejects_a_partner_outside_the_profile():
    with pytest.raises(AsymmetricAcceptability) as info:
        Profile({
            0: PreferenceOrder.from_groups(0, [[0], [5]]),
            1: PreferenceOrder.from_groups(1, [[1], [0]]),
        })
    assert (info.value.i, info.value.j) == (0, 5)


def test_direct_construction_rejects_a_duplicate_member():
    with pytest.raises(DuplicateInOrder) as info:
        Profile({
            0: PreferenceOrder(0, (0, 1, 1), (0, 1, 2)),
            1: PreferenceOrder.from_groups(1, [[1], [0]]),
        })
    assert (info.value.agent, info.value.duplicate) == (0, 1)
    assert info.value.args == ("agent 1 appears twice in the order of agent 0",)
    # Duplicates are found before a one-sided pair, even in an order of full length.
    with pytest.raises(DuplicateInOrder) as info:
        Profile({
            0: PreferenceOrder.from_groups(0, [[0], [1]]),
            1: PreferenceOrder(1, (1, 1, 2), (0, 1, 2)),
            2: PreferenceOrder.from_groups(2, [[2]]),
        })
    assert (info.value.agent, info.value.duplicate) == (1, 1)


def test_profile_keeps_its_own_copy_of_the_orders():
    orders = {
        0: PreferenceOrder.from_groups(0, [[0], [1]]),
        1: PreferenceOrder.from_groups(1, [[1], [0]]),
    }
    profile = Profile(orders)
    del orders[1]
    orders[0] = PreferenceOrder.from_groups(0, [[0]])
    assert sorted(profile.orders) == [0, 1]
    assert profile.orders[0].members == (0, 1)


def test_derived_profiles_are_checked_when_built(monkeypatch):
    profile = fixture("example1")
    checked = []
    check = model._check_symmetry

    def spy(orders):
        checked.append(sorted(orders))
        check(orders)

    monkeypatch.setattr(model, "_check_symmetry", spy)
    restrict(profile, [3])
    break_ties_fixed(profile, (0, 1, 2, 3))
    assert checked == [[0, 1, 2], [0, 1, 2, 3]]


def test_profile_rejects_lookup_of_unknown_agent():
    with pytest.raises(ValueError):
        fixture("example1").order(99)


# ---------------------------------------------------------------------------
# Tie runs in preference orders
# ---------------------------------------------------------------------------

def _random_groups(rng: random.Random, n: int, shape: str) -> list[list[int]]:
    """Agents 0..n-1 shuffled and cut into tie groups of the named shape."""
    if shape == "one group":
        sizes = [n]
    elif shape == "singletons":
        sizes = [1] * n
    elif shape == "tied ends" and n >= 4:
        sizes = [2] + [1] * (n - 4) + [2]
    elif shape == "adjacent ties" and n >= 6:
        sizes = [1] + [2, 3] + [1] * (n - 6)
    else:
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, min(4, n - sum(sizes))))
    pool = list(range(n))
    rng.shuffle(pool)
    return [pool[sum(sizes[:g]):sum(sizes[:g + 1])] for g in range(len(sizes))]


SHAPES = ["one group", "singletons", "tied ends", "adjacent ties", "random"]


def test_tie_runs_give_the_ranks_offsets_and_text_of_the_groups():
    rng = random.Random(12)
    for n in range(1, 13):
        for _ in range(6):
            raw, lines = {}, [f"agents {n}"]
            for i in range(n):
                groups = raw[i] = _random_groups(rng, n, rng.choice(SHAPES))
                lines.append(f"pref {i}: "
                             + " | ".join(" ".join(map(str, sorted(g))) for g in groups))
                members = tuple(m for g in groups for m in sorted(g))
                offsets = [sum(map(len, groups[:g])) for g in range(len(groups))]
                order = PreferenceOrder.from_groups(i, groups)
                direct = PreferenceOrder(i, members, offsets)
                assert direct == order
                for built in (order, direct):
                    assert built.ranks == {m: g for g, grp in enumerate(groups) for m in grp}
                    assert tuple(built.starts) == tuple(offsets)
                    assert list(built.group_slices()) == [tuple(sorted(g)) for g in groups]
                    assert built.ties == tuple(
                        bound for g, grp in enumerate(groups) if len(grp) > 1
                        for bound in (offsets[g], offsets[g] + len(grp)))
            assert serialize_profile(build_profile(raw)) == "\n".join(lines) + "\n"


def test_tied_orders_share_their_offsets_and_ranks():
    # Python caches only ints up to 256, so take orders longer than that.
    rng = random.Random(13)
    n = 700
    shared = model._ints(n)
    for shape in SHAPES[:-1] + ["random"] * 4:
        groups = _random_groups(rng, n, shape)
        order = PreferenceOrder.from_groups(0, groups)
        assert order.ranks == {m: g for g, grp in enumerate(groups) for m in grp}
        if order.has_tie:
            assert all(s is shared[s] for s in order.starts)
            assert all(r is shared[r] for r in order.ranks.values())


# ---------------------------------------------------------------------------
# The rank table, derived on each read
# ---------------------------------------------------------------------------

@contextmanager
def _derivations(monkeypatch, *names):
    """The owner of each order the named ``model`` derivations are called on."""
    calls = []

    def spy(derive):
        def spied(order):
            calls.append(order.owner)
            return derive(order)
        return spied

    with monkeypatch.context() as patch:
        for name in names:
            patch.setattr(model, name, spy(getattr(model, name)))
        yield calls


def _first_read_gives(order: PreferenceOrder, groups: list[list[int]]) -> None:
    ranks = order.ranks
    assert ranks == {m: g for g, group in enumerate(groups) for m in group}
    shared = model._ints(len(order.members))
    assert all(r is shared[r] for r in ranks.values())


def test_the_rank_table_read_first_after_any_construction_is_right():
    rng = random.Random(14)
    for n in (1, 2, 7, 300):
        for shape in SHAPES + ["random"] * 3:
            groups = _random_groups(rng, n, shape)
            order = PreferenceOrder.from_groups(0, groups)
            _first_read_gives(order, groups)
            _first_read_gives(pickle.loads(pickle.dumps(order)), groups)
            _first_read_gives(copy.deepcopy(order), groups)
            removed = set(rng.sample(range(n), n // 3))
            kept = [[m for m in g if m not in removed] for g in groups]
            _first_read_gives(order.without(removed), [g for g in kept if g])
            key = {m: rng.random() for m in range(n)}
            broken = structure._broken_by(PreferenceOrder.from_groups(0, groups), key)
            _first_read_gives(broken, [[m] for g in groups for m in sorted(g, key=key.get)])


def test_the_rank_table_is_not_pickled():
    order = PreferenceOrder.from_groups(0, [[0], [1, 2], [3]])
    before = [pickle.dumps(order, protocol) for protocol in (0, pickle.HIGHEST_PROTOCOL)]
    order.ranks
    assert [pickle.dumps(order, protocol) for protocol in (0, pickle.HIGHEST_PROTOCOL)] == before


def test_generating_a_profile_builds_no_rank_table(monkeypatch):
    with _derivations(monkeypatch, "_rank_table") as calls:
        gen_narcissistic_sp(GeneratorConfig(200, True, 0.5, 3))
    assert calls == []


def test_parsing_solving_and_verifying_build_no_rank_table(monkeypatch):
    profile, _ = gen_narcissistic_sp(GeneratorConfig(200, True, 0.5, 3))
    with _derivations(monkeypatch, "_rank_table", "_group_starts") as calls:
        parsed = parse_profile(serialize_profile(profile))
        matching, _ = greedy_solve(parsed)
        assert find_blocking_pairs(parsed, matching) == []
        # Incomplete: the pair 0-1, unmatched here, deleted from both orders.
        assert matching.partner(0) != 1
        orders = dict(profile.orders)
        orders[0], orders[1] = orders[0].without({1}), orders[1].without({0})
        cut = Profile(orders)
        parsed = parse_profile(serialize_profile(cut))
        assert find_blocking_pairs(parsed, matching) == find_blocking_pairs(cut, matching)
    assert calls == []


def test_built_orders_take_their_offsets_from_the_shared_ints(monkeypatch):
    # Every builder hands the constructor its tie spans, which must come
    # from model._ints, and parsing derives neither the group offsets nor
    # a rank table from them.  Python caches ints up to 256, so the sharing
    # is checked on orders longer than that.
    built = []
    for n in (200, 400):
        profile, _ = gen_narcissistic_sp(GeneratorConfig(n, True, 0.5, 3))
        text = serialize_profile(profile)
        with _derivations(monkeypatch, "_rank_table", "_group_starts") as calls:
            parsed = parse_profile(text)
        assert calls == []
        assert parsed == profile
        for order in profile.orders.values():
            built += [order, parsed.order(order.owner),
                      PreferenceOrder.from_groups(order.owner, list(order.group_slices())),
                      order.without(set(order.members[1::3]))]
    tied = [order for order in built if order.has_tie]
    assert len(tied) > len(built) // 2
    shared = model._ints(401)
    for order in tied:
        assert type(order.ties) is tuple
        assert all(s is shared[s] for s in order.ties)
        assert type(order.starts) is tuple
        assert all(s is shared[s] for s in order.starts)


def _text_groups(text: str) -> dict[int, list[list[int]]]:
    """Each line's tie groups, read from a complete profile's canonical text."""
    lines = (line.partition(": ") for line in text.splitlines()[1:])
    return {int(head.split()[1]): [list(map(int, chunk.split())) for chunk in tail.split(" | ")]
            for head, _, tail in lines}


def test_a_strict_order_stores_no_span():
    profile, _ = gen_narcissistic_sp(GeneratorConfig(400, seed=3))
    parsed = parse_profile(serialize_profile(profile))
    orders = [*profile.orders.values(), *parsed.orders.values(),
              PreferenceOrder.from_groups(0, [[0], [2], [1]]),
              PreferenceOrder.from_groups(0, [[0], [1, 2]]).without({1}),
              PreferenceOrder(0, (0, 1), (0, 1)), PreferenceOrder(0, (), ())]
    for order in orders:
        assert order.ties == () and not order.has_tie
        assert order.starts == range(len(order.members))


def test_built_orders_equal_their_twin_from_groups_and_copies(monkeypatch):
    profile, _ = gen_narcissistic_sp(GeneratorConfig(400, True, 0.5, 3))
    text = serialize_profile(profile)
    raw = _text_groups(text)
    parsed = parse_profile(text)
    rng = random.Random(15)
    cases = []
    for i in profile.agents[::5]:
        removed = set(rng.sample(range(400), 150))
        kept = [[m for m in group if m not in removed] for group in raw[i]]
        cases += [(profile.order(i), raw[i]), (parsed.order(i), raw[i]),
                  (PreferenceOrder.from_groups(i, raw[i][::-1]), raw[i][::-1]),
                  (parsed.order(i).without(removed), [group for group in kept if group])]
    assert sum(order.has_tie for order, _ in cases) > 200
    # Equality, hash, repr and pickling read the derived offsets, but
    # none of them may build a rank table.
    with _derivations(monkeypatch, "_rank_table") as calls:
        for order, groups in cases:
            twin = PreferenceOrder.from_groups(order.owner, groups)
            for copied in (order, pickle.loads(pickle.dumps(order)), copy.copy(order),
                           copy.deepcopy(order)):
                assert copied == twin and hash(copied) == hash(twin)
                assert repr(copied) == repr(twin)
                assert copied.ties == twin.ties
                assert list(copied.group_slices()) == [tuple(sorted(g)) for g in groups]
    assert calls == []


# ---------------------------------------------------------------------------
# most_acceptable_set
# ---------------------------------------------------------------------------

def test_most_acceptable_reads_the_top_group():
    profile = fixture("example1")
    assert most_acceptable_set(profile, 2) == {1, 3}
    assert most_acceptable_set(profile, 0) == {1}


def test_most_acceptable_is_singleton_without_ties():
    profile = fixture("fig2a")
    for i in profile.agents:
        assert len(most_acceptable_set(profile, i)) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 7))
def test_most_acceptable_equals_the_scan(seed, n):
    profile = random_profile(random.Random(seed), n)
    for i in profile.agents:
        assert most_acceptable_set(profile, i) == most_acceptable_by_scan(profile, i)


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------

def test_restrict_drops_agents_from_every_order():
    smaller = restrict(fixture("example1"), {1, 2})
    assert smaller.agents == (0, 3)
    assert smaller.order(0).groups == (frozenset({0}), frozenset({3}))
    assert smaller.order(3).groups == (frozenset({3}), frozenset({0}))


def test_restrict_nothing_is_identity():
    profile = fixture("example1")
    assert restrict(profile, set()) == profile


def test_restrict_everything_empties_the_profile():
    profile = fixture("example1")
    assert restrict(profile, set(profile.agents)).n_agents == 0


def test_restrict_unknown_agent_is_an_error():
    with pytest.raises(ValueError):
        restrict(fixture("example1"), {7})


def test_restricted_graph_is_the_induced_subgraph():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 8)
        profile = random_profile(rng, n)
        removed = {a for a in profile.agents if rng.random() < 0.4}
        expected = [
            (x, y)
            for x, y in mutually_acceptable_pairs(profile)
            if x not in removed and y not in removed
        ]
        assert mutually_acceptable_pairs(restrict(profile, removed)) == expected


# ---------------------------------------------------------------------------
# Matching construction
# ---------------------------------------------------------------------------

def test_matching_normalizes_and_sorts_pairs():
    m = Matching([(3, 0), (2, 1)])
    assert m.pairs == ((0, 3), (1, 2))


def test_matching_rejects_self_pair():
    with pytest.raises(ValueError, match="itself"):
        Matching([(1, 1)])


def test_matching_rejects_overlapping_pairs():
    with pytest.raises(ValueError, match="overlap"):
        Matching([(0, 1), (1, 2)])


def pairs_by_the_plain_rule(pairs):
    """Reference Matching normalization: rebuild, sort, walk for overlaps."""
    normalized = []
    for a, b in pairs:
        if a == b:
            raise ValueError(f"an agent cannot be matched with itself: {a}")
        normalized.append((min(a, b), max(a, b)))
    normalized.sort()
    seen = set()
    for a, b in normalized:
        if a in seen or b in seen:
            raise ValueError(f"pair ({a}, {b}) overlaps another pair")
        seen.update((a, b))
    return tuple(normalized)


def outcome(build, pairs):
    try:
        return build(pairs)
    except ValueError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([tuple, list])),
        max_size=5,
    )
)
def test_matching_agrees_with_the_plain_rule(raw):
    # Self-pairs, overlaps, list pairs and reversed pairs give the same
    # pairs or the same error message as the reference.
    pairs = [kind((a, b)) for a, b, kind in raw]
    assert outcome(lambda p: Matching(p).pairs, pairs) == outcome(pairs_by_the_plain_rule, pairs)


def test_matching_keeps_ordered_tuples_it_is_given():
    first, second = (0, 3), (1, 2)
    m = Matching([second, first, [5, 4]])
    assert m.pairs == ((0, 3), (1, 2), (4, 5))
    assert m.pairs[0] is first and m.pairs[1] is second


def test_empty_profile_object_is_legal():
    empty = Profile({})
    assert empty.agents == ()
    assert empty.n_agents == 0


# ---------------------------------------------------------------------------
# Value semantics of the package's records
# ---------------------------------------------------------------------------

def _records():
    """Per record class: a maker of one value, a differing value, its fields."""
    unmatched, prefers = BlockingReason.UNMATCHED, BlockingReason.PREFERS_OVER_PARTNER
    return {
        "PreferenceOrder": (
            lambda: PreferenceOrder.from_groups(1, [[1], [2, 0], [3]]),
            PreferenceOrder.from_groups(1, [[1], [0], [2, 3]]),
            ("owner", "members", "starts"),
        ),
        "Profile": (
            lambda: fixture("example1"), fixture("example1_modified"), ("orders",),
        ),
        "Matching": (lambda: Matching([(1, 0), (2, 3)]), Matching([(0, 2)]), ("pairs",)),
        "WitnessOrder": (lambda: WitnessOrder([2, 0, 1]), WitnessOrder([0, 1, 2]), ("sequence",)),
        "Verdict": (lambda: Verdict(False, (0, 1, 2)), Verdict(False), ("ok", "witness")),
        "PropertyReport": (
            lambda: PropertyReport(True, False, True, Verdict(True), Verdict(False, (1, 2)),
                                   False, ("a note",)),
            PropertyReport(True, False, True),
            ("complete", "has_ties", "narcissistic", "single_peaked", "tssc",
             "single_crossing", "notes"),
        ),
        "BlockingPair": (
            lambda: BlockingPair((0, 1), unmatched, prefers),
            BlockingPair((0, 1), prefers, unmatched),
            ("pair", "reason_x", "reason_y"),
        ),
        "SolveTrace": (
            lambda: SolveTrace((((0, 1), 2), ((2, 3), 0))), SolveTrace(()), ("rounds",),
        ),
        "GeneratorConfig": (
            lambda: GeneratorConfig(6, True, 0.5, 3), GeneratorConfig(6),
            ("n_agents", "allow_ties", "tie_probability", "seed"),
        ),
        "Graph": (lambda: Graph(3, [(1, 0), (2, 1)]), Graph(3, [(0, 1)]), ("n_vertices", "edges")),
        "EdgeColoring": (
            lambda: EdgeColoring((((0, 1),), ((1, 2),))), EdgeColoring((((0, 1), (2, 3)),)),
            ("classes",),
        ),
        "BetweennessInstance": (
            lambda: BetweennessInstance(3, [(0, 1, 2)]), BetweennessInstance(3, [(2, 1, 0)]),
            ("universe_size", "triples"),
        ),
    }


RECORDS = sorted(_records())


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_and_hash_by_their_fields(name):
    make, other, fields = _records()[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert first != other
    assert first != tuple(getattr(first, f) for f in fields)
    if name == "Profile":
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2


def test_an_orders_ranks_take_no_part_in_equality_or_hash(monkeypatch):
    first = PreferenceOrder.from_groups(0, [[0], [1, 2]])
    second = PreferenceOrder.from_groups(0, [[0], [1, 2]])
    with _derivations(monkeypatch, "_rank_table") as calls:
        assert first == second and hash(first) == hash(second)
        assert "ranks" not in repr(first)
    assert calls == []


def test_records_print_as_their_fields():
    assert repr(Matching([(1, 0)])) == "Matching(pairs=((0, 1),))"
    assert repr(Verdict(True)) == "Verdict(ok=True, witness=None)"
    assert repr(WitnessOrder([2, 0])) == "WitnessOrder(sequence=(2, 0))"
    assert repr(PreferenceOrder.from_groups(1, [[1], [2, 0]])) == (
        "PreferenceOrder(owner=1, members=(1, 0, 2), starts=(0, 1))"
    )
    assert repr(Profile({0: PreferenceOrder.from_groups(0, [[0]])})) == (
        "Profile(orders={0: PreferenceOrder(owner=0, members=(0,), starts=range(0, 1))})"
    )
    assert repr(PropertyReport(True, False, True)) == (
        "PropertyReport(complete=True, has_ties=False, narcissistic=True, "
        "single_peaked=None, tssc=None, single_crossing=None, notes=())"
    )
    for name in RECORDS:
        make, _, fields = _records()[name]
        value = make()
        assert repr(value) == (
            f"{name}(" + ", ".join(f"{f}={getattr(value, f)!r}" for f in fields) + ")"
        )


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_can_be_neither_assigned_nor_deleted(name):
    make, _, fields = _records()[name]
    value = make()
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        if (name, field) == ("PreferenceOrder", "starts"):  # derived on each read
            assert getattr(value, field) == before
        else:
            assert getattr(value, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_pickle_and_deepcopy(name):
    make, _, _ = _records()[name]
    value = make()
    for protocol in (0, 2, pickle.HIGHEST_PROTOCOL):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value


def test_records_take_their_fields_by_position_or_keyword():
    assert Verdict(ok=False, witness=(1,)) == Verdict(False, (1,))
    assert Verdict(True).witness is None
    report = PropertyReport(True, has_ties=False, narcissistic=True, notes=("n",))
    assert (report.single_peaked, report.tssc, report.single_crossing) == (None, None, None)
    assert report.notes == ("n",)
    for args, kwargs in [((), {}), ((True, None, 1), {}), ((True,), {"ok": False}),
                         ((True,), {"note": 1})]:
        with pytest.raises(TypeError):
            Verdict(*args, **kwargs)


def test_reduced_instances_compare_by_identity():
    graph = Graph(2, [(0, 1)])
    first, second = independent_set_to_sr(graph, 1), independent_set_to_sr(graph, 1)
    assert first == first and first != second
    assert len({first, second}) == 2
    fields = ("profile", "agent_roles", "sp_witness", "graph", "k", "betweenness",
              "vertex_agents", "a_gadgets", "b_gadgets")
    values = [getattr(first, f) for f in fields]
    assert values == [getattr(second, f) for f in fields]
    for clone in (pickle.loads(pickle.dumps(first)), copy.deepcopy(first)):
        assert clone != first
        assert [getattr(clone, f) for f in fields] == values
    with pytest.raises(AttributeError):
        first.k = 2
    assert repr(first).startswith("ReducedInstance(profile=Profile(orders={")
