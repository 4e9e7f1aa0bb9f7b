"""Blocking pairs, stability checks, and the exhaustive enumerator."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roommates import (
    BlockingReason,
    BudgetExceeded,
    Matching,
    Profile,
    build_profile,
    enumerate_stable_matchings,
    exists_stable_matching,
    find_blocking_pairs,
    find_single_peaked_order,
    find_tssc_order,
    fixture,
    gen_degree3_graph,
    independent_set_to_sr,
    is_perfect,
    is_stable,
    parse_profile,
)
from roommates import stability

from oracles import (
    all_matchings,
    blocking_pairs_by_definition,
    brute_perfect_stable_matchings,
    brute_stable_matchings,
    path_profile_text,
    random_complete_profile,
    random_matching,
    random_profile,
)


def pair_sets(matchings):
    return {frozenset(m.pairs) for m in matchings}


# ---------------------------------------------------------------------------
# find_blocking_pairs
# ---------------------------------------------------------------------------

def test_stable_fixture_matching_has_no_blocking_pairs():
    profile = fixture("example1")
    assert find_blocking_pairs(profile, Matching([(0, 1), (2, 3)])) == []


def test_swapped_fixture_matching_is_blocked():
    profile = fixture("example1")
    found = find_blocking_pairs(profile, Matching([(0, 2), (1, 3)]))
    assert (1, 2) in [bp.pair for bp in found]
    for bp in found:
        if bp.pair == (1, 2):
            assert bp.reason_x is BlockingReason.PREFERS_OVER_PARTNER
            assert bp.reason_y is BlockingReason.PREFERS_OVER_PARTNER


def test_empty_matching_blocks_on_every_edge():
    profile = fixture("example1")
    found = find_blocking_pairs(profile, Matching([]))
    assert [bp.pair for bp in found] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert all(
        bp.reason_x is BlockingReason.UNMATCHED
        and bp.reason_y is BlockingReason.UNMATCHED
        for bp in found
    )


def test_blocking_pairs_come_out_sorted():
    profile = fixture("p3")
    found = find_blocking_pairs(profile, Matching([]))
    assert [bp.pair for bp in found] == sorted(bp.pair for bp in found)


def test_matching_outside_the_profile_is_rejected():
    profile = fixture("example1")
    with pytest.raises(ValueError):
        find_blocking_pairs(profile, Matching([(0, 9)]))


def test_unacceptable_pair_is_rejected():
    # p2's agents 2 and 3 (1-based) do not rank each other.
    with pytest.raises(ValueError):
        find_blocking_pairs(fixture("p2"), Matching([(1, 2)]))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 7))
def test_blocking_pairs_match_the_definition(seed, n):
    rng = random.Random(seed)
    profile = random_profile(rng, n)
    matching = random_matching(rng, profile)
    found = find_blocking_pairs(profile, matching)
    assert {bp.pair for bp in found} == blocking_pairs_by_definition(profile, matching)


# ---------------------------------------------------------------------------
# is_stable / is_perfect
# ---------------------------------------------------------------------------

def test_partial_matching_of_incomplete_fixture_is_stable():
    assert is_stable(fixture("p1"), Matching([(0, 4), (3, 5)]))


def test_cycle_fixture_has_no_stable_matching_at_all():
    profile = fixture("p3")
    for pairs in all_matchings(profile):
        assert not is_stable(profile, Matching(pairs))


def test_empty_profile_empty_matching_is_stable():
    assert is_stable(Profile({}), Matching([]))


def test_perfect_means_everyone_matched():
    profile = fixture("example1")
    assert is_perfect(profile, Matching([(0, 1), (2, 3)]))
    assert not is_perfect(profile, Matching([(0, 1)]))
    assert not is_perfect(fixture("p1"), Matching([(0, 4), (3, 5)]))
    assert not is_perfect(profile, Matching([]))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerates_both_matchings_of_the_tied_example():
    found = enumerate_stable_matchings(fixture("example1"))
    assert pair_sets(found) == {
        frozenset({(0, 1), (2, 3)}),
        frozenset({(0, 3), (1, 2)}),
    }


def test_modified_example_has_none():
    assert enumerate_stable_matchings(fixture("example1_modified")) == []


def test_cycle_fixture_enumerates_empty():
    assert enumerate_stable_matchings(fixture("p3")) == []


def test_incomplete_fixture_agrees_with_the_brute_oracle():
    profile = fixture("p1")
    found = enumerate_stable_matchings(profile)
    assert pair_sets(found) == brute_stable_matchings(profile)
    assert all(not is_perfect(profile, m) for m in found)


def test_star_fixture_has_exactly_two_stable_matchings():
    found = enumerate_stable_matchings(fixture("p2"))
    assert pair_sets(found) == {
        frozenset({(0, 1), (2, 3)}),
        frozenset({(0, 2), (1, 3)}),
    }


def test_enumeration_is_sorted_and_duplicate_free():
    found = enumerate_stable_matchings(fixture("example1"))
    listed = [m.pairs for m in found]
    assert listed == sorted(listed)
    assert len(set(listed)) == len(listed)


def test_exists_returns_a_real_witness():
    ok, witness = exists_stable_matching(fixture("example1"))
    assert ok and witness is not None
    assert is_stable(fixture("example1"), witness)

    ok, witness = exists_stable_matching(fixture("p3"))
    assert (ok, witness) == (False, None)


def test_single_pair_profile_is_satisfiable():
    profile = build_profile({0: [[0], [1]], 1: [[1], [0]]})
    ok, witness = exists_stable_matching(profile)
    assert ok and witness.pairs == ((0, 1),)


def test_budget_is_enforced():
    profile = random_complete_profile(random.Random(0), 10)
    with pytest.raises(BudgetExceeded):
        enumerate_stable_matchings(profile, budget=3)


@pytest.mark.parametrize(
    "k, search, budget",
    [
        (4, enumerate_stable_matchings, 29_003),
        (4, exists_stable_matching, 1_083),
        (5, enumerate_stable_matchings, 21_073),
        (5, exists_stable_matching, 21_073),
    ],
)
def test_smallest_passing_budgets_are_frozen(k, search, budget):
    # The smallest budget each search finishes within pins which nodes it
    # visits and in what order.  The graph's independence number is 4, so
    # k=5 has no stable matching and both searches see the whole tree.
    profile = independent_set_to_sr(gen_degree3_graph(9, 0.4, seed=2), k).profile
    with pytest.raises(BudgetExceeded):
        search(profile, budget=budget - 1)
    search(profile, budget=budget)


def test_the_roadmap_instance_takes_44811_nodes():
    profile = independent_set_to_sr(gen_degree3_graph(10, 0.4, seed=1), 5).profile
    with pytest.raises(BudgetExceeded):
        enumerate_stable_matchings(profile, budget=44_810)
    assert enumerate_stable_matchings(profile, budget=44_811) == []


def pick_by_scan(search):
    """Reference pick: recount every undecided agent's options in id order."""
    best = best_size = None
    for x in range(len(search.agents)):
        if search.maxrank[x] < 0:  # decided
            continue
        size = len(search._choices(x)) + search.can_unmatch[x]
        if size == 0:
            return x
        if best_size is None or size < best_size:
            best, best_size = x, size
            if size == 1:
                break
    return best


class CheckedSearch(stability._StableSearch):
    """The search, checking the maintained sizes and the pick at every node."""

    nodes = 0

    def _pick_agent(self):
        CheckedSearch.nodes += 1
        for x in range(len(self.agents)):
            if self.maxrank[x] >= 0:  # undecided
                assert self.size[x] == len(self._choices(x)) + self.can_unmatch[x]
                assert self.size[x] < self.closed
            else:
                assert self.size[x] == self.closed
        x, options = super()._pick_agent()
        assert x == pick_by_scan(self)
        return x, options


def test_maintained_sizes_equal_a_recount_at_every_node():
    rng = random.Random(41)
    CheckedSearch.nodes = 0
    for _ in range(500):
        n = rng.randint(2, 10)
        profile = random_profile(
            rng, n, p_edge=rng.choice([0.4, 0.7, 1.0]), p_tie=rng.choice([0.0, 0.3, 0.6])
        )
        CheckedSearch(profile).run(budget=10**6)
    assert CheckedSearch.nodes > 8_000


def hub_path_profile(rng, n, hubs):
    """Agents below ``hubs`` accept everyone; the others form a path in id order.

    Each agent ranks itself first and its neighbors in random tie groups, so
    a hub has n - 1 neighbors and the search's sizes need not fit a byte.
    """
    accepted = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if i < hubs or j == i + 1:
                accepted[i].add(j)
                accepted[j].add(i)
    raw = {}
    for i in range(n):
        pool = sorted(accepted[i])
        rng.shuffle(pool)
        groups = [[i]]
        for a in pool:
            if len(groups) > 1 and rng.random() < 0.3:
                groups[-1].append(a)
            else:
                groups.append([a])
        raw[i] = groups
    return build_profile(raw)


@pytest.mark.parametrize("seed, hubs, budget", [(0, 1, 169), (1, 2, 239), (0, 3, 217)])
def test_smallest_passing_budgets_are_frozen_when_sizes_pass_a_byte(seed, hubs, budget):
    profile = hub_path_profile(random.Random(seed), 260, hubs)
    assert stability._StableSearch(profile).wide
    with pytest.raises(BudgetExceeded):
        exists_stable_matching(profile, budget=budget - 1)
    found, matching = exists_stable_matching(profile, budget=budget)
    assert found and is_stable(profile, matching)


@pytest.mark.parametrize("n, wide", [(254, False), (255, True), (260, True)])
def test_sizes_are_checked_at_every_node_on_both_sides_of_a_byte(n, wide):
    # A hub of n - 1 neighbors starts at size n: 254 is the largest that
    # leaves 255 free for decided agents.
    for seed in range(3):
        profile = hub_path_profile(random.Random(seed), n, 2)
        search = CheckedSearch(profile)
        assert search.wide is wide
        CheckedSearch.nodes = 0
        found = search.run(budget=10**6, first_only=True)
        assert CheckedSearch.nodes > 100
        assert found and is_stable(profile, found[0])


class RestoreCheckedSearch(stability._StableSearch):
    """The search, checking that every finished frame leaves the state it found."""

    frames = 0

    def state(self):
        return list(self.size), self.maxrank[:], self.can_unmatch[:]

    def _frame(self, first_only, undecided):
        before = self.state()
        yield from super()._frame(first_only, undecided)
        assert self.state() == before
        RestoreCheckedSearch.frames += 1


@pytest.mark.parametrize(
    "make, wide, budget, frames",
    [
        # No stable matching: all 44,811 nodes and the root finish.
        (lambda: independent_set_to_sr(gen_degree3_graph(10, 0.4, seed=1), 5).profile,
         False, None, 44_812),
        (lambda: parse_profile(path_profile_text(2400)), False, None, 2_401),
        # Too large a tree to finish, so the search stops at the budget.
        (lambda: hub_path_profile(random.Random(1), 260, 2), True, 3_000, 2_800),
    ],
    ids=["is2sr", "path", "hub"],
)
def test_the_search_restores_its_state_after_each_branch(make, wide, budget, frames):
    search = RestoreCheckedSearch(make())
    assert search.wide is wide
    before = search.state()
    RestoreCheckedSearch.frames = 0
    if budget is None:
        search.run(budget=10**6)
        assert search.state() == before
    else:
        with pytest.raises(BudgetExceeded):
            search.run(budget=budget)
    assert RestoreCheckedSearch.frames >= frames


def test_enumerate_stores_at_most_24_bytes_per_pair():
    # Every leaf shares the search's one tuple per acceptable pair.
    profile = independent_set_to_sr(gen_degree3_graph(9, 0.4, seed=2), 4).profile
    tracemalloc.start()
    try:
        found = enumerate_stable_matchings(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = sum(len(m) for m in found)
    assert len(found) == 2_304
    assert peak / pairs <= 24


def test_searches_on_a_long_path_do_not_run_out_of_stack():
    # 1,200 matching decisions, and 2,400 placed agents per axis search, all
    # within the interpreter's default recursion limit.
    n = 2400
    profile = parse_profile(path_profile_text(n))
    found, matching = exists_stable_matching(profile)
    assert found and is_stable(profile, matching)
    assert find_single_peaked_order(profile, max_agents=n).sequence == tuple(range(n))
    assert find_tssc_order(profile, max_agents=n).sequence == tuple(range(n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 7))
def test_enumeration_agrees_with_the_brute_oracle(seed, n):
    profile = random_profile(random.Random(seed), n)
    found = enumerate_stable_matchings(profile)
    assert pair_sets(found) == brute_stable_matchings(profile)


def test_enumeration_agrees_with_the_perfect_only_oracle_when_complete():
    rng = random.Random(23)
    for _ in range(25):
        profile = random_complete_profile(rng, rng.choice([2, 4, 6]), p_tie=0.3)
        found = enumerate_stable_matchings(profile)
        assert pair_sets(found) == brute_perfect_stable_matchings(profile)
        assert all(is_perfect(profile, m) for m in found)


def test_stable_matchings_of_complete_even_profiles_are_perfect():
    for name in ("example1", "example1_modified", "fig2a", "fig2b"):
        profile = fixture(name)
        for m in enumerate_stable_matchings(profile):
            assert is_perfect(profile, m)


def test_adding_a_mutually_devoted_pair_preserves_stability():
    # Append two agents who top-rank each other (below self) and sit at
    # the bottom of everyone else's list; any stable matching extends.
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([2, 4, 6])
        profile = random_complete_profile(rng, n, p_tie=0.2)
        stable = enumerate_stable_matchings(profile)
        if not stable:
            continue
        raw = {
            i: [list(g) for g in profile.order(i).groups] + [[n, n + 1]]
            for i in profile.agents
        }
        raw[n] = [[n], [n + 1], list(range(n))]
        raw[n + 1] = [[n + 1], [n], list(range(n))]
        bigger = build_profile(raw)
        for m in stable:
            extended = Matching(list(m.pairs) + [(n, n + 1)])
            assert is_stable(bigger, extended)
