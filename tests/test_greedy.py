"""The top-pair elimination solver and its trace."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from roommates import (
    GeneratorConfig,
    Matching,
    NoMutualPair,
    NotComplete,
    NotNarcissistic,
    Profile,
    build_profile,
    enumerate_stable_matchings,
    find_mutual_most_acceptable_pair,
    fixture,
    gen_narcissistic_sp,
    greedy_solve,
    is_stable,
    restrict,
)

from oracles import most_acceptable_by_scan, random_complete_profile

# A complete narcissistic profile whose top choices chase each other in a
# ring, so no two agents ever top-rank each other.
RING = {
    0: [[0], [1], [2], [3]],
    1: [[1], [2], [3], [0]],
    2: [[2], [3], [0], [1]],
    3: [[3], [0], [1], [2]],
}


# ---------------------------------------------------------------------------
# Mutual top pairs
# ---------------------------------------------------------------------------

def test_mutual_pair_of_the_tied_example():
    assert find_mutual_most_acceptable_pair(fixture("example1")) == (1, 2)


def test_mutual_pair_prefers_the_smallest_candidate():
    # Agents 2 and 3 (ids 1, 2) top-rank each other, and so do ids 2, 3;
    # the scan must settle on (1, 2).
    assert find_mutual_most_acceptable_pair(fixture("fig2a")) == (1, 2)


def test_cycle_fixture_has_no_mutual_pair():
    assert find_mutual_most_acceptable_pair(fixture("p3")) is None


def test_ring_profile_has_no_mutual_pair():
    assert find_mutual_most_acceptable_pair(build_profile(RING)) is None


# ---------------------------------------------------------------------------
# greedy_solve
# ---------------------------------------------------------------------------

def test_solves_the_tied_example_with_its_trace():
    matching, trace = greedy_solve(fixture("example1"))
    assert matching.pairs == ((0, 3), (1, 2))
    assert trace.rounds == (((1, 2), 2), ((0, 3), 0))
    assert trace.pairs == ((1, 2), (0, 3))
    assert len(trace.rounds) == 2


def test_solves_the_strict_crossing_example():
    profile = fixture("fig2a")
    matching, trace = greedy_solve(profile)
    assert matching.pairs == ((0, 3), (1, 2))
    assert is_stable(profile, matching)
    assert len(trace.rounds) == 2


def test_empty_profile_gives_empty_result():
    matching, trace = greedy_solve(Profile({}))
    assert matching.pairs == ()
    assert trace.rounds == ()


def test_incomplete_profile_is_refused():
    with pytest.raises(NotComplete):
        greedy_solve(fixture("p1"))


def test_non_narcissistic_profile_is_refused():
    profile = build_profile(
        {
            0: [[1], [0], [2], [3]],
            1: [[1], [0], [2], [3]],
            2: [[2], [0], [1], [3]],
            3: [[3], [0], [1], [2]],
        }
    )
    with pytest.raises(NotNarcissistic) as info:
        greedy_solve(profile)
    assert info.value.agent == 0


def test_ring_profile_raises_with_the_leftover_agents():
    with pytest.raises(NoMutualPair) as info:
        greedy_solve(build_profile(RING))
    assert info.value.remaining == (0, 1, 2, 3)


def test_modified_example_has_no_mutual_pair():
    with pytest.raises(NoMutualPair):
        greedy_solve(fixture("example1_modified"))


# ---------------------------------------------------------------------------
# Properties on generated structured profiles
# ---------------------------------------------------------------------------

def test_generated_profiles_always_solve_stably():
    rng = random.Random(42)
    for trial in range(60):
        n = rng.choice([2, 4, 6, 8, 10, 16, 24])
        config = GeneratorConfig(
            n_agents=n,
            allow_ties=trial % 2 == 0,
            tie_probability=rng.random(),
            seed=trial,
        )
        profile, _ = gen_narcissistic_sp(config)
        matching, trace = greedy_solve(profile)
        assert is_stable(profile, matching)
        assert len(trace.rounds) == n // 2
        remaining = [left for _, left in trace.rounds]
        assert remaining == list(range(n - 2, -1, -2))


def test_small_generated_profiles_land_inside_the_enumeration():
    for seed in range(30):
        config = GeneratorConfig(
            n_agents=2 * (seed % 4 + 1),
            allow_ties=True,
            tie_probability=0.6,
            seed=seed,
        )
        profile, _ = gen_narcissistic_sp(config)
        matching, _ = greedy_solve(profile)
        stable = {frozenset(m.pairs) for m in enumerate_stable_matchings(profile)}
        assert frozenset(matching.pairs) in stable


def _greedy_by_oracle(profile: Profile):
    """The rounds of the greedy loop, each pair found by the oracle's scan on
    the restricted profile, and the agents left when no pair remains."""
    rounds = []
    current = profile
    while current.n_agents:
        tops = {a: most_acceptable_by_scan(current, a) for a in current.agents}
        pair = min(
            ((x, y) for x, y in combinations(current.agents, 2)
             if y in tops[x] and x in tops[y]),
            default=None,
        )
        if pair is None:
            return rounds, current.agents
        current = restrict(current, pair)
        rounds.append((pair, current.n_agents))
    return rounds, ()


def test_each_round_removes_the_scanned_mutual_pair():
    profiles = [
        gen_narcissistic_sp(GeneratorConfig(
            n_agents=n, allow_ties=ties, tie_probability=0.5, seed=seed))[0]
        for n in range(2, 25, 2) for ties in (False, True) for seed in (1, 2, 3, 4)
    ]
    rng = random.Random(5)
    profiles += [
        random_complete_profile(rng, rng.randint(2, 12), p_tie=0.7) for _ in range(300)
    ]
    outcomes = {"solved": 0, "stuck": 0}
    for profile in profiles:
        rounds, stuck = _greedy_by_oracle(profile)
        if stuck:
            outcomes["stuck"] += 1
            with pytest.raises(NoMutualPair) as info:
                greedy_solve(profile)
            assert info.value.remaining == stuck
        else:
            outcomes["solved"] += 1
            assert greedy_solve(profile)[1].rounds == tuple(rounds)
    assert min(outcomes.values()) >= 40, outcomes


def test_solver_leaves_the_input_profile_untouched():
    profile = fixture("example1")
    before = {i: profile.order(i).groups for i in profile.agents}
    greedy_solve(profile)
    assert {i: profile.order(i).groups for i in profile.agents} == before
