"""Structural property checks, witnesses, and small-scale detection."""

from __future__ import annotations

import gc
import itertools
import random
import sys
import tracemalloc

import pytest

from roommates import (
    BudgetExceeded,
    GeneratorConfig,
    PreferenceOrder,
    TieGroupTooLarge,
    TiesUnsupported,
    TooManyAgents,
    WitnessOrder,
    break_ties_fixed,
    build_profile,
    find_mutual_most_acceptable_pair,
    find_single_peaked_order,
    find_tssc_order,
    fixture,
    gen_narcissistic_sp,
    has_ties,
    is_complete,
    is_narcissistic,
    is_sc_wrt,
    is_single_peaked_wrt,
    is_trivially_crossing,
    is_tssc_wrt,
    is_worst_restricted,
    property_report,
    restrict,
)
from roommates import structure

from oracles import (
    first_tssc_violation_by_definition,
    first_valley_witness,
    random_complete_profile,
    random_profile,
    random_sc_profile,
    sc_by_definition,
    single_peaked_by_definition,
    smallest_tssc_axis_by_definition,
    tssc_by_definition,
    worst_restricted_by_definition,
)

AXIS = WitnessOrder((0, 1, 2, 3))


def all_orders(profile):
    return [WitnessOrder(p) for p in itertools.permutations(profile.agents)]


# ---------------------------------------------------------------------------
# Flat flags
# ---------------------------------------------------------------------------

def test_flags_of_the_tied_example():
    profile = fixture("example1")
    assert is_complete(profile)
    assert has_ties(profile)
    assert is_narcissistic(profile)


def test_flags_of_the_star_fixture():
    profile = fixture("p2")
    assert not is_complete(profile)
    assert is_narcissistic(profile)


def test_self_omission_is_not_narcissistic():
    profile = build_profile({0: [[1]], 1: [[0]]})
    assert not is_narcissistic(profile)


def test_self_must_also_be_strictly_first():
    profile = build_profile({0: [[0, 1], [2], [3]],
                             1: [[0], [1], [3], [2]],
                             2: [[3], [1], [2], [0]],
                             3: [[3], [2], [1], [0]]})
    assert not is_narcissistic(profile)


# ---------------------------------------------------------------------------
# Single-peakedness w.r.t. an axis
# ---------------------------------------------------------------------------

def test_tied_example_is_single_peaked_on_the_natural_axis():
    verdict = is_single_peaked_wrt(fixture("example1"), AXIS)
    assert verdict.ok and verdict.witness is None
    assert bool(verdict)


def test_incomplete_fixture_is_single_peaked_under_no_axis():
    profile = fixture("p1")
    for order in all_orders(profile):
        assert not is_single_peaked_wrt(profile, order)


def test_failure_reports_the_first_valley():
    profile = fixture("fig2a")
    for order in all_orders(profile):
        verdict = is_single_peaked_wrt(profile, order)
        expected = first_valley_witness(profile, tuple(order))
        if verdict.ok:
            assert expected is None
        else:
            assert verdict.witness == expected


def test_axis_check_accepts_plain_sequences():
    assert is_single_peaked_wrt(fixture("example1"), (0, 1, 2, 3)).ok


def test_axis_must_be_a_permutation_of_the_agents():
    with pytest.raises(ValueError):
        is_single_peaked_wrt(fixture("example1"), (0, 1, 2))
    with pytest.raises(ValueError):
        is_single_peaked_wrt(fixture("example1"), (0, 1, 2, 9))


def test_single_peaked_matches_the_definition_on_random_profiles():
    rng = random.Random(3)
    failures = 0
    for _ in range(60):
        profile = random_profile(rng, rng.randint(2, 6), p_tie=0.3)
        order = list(profile.agents)
        rng.shuffle(order)
        verdict = is_single_peaked_wrt(profile, order)
        assert verdict.ok == single_peaked_by_definition(profile, order)
        assert verdict.witness == first_valley_witness(profile, order)
        failures += not verdict.ok
    assert failures >= 20  # 29 at this seed


def test_single_peaked_reads_complete_orders_like_the_definition():
    # Orders that rank every agent are read along the axis; orders that
    # omit their owner take the sorted path.
    rng = random.Random(4)
    verdicts = []
    for n in range(2, 10):
        for narcissistic in (True, False):
            for p_tie in (0.0, 0.3, 0.6):
                for omit_owner in (False, True):
                    profile = random_complete_profile(rng, n, narcissistic, p_tie)
                    if omit_owner:
                        profile = build_profile({
                            i: [[a for a in g if a != i] for g in order.group_slices()]
                            for i, order in profile.orders.items()
                        })
                    order = list(profile.agents)
                    rng.shuffle(order)
                    verdict = is_single_peaked_wrt(profile, order)
                    assert verdict.ok == single_peaked_by_definition(profile, order)
                    assert verdict.witness == first_valley_witness(profile, order)
                    verdicts.append((omit_owner, verdict.ok))
    for omit_owner in (False, True):
        assert (omit_owner, True) in verdicts and (omit_owner, False) in verdicts


# ---------------------------------------------------------------------------
# Tie-sensitive crossing w.r.t. an order
# ---------------------------------------------------------------------------

def test_tied_example_is_tssc_on_the_natural_axis():
    assert is_tssc_wrt(fixture("example1"), AXIS).ok


def test_tied_crossing_fixture_fails_tssc_under_every_order():
    # The pairs among {1,2,3} pin the candidate order down to (0,1,2,3) or
    # its reverse, and under those two the tied pair {0,1} breaks the
    # strict-tied-strict block shape; all other orders die even earlier.
    profile = fixture("fig2b")
    for order in all_orders(profile):
        assert not is_tssc_wrt(profile, order).ok
    for axis in ((0, 1, 2, 3), (3, 2, 1, 0)):
        assert is_tssc_wrt(profile, axis).witness == (0, 1)


def test_sparse_rankings_are_tssc_under_every_order():
    # Each pair of agents is ranked together by at most one agent.
    profile = build_profile({0: [[1], [2]], 1: [[0]], 2: [[0]]})
    for order in all_orders(profile):
        assert is_tssc_wrt(profile, order).ok


def test_tssc_matches_the_definition_on_random_profiles():
    rng = random.Random(4)
    for _ in range(60):
        profile = random_profile(rng, rng.randint(2, 6), p_tie=0.3)
        order = list(profile.agents)
        rng.shuffle(order)
        verdict = is_tssc_wrt(profile, order)
        assert bool(verdict) == tssc_by_definition(profile, order)
        assert verdict.witness == first_tssc_violation_by_definition(profile, order)


def _peak_bytes(check, profile, axis):
    """``check(profile, axis)`` and its tracemalloc peak."""
    # CPython reuses up to 2000 freed 2-tuples without calling the
    # allocator, so tracemalloc would miss a varying share of the pair
    # keys.  Holding more than that many keeps every pair key counted.
    held = [(i, -i) for i in range(4000)]
    tracemalloc.start()
    try:
        return check(profile, axis), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        del held


def _tssc_peak_bytes(profile, axis) -> int:
    """tracemalloc peak of a passing is_tssc_wrt call."""
    verdict, peak = _peak_bytes(is_tssc_wrt, profile, axis)
    assert verdict.ok
    return peak


def _sp_profile(n):
    return gen_narcissistic_sp(
        GeneratorConfig(n, allow_ties=True, tie_probability=0.5, seed=3)
    )


def _deleting(profile, removals):
    """The profile with removals[i] deleted from agent i's order."""
    raw = {}
    for i, order in profile.orders.items():
        gone = removals.get(i, set())
        raw[i] = [sorted(g - gone) for g in order.groups if g - gone]
    return build_profile(raw)


def _adjacent_swap(axis, k):
    seq = list(axis)
    seq[k], seq[k + 1] = seq[k + 1], seq[k]
    return seq


def test_tssc_memory_grows_with_the_pairs_not_the_voter_pair_table():
    # The axis check keeps O(n^2) state on a complete profile, so doubling
    # n should about quadruple the peak.  A per-voter table of every pair's
    # relation would grow as n^3 (8x).
    peaks = [_tssc_peak_bytes(*_sp_profile(n)) for n in (50, 100)]
    assert peaks[1] <= 5 * peaks[0]


def test_resolving_ties_keeps_no_table_per_voter():
    # On a tied swapped axis is_sc_wrt resolves every voter's ties.  The
    # resolved orders are read one at a time and only their keys are kept,
    # so its peak stays below that of is_tssc_wrt, which keeps the same keys.
    profile, axis = _sp_profile(200)
    order = _adjacent_swap(axis, 100)
    tssc, tssc_peak = _peak_bytes(is_tssc_wrt, profile, order)
    crossing, peak = _peak_bytes(is_sc_wrt, profile, order)
    assert not tssc.ok and has_ties(profile) and crossing is False
    assert peak <= tssc_peak


def test_a_property_report_leaves_no_table_on_the_voters():
    # On a tied swapped axis the report reads every voter's rank table in
    # the single-peaked, tssc and crossing checks.  What it leaves behind,
    # measured with no collection pending, must stay below five tables of
    # n entries; one per voter would be n of them.
    profile, axis = _sp_profile(200)
    order = _adjacent_swap(axis, 100)
    table = sys.getsizeof(dict.fromkeys(range(200)))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = property_report(profile, order)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert report.tssc.ok is False and report.single_crossing is False
    assert kept < 5 * table


def test_tssc_scan_memory_grows_with_the_pairs_on_incomplete_profiles():
    # Deleting one mutually acceptable pair from both orders sends the
    # check down the streaming scan, whose one run string per pair must
    # keep memory at Theta(n^2) as well.
    peaks = []
    for n in (50, 100):
        profile, axis = _sp_profile(n)
        profile = _deleting(profile, {0: {1}, 1: {0}})
        assert not is_complete(profile)
        peaks.append(_tssc_peak_bytes(profile, axis))
    assert peaks[1] <= 5 * peaks[0]


def _complete_cases(rng):
    """(profile, axis) pairs on which every voter ranks every agent."""
    for narcissistic in (True, False):
        for p_tie in (0.0, 0.3, 0.6):
            for _ in range(25):
                profile = random_complete_profile(
                    rng, rng.randint(2, 9), narcissistic, p_tie
                )
                axis = list(profile.agents)
                rng.shuffle(axis)
                yield profile, axis
    for n in (2, 4, 6, 8):
        for seed in range(6):
            profile, axis = gen_narcissistic_sp(
                GeneratorConfig(n, allow_ties=seed % 2 == 0, tie_probability=0.5,
                                seed=seed)
            )
            yield profile, axis.sequence
            yield profile, _adjacent_swap(axis, rng.randrange(n - 1))


def test_kendall_path_matches_the_definitions_on_complete_profiles():
    tssc_failures = sc_checked = 0
    for profile, axis in _complete_cases(random.Random(14)):
        verdict = is_tssc_wrt(profile, axis)
        assert verdict.ok == tssc_by_definition(profile, axis)
        assert verdict.witness == first_tssc_violation_by_definition(profile, axis)
        tssc_failures += not verdict.ok
        try:
            expected = sc_by_definition(profile, axis, cap=4096)
        except ValueError:
            continue  # too many tie resolutions for the oracle
        assert is_sc_wrt(profile, axis) == expected
        sc_checked += 1
    assert tssc_failures >= 100 and sc_checked >= 120


def _definitional_discord(u, v, agents):
    """sum over y != x of |s_u(x, y) - s_v(x, y)|, for each x in ``agents``."""
    def s(order, x, y):
        rx, ry = order.ranks[x], order.ranks[y]
        return (rx > ry) - (rx < ry)

    return [
        sum(abs(s(u, x, y) - s(v, x, y)) for y in agents if y != x) for x in agents
    ]


def _random_grouped_order(rng, owner, agents):
    """Every agent in random order, cut into tie groups of 1-3 members."""
    pool = list(agents)
    rng.shuffle(pool)
    groups = []
    while pool:
        size = rng.randint(1, 3)
        groups.append(pool[:size])
        pool = pool[size:]
    return PreferenceOrder.from_groups(owner, groups)


def test_discord_matches_the_definition_on_tied_order_pairs():
    rng = random.Random(18)
    # Where a tie group sits: first, strictly inside, last.
    tied_at = {"start": 0, "middle": 0, "end": 0}
    for _ in range(400):
        agents = sorted(rng.sample(range(20), rng.randint(1, 10)))
        u = _random_grouped_order(rng, agents[0], agents)
        v = _random_grouped_order(rng, agents[-1], agents)
        last = len(u.starts) - 1
        for g, group in enumerate(u.group_slices()):
            if len(group) > 1:
                tied_at["start" if g == 0 else "end" if g == last else "middle"] += 1
        index = {a: k for k, a in enumerate(agents)}
        odd = list(range(1, 2 * len(agents), 2))
        ku = structure._doubled_midranks(u, index, odd)
        kv = structure._doubled_midranks(v, index, odd)
        assert structure._discord(u, index, ku, kv) == (
            _definitional_discord(u, v, agents)
        )
    assert min(tied_at.values()) >= 100


def test_kendall_path_matches_the_scan_on_larger_profiles():
    rng = random.Random(15)
    cases = []
    for _ in range(20):
        profile = random_complete_profile(
            rng, rng.randint(10, 40), rng.random() < 0.5, rng.choice((0.0, 0.3, 0.6))
        )
        cases.append((profile, rng.sample(profile.agents, profile.n_agents)))
    for seed in range(20):
        n = rng.choice((10, 20, 30, 40))
        profile, axis = gen_narcissistic_sp(
            GeneratorConfig(n, allow_ties=seed % 2 == 0, tie_probability=0.5, seed=seed)
        )
        cases.append((profile, axis.sequence))
        cases.append((profile, _adjacent_swap(axis, rng.randrange(n - 1))))
    violations = 0
    for profile, axis in cases:
        pos = {a: p for p, a in enumerate(axis)}
        for p in (profile, break_ties_fixed(profile, sorted(profile.agents))):
            expected = structure._scan_crossing_violation(p, pos)
            assert structure._first_crossing_violation(p, pos) == expected
            violations += expected is not None
    assert violations >= 40


def test_only_profiles_missing_a_ranking_take_the_scan(monkeypatch):
    class ScanReached(Exception):
        pass

    def scan(profile, pos):
        raise ScanReached

    monkeypatch.setattr(structure, "_scan_crossing_violation", scan)
    rng = random.Random(16)
    for narcissistic in (True, False):
        profile = random_complete_profile(rng, 6, narcissistic, p_tie=0.3)
        axis = list(profile.agents)
        is_tssc_wrt(profile, axis)
        is_sc_wrt(profile, axis)
        is_sc_wrt(break_ties_fixed(profile, axis), axis)

    complete = random_complete_profile(rng, 6, p_tie=0.3)
    omits_itself = _deleting(complete, {0: {0}})
    assert is_complete(omits_itself)
    incomplete = _deleting(complete, {2: {3}, 3: {2}})
    sparse = restrict(complete, [1])
    for profile in (omits_itself, incomplete, fixture("p1")):
        with pytest.raises(ScanReached):
            is_tssc_wrt(profile, profile.agents)
    # Restricting a complete profile keeps it complete, with sparse ids.
    assert is_tssc_wrt(sparse, sparse.agents).witness == (
        first_tssc_violation_by_definition(sparse, sparse.agents)
    )


def test_trivially_crossing_fixture_and_witness():
    assert is_trivially_crossing(build_profile({0: [[1], [2]], 1: [[0]], 2: [[0]]})).ok
    verdict = is_trivially_crossing(fixture("example1"))
    assert not verdict.ok  # four agents rank every pair, disagreeing on some


def test_trivially_crossing_implies_tssc_everywhere():
    profile = build_profile({0: [[1], [2]], 1: [[0]], 2: [[0]]})
    assert is_trivially_crossing(profile).ok
    for order in all_orders(profile):
        assert is_tssc_wrt(profile, order).ok


# ---------------------------------------------------------------------------
# Single-crossing w.r.t. an order (via tie-breaking)
# ---------------------------------------------------------------------------

def test_tied_crossing_fixture_is_sc_on_the_natural_axis():
    assert is_sc_wrt(fixture("fig2b"), AXIS)


def test_strict_crossing_fixture_is_sc_under_no_order():
    profile = fixture("fig2a")
    for order in all_orders(profile):
        assert not is_sc_wrt(profile, order)


def test_sc_equals_tssc_without_ties():
    rng = random.Random(5)
    for _ in range(40):
        profile = random_profile(rng, rng.randint(2, 5), p_tie=0.0)
        for order in all_orders(profile):
            assert is_sc_wrt(profile, order) == bool(is_tssc_wrt(profile, order))


def test_sc_exact_search_matches_the_brute_oracle():
    rng = random.Random(6)
    for _ in range(40):
        profile = random_profile(rng, rng.randint(2, 5), p_tie=0.45)
        order = list(profile.agents)
        rng.shuffle(order)
        assert is_sc_wrt(profile, order) == sc_by_definition(profile, order)


def test_a_deep_tied_instance_is_answered_without_a_search():
    # Frozen value.  Every voter ranks every agent, itself included, so one
    # tie-resolution pass and the strict check answer it: no search runs.
    profile, axis = gen_narcissistic_sp(GeneratorConfig(50, True, 0.5, 3))
    order = list(axis.sequence)
    order[25], order[26] = order[26], order[25]
    assert is_sc_wrt(profile, order) is False


def _tied_behind_self(omitting=()):
    """Eight agents, each ranking itself first and the other seven in one tie.

    The voters in ``omitting`` leave themselves out, so those profiles are
    off the domain where every voter ranks every agent.
    """
    raw = {i: [[i], [j for j in range(8) if j != i]] for i in range(8)}
    for i in omitting:
        raw[i] = raw[i][1:]
    return build_profile(raw)


def test_oversized_tie_groups_are_refused_not_guessed():
    # With every self-entry dropped, ties broken by id already settle it, so
    # only agent 0 leaves itself out here; that keeps the exact search.
    profile = _tied_behind_self(omitting=[0])
    with pytest.raises(TieGroupTooLarge):
        is_sc_wrt(profile, WitnessOrder(range(8)))
    assert is_sc_wrt(profile, WitnessOrder(range(8)), max_tie_group=7)


def test_the_tie_resolution_pass_needs_no_guard_or_budget():
    # Every voter ranks every agent in these inputs, so neither the tie-group
    # guard nor the budget applies; the exact search refused the first and
    # needs 126 nodes on the second.
    profile = _tied_behind_self()
    assert is_sc_wrt(profile, WitnessOrder(range(8)), max_tie_group=1, budget=0)
    report = property_report(profile, WitnessOrder(range(8)), budget=0)
    assert (report.single_crossing, report.notes) == (True, ())
    profile, order = tied_swapped_axis(2)
    assert is_sc_wrt(profile, order, budget=0) is False
    report = property_report(profile, order, budget=0)
    assert (report.single_crossing, report.notes) == (False, ())


def _sc_outcome(profile, axis, **kwargs):
    """is_sc_wrt's answer, or the type of the error it raises."""
    try:
        return is_sc_wrt(profile, axis, **kwargs)
    except TieGroupTooLarge:
        return TieGroupTooLarge


def test_a_passed_tssc_verdict_gives_the_same_answer():
    rng = random.Random(19)
    cases = list(_complete_cases(rng))
    for p_tie in (0.0, 0.3, 0.6):
        for _ in range(60):
            profile = random_profile(rng, rng.randint(2, 7), p_tie=p_tie)
            axis = list(profile.agents)
            rng.shuffle(axis)
            cases.append((profile, axis))
    checked = incomplete = tssc_no_tied = 0
    for profile, axis in cases:
        tssc = is_tssc_wrt(profile, axis)
        answer = _sc_outcome(profile, axis, tssc=tssc)
        assert answer == _sc_outcome(profile, axis)
        tssc_no_tied += not tssc.ok and has_ties(profile)
        try:
            expected = sc_by_definition(profile, axis, cap=4096)
        except ValueError:
            continue  # too many tie resolutions for the oracle
        assert answer == expected
        checked += 1
        incomplete += not is_complete(profile)
    assert checked >= 250 and incomplete >= 80 and tssc_no_tied >= 50


def _kendall_sweep_cases(rng):
    """Profiles in which every voter ranks every agent, with voter axes.

    Most are built single-crossing and then tied, on their own axis or with
    two axis positions swapped; the rest are random complete profiles on
    shuffled axes.
    """
    for _ in range(3000):
        n = rng.randint(2, 6)
        profile, axis = random_sc_profile(rng, n, rng.choice((0.3, 0.6)))
        if rng.random() < 0.3:
            j, k = rng.sample(range(n), 2)
            axis[j], axis[k] = axis[k], axis[j]
        yield profile, axis
    for _ in range(400):
        profile = random_complete_profile(
            rng, rng.randint(2, 6), rng.random() < 0.5, rng.choice((0.3, 0.6))
        )
        yield profile, rng.sample(profile.agents, profile.n_agents)


def test_the_tie_resolution_pass_matches_the_oracle():
    checked = tied_yes = missed_by_ids = no = 0
    for profile, axis in _kendall_sweep_cases(random.Random(20)):
        try:
            expected = sc_by_definition(profile, axis, cap=1024)
        except ValueError:
            continue  # too many tie resolutions for the oracle
        assert is_sc_wrt(profile, axis) == expected
        checked += 1
        no += not expected
        if expected and has_ties(profile):
            tied_yes += 1
            by_ids = break_ties_fixed(profile, sorted(profile.agents))
            missed_by_ids += not is_tssc_wrt(by_ids, axis).ok
    assert checked >= 2000 and tied_yes >= 500 and missed_by_ids >= 200 and no >= 200


def test_the_tie_resolution_pass_keeps_the_exact_search_verdicts():
    # Frozen from the exact search, which the pass replaces on these tied
    # n=28 swapped inputs of generator seeds 0-59: all no.
    verdicts = [is_sc_wrt(*tied_swapped_axis(seed)) for seed in range(60)]
    assert verdicts == [False] * 60


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(structure, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(structure, name, spy)
    return calls


@pytest.mark.parametrize(
    "ties, swap, kendall, tiebreaks",
    [(False, True, 1, 0), (True, False, 1, 0), (True, True, 2, 1)],
    ids=["strict-swapped", "tied-true-axis", "tied-swapped"],
)
def test_report_decides_crossing_once_unless_tssc_fails_on_ties(
    monkeypatch, ties, swap, kendall, tiebreaks
):
    profile, axis = gen_narcissistic_sp(GeneratorConfig(30, ties, 0.5, seed=3))
    order = _adjacent_swap(axis, 15) if swap else axis.sequence
    assert has_ties(profile) == ties
    kendall_calls = _count_calls(monkeypatch, "_kendall_crossing_violation")
    # Every voter ranks every agent here, so ties are broken by one pass.
    tiebreak_calls = _count_calls(monkeypatch, "_resolve_ties")
    report = property_report(profile, order)
    assert report.tssc.ok == (not swap)
    assert (len(kendall_calls), len(tiebreak_calls)) == (kendall, tiebreaks)


# ---------------------------------------------------------------------------
# Tie-breaking by a fixed order
# ---------------------------------------------------------------------------

def test_break_ties_resolves_the_example_tie():
    broken = break_ties_fixed(fixture("example1"), AXIS)
    assert broken.order(2).groups == (
        frozenset({2}), frozenset({1}), frozenset({3}), frozenset({0}),
    )
    assert not has_ties(broken)


def test_break_ties_is_identity_without_ties():
    profile = fixture("fig2a")
    assert break_ties_fixed(profile, AXIS) == profile


def test_break_ties_yields_a_linear_extension():
    rng = random.Random(8)
    for _ in range(30):
        profile = random_profile(rng, rng.randint(2, 6), p_tie=0.5)
        tiebreak = list(profile.agents)
        rng.shuffle(tiebreak)
        broken = break_ties_fixed(profile, tiebreak)
        tb_pos = {a: p for p, a in enumerate(tiebreak)}
        for i in profile.agents:
            before = profile.order(i)
            after = broken.order(i)
            assert not after.has_tie or all(len(g) == 1 for g in after.groups)
            assert before.ranks.keys() == after.ranks.keys()
            for x in before.ranks:
                for y in before.ranks:
                    if x == y:
                        continue
                    bx, by = before.ranks[x], before.ranks[y]
                    ax, ay = after.ranks[x], after.ranks[y]
                    if bx < by:
                        assert ax < ay  # strict preferences survive
                    elif bx == by:
                        assert (ax < ay) == (tb_pos[x] < tb_pos[y])


def test_tssc_profiles_stay_crossing_after_any_tiebreak():
    profile = fixture("example1")
    assert is_tssc_wrt(profile, AXIS).ok
    for tiebreak in all_orders(profile):
        assert is_sc_wrt(break_ties_fixed(profile, tiebreak), AXIS)


def test_a_found_tssc_axis_is_single_crossing():
    rng = random.Random(5)
    axes = tied = 0
    for _ in range(300):
        profile = random_profile(rng, rng.randint(3, 7))
        axis = find_tssc_order(profile)
        if axis is None:
            continue
        axes += 1
        tied += has_ties(profile)
        assert sc_by_definition(profile, axis.sequence)
        assert is_sc_wrt(profile, axis)
    # 130 axes, 113 of them on tied profiles, at this seed.
    assert axes >= 100 and tied >= 80


# ---------------------------------------------------------------------------
# Small-scale witness search
# ---------------------------------------------------------------------------

def test_finds_the_natural_axis_for_the_tied_example():
    assert find_single_peaked_order(fixture("example1")) == WitnessOrder((0, 1, 2, 3))
    assert find_tssc_order(fixture("example1")) == WitnessOrder((0, 1, 2, 3))


def test_search_returns_none_for_uncrossable_fixtures():
    assert find_tssc_order(fixture("fig2a")) is None
    assert find_tssc_order(fixture("fig2b")) is None
    assert find_single_peaked_order(fixture("p1")) is None


def test_single_agent_profile_searches_to_itself():
    profile = build_profile({0: [[0]]})
    assert find_single_peaked_order(profile) == WitnessOrder((0,))
    assert find_tssc_order(profile) == WitnessOrder((0,))


def test_search_bound_is_enforced():
    profile = random_complete_profile(random.Random(0), 12)
    with pytest.raises(TooManyAgents):
        find_single_peaked_order(profile)
    with pytest.raises(TooManyAgents):
        find_tssc_order(profile)


def test_search_agrees_with_exhaustive_scan_on_small_profiles():
    rng = random.Random(9)
    for _ in range(25):
        profile = random_profile(rng, rng.randint(2, 5), p_tie=0.3)
        perms = [tuple(p) for p in itertools.permutations(profile.agents)]

        sp_expected = next(
            (p for p in perms if single_peaked_by_definition(profile, p)), None
        )
        sp_found = find_single_peaked_order(profile)
        assert (None if sp_found is None else sp_found.sequence) == sp_expected

        tssc_expected = next(
            (p for p in perms if tssc_by_definition(profile, p)), None
        )
        tssc_found = find_tssc_order(profile)
        assert (None if tssc_found is None else tssc_found.sequence) == tssc_expected


def test_the_crossing_axis_search_returns_the_smallest_passing_permutation():
    # find_tssc_order skips a (placed voters, run strings) state that has
    # failed before; the axis it returns must still be the smallest one.
    rng = random.Random(22)
    outcomes = set()
    for case in range(2000):
        tied, complete = case % 2 == 0, case % 4 < 2
        profile = random_profile(
            rng, rng.randint(1, 7),
            p_edge=1.0 if complete else rng.uniform(0.3, 0.9),
            p_tie=rng.uniform(0.2, 0.6) if tied else 0.0,
            include_self=rng.random() < 0.5,
        )
        expected = smallest_tssc_axis_by_definition(profile)
        found = find_tssc_order(profile, max_agents=7)
        assert (None if found is None else found.sequence) == expected, case
        assert has_ties(profile) <= tied
        outcomes.add((tied, complete, expected is None))
    # Each of tied and strict, complete and incomplete, has profiles with
    # an axis and profiles without one.
    assert len(outcomes) == 8


# ---------------------------------------------------------------------------
# Worst-restrictedness
# ---------------------------------------------------------------------------

def test_strict_crossing_fixture_is_worst_restricted():
    assert is_worst_restricted(fixture("fig2a"))


def test_cycle_fixture_spreads_its_worsts_too_widely():
    assert not is_worst_restricted(fixture("p3"))


def test_two_agents_are_always_worst_restricted():
    assert is_worst_restricted(build_profile({0: [[0], [1]], 1: [[1], [0]]}))


def test_worst_restricted_refuses_ties():
    with pytest.raises(TiesUnsupported):
        is_worst_restricted(fixture("example1"))


def test_worst_restricted_complete_narcissistic_profiles_have_a_mutual_pair():
    """Claim: a tie-free, complete, narcissistic profile that is
    worst-restricted in Sen's triple-wise sense (in every agent triple,
    someone is never ranked last among the three) contains two agents who
    are each other's most-acceptable choice.

    Sen's condition is the one under which the claim holds; the global
    check ``is_worst_restricted`` (at most two distinct worst choices) is
    weaker, as the pinned counterexample at the end shows.  On complete
    strict profiles Sen's condition implies the global one, so every hit
    must also pass ``is_worst_restricted``.
    """
    rng = random.Random(10)
    hits = 0
    for _ in range(400):
        profile = random_complete_profile(rng, rng.choice([4, 6]), p_tie=0.0)
        if not worst_restricted_by_definition(profile):
            continue
        hits += 1
        assert is_worst_restricted(profile)
        assert find_mutual_most_acceptable_pair(profile) is not None
    assert hits >= 20  # the property must actually get exercised

    # The global check alone is not enough: worst choices are {0, 2}, but
    # the top choices run 0->3, 1->3, 2->1, 3->2, and in the triple
    # {1, 2, 3} each member is ranked last by someone.
    counterexample = build_profile(
        {
            0: [[0], [3], [1], [2]],
            1: [[1], [3], [2], [0]],
            2: [[2], [1], [3], [0]],
            3: [[3], [2], [1], [0]],
        }
    )
    assert is_worst_restricted(counterexample)
    assert find_mutual_most_acceptable_pair(counterexample) is None
    assert not worst_restricted_by_definition(counterexample)


def test_worst_restricted_sampling_is_not_vacuous():
    rng = random.Random(10)
    hits = sum(
        is_worst_restricted(random_complete_profile(rng, rng.choice([4, 6]), p_tie=0.0))
        for _ in range(400)
    )
    assert hits >= 20


# ---------------------------------------------------------------------------
# Cross-property invariants
# ---------------------------------------------------------------------------

def test_all_axis_checks_ignore_order_reversal():
    rng = random.Random(12)
    for _ in range(30):
        profile = random_profile(rng, rng.randint(2, 5), p_tie=0.3)
        order = WitnessOrder(
            rng.sample(sorted(profile.agents), profile.n_agents)
        )
        flipped = WitnessOrder(order.sequence[::-1])
        assert bool(is_single_peaked_wrt(profile, order)) == bool(
            is_single_peaked_wrt(profile, flipped)
        )
        assert bool(is_tssc_wrt(profile, order)) == bool(is_tssc_wrt(profile, flipped))
        assert is_sc_wrt(profile, order) == is_sc_wrt(profile, flipped)


def test_sc_narcissistic_complete_orders_are_also_single_peaked():
    rng = random.Random(13)
    checked = 0
    for _ in range(40):
        profile = random_complete_profile(rng, 4, p_tie=0.25)
        for order in all_orders(profile):
            if is_sc_wrt(profile, order):
                checked += 1
                assert is_single_peaked_wrt(profile, order).ok
    assert checked >= 10


def test_generated_single_peaked_profiles_have_mutual_pairs():
    for seed in range(25):
        config = GeneratorConfig(
            n_agents=2 * (seed % 5 + 1),
            allow_ties=seed % 2 == 0,
            tie_probability=0.5,
            seed=seed,
        )
        profile, axis = gen_narcissistic_sp(config)
        assert is_single_peaked_wrt(profile, axis).ok
        assert find_mutual_most_acceptable_pair(profile) is not None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_report_without_an_order_has_no_verdicts():
    report = property_report(fixture("example1"))
    assert (report.complete, report.has_ties, report.narcissistic) == (
        True, True, True,
    )
    assert report.single_peaked is None
    assert report.tssc is None
    assert report.single_crossing is None


def test_report_with_an_order_fills_the_verdicts():
    report = property_report(fixture("example1"), AXIS)
    assert report.single_peaked.ok
    assert report.tssc.ok
    assert report.single_crossing is True


def test_report_notes_an_unanswerable_crossing_question():
    report = property_report(_tied_behind_self(omitting=[0]), WitnessOrder(range(8)))
    assert report.single_crossing is None
    assert report.notes


def tied_swapped_axis(seed):
    """A tied n=28 SP profile, its axis with positions 14 and 15 swapped."""
    profile, axis = gen_narcissistic_sp(GeneratorConfig(28, True, 0.5, seed))
    order = list(axis.sequence)
    order[14], order[15] = order[15], order[14]
    return profile, order


def test_report_is_unknown_when_the_exact_crossing_search_passes_its_budget():
    # With the self-entries dropped the tie-broken check fails here, so the
    # answer needs the exact search, which takes 126 nodes.
    profile, order = tied_swapped_axis(2)
    profile = _deleting(profile, {i: {i} for i in profile.agents})
    with pytest.raises(BudgetExceeded):
        is_sc_wrt(profile, order, budget=125)
    assert is_sc_wrt(profile, order, budget=126) is False
    report = property_report(profile, order, budget=1)
    assert report.single_crossing is None
    assert report.notes == ("search exceeded its budget of 1 nodes",)
    assert report.tssc == property_report(profile, order).tssc


@pytest.mark.parametrize("seed", [0, 1, 3, 6, 12, 19])
def test_the_default_budget_answers_tied_swapped_axes(seed):
    # The axis_check benchmark's tied inputs are drawn this way.
    profile, order = tied_swapped_axis(seed)
    report = property_report(profile, order)
    assert report.notes == ()
    assert report.single_crossing == sc_by_definition(profile, order, cap=4096)
