"""Fixture catalogue and the two seeded generators."""

from __future__ import annotations

import hashlib

import pytest

from roommates import (
    FIXTURE_NAMES,
    GeneratorConfig,
    UnknownFixture,
    check_degree_cap,
    fixture,
    gen_degree3_graph,
    gen_narcissistic_sp,
    has_ties,
    is_complete,
    is_narcissistic,
    is_single_peaked_wrt,
    serialize_profile,
)

from oracles import single_peaked_by_definition


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def test_catalogue_is_sorted_and_complete():
    assert FIXTURE_NAMES == (
        "example1",
        "example1_modified",
        "fig2a",
        "fig2b",
        "p1",
        "p2",
        "p3",
    )
    for name in FIXTURE_NAMES:
        assert fixture(name).n_agents >= 4


def test_unknown_fixture_reports_the_catalogue():
    with pytest.raises(UnknownFixture) as info:
        fixture("example9")
    assert info.value.known == FIXTURE_NAMES


def test_incomplete_fixture_shapes():
    p1 = fixture("p1")
    for hub in (4, 5):
        assert len(p1.order(hub).ranks.keys() - {hub}) == 4
    assert fixture("fig2b").order(0).groups[0] == {0, 1}


# ---------------------------------------------------------------------------
# Profile generator
# ---------------------------------------------------------------------------

def test_generator_is_deterministic():
    config = GeneratorConfig(n_agents=12, allow_ties=True, seed=99)
    first, axis_a = gen_narcissistic_sp(config)
    second, axis_b = gen_narcissistic_sp(config)
    assert first == second
    assert axis_a == axis_b


def test_generated_profiles_carry_the_advertised_structure():
    for seed in range(12):
        for ties in (False, True):
            config = GeneratorConfig(n_agents=2 * (seed % 5) + 4, allow_ties=ties, seed=seed)
            profile, axis = gen_narcissistic_sp(config)
            assert is_complete(profile)
            assert is_narcissistic(profile)
            assert is_single_peaked_wrt(profile, axis).ok
            assert single_peaked_by_definition(profile, tuple(axis))


def test_two_agents_rank_self_then_other():
    profile, _ = gen_narcissistic_sp(GeneratorConfig(n_agents=2, seed=5))
    for i in profile.agents:
        other = ({0, 1} - {i}).pop()
        assert profile.order(i).groups == ({i}, {other})


def test_tie_controls():
    strict = [
        gen_narcissistic_sp(GeneratorConfig(n_agents=10, allow_ties=False, seed=s))[0]
        for s in range(20)
    ]
    assert not any(has_ties(p) for p in strict)
    never = [
        gen_narcissistic_sp(
            GeneratorConfig(n_agents=10, allow_ties=True, tie_probability=0.0, seed=s)
        )[0]
        for s in range(20)
    ]
    assert not any(has_ties(p) for p in never)
    always = [
        gen_narcissistic_sp(
            GeneratorConfig(n_agents=10, allow_ties=True, tie_probability=1.0, seed=s)
        )[0]
        for s in range(20)
    ]
    assert any(has_ties(p) for p in always)


# SHA-1 of serialize_profile(gen_narcissistic_sp(GeneratorConfig(n, ties, 0.5,
# seed))[0]), recorded from the generator that sorted every agent's partners
# by distance, before the axis walk replaced it.
PINNED_SP_DIGESTS = {
    (2, False, 1): "2547c76c866bd346369e2e58b7144412b804c979",
    (2, False, 3): "2547c76c866bd346369e2e58b7144412b804c979",
    (2, True, 1): "2547c76c866bd346369e2e58b7144412b804c979",
    (2, True, 3): "2547c76c866bd346369e2e58b7144412b804c979",
    (28, False, 1): "f4732412fea83c9e8dfa61fca48b883112de39b3",
    (28, False, 3): "b04de8ab76661e23cad1085f76b6827c6cc3edf5",
    (28, True, 1): "2a93db6d4b411527c3b6371de9d1d325840ec8a0",
    (28, True, 3): "696492c40032b1d8c8e7bb633f306ba79763282c",
    (200, False, 1): "98211b31e8e60d5984186c0ac86c509ccc792591",
    (200, False, 3): "3620428b481f87f00f5bafa53fe07bd2df52cdcf",
    (200, True, 1): "98dc1511e870f6641ff1b310276e53c6ab849c8b",
    (200, True, 3): "19e96710488e761ff956201e94009c3f2b6b2391",
}


@pytest.mark.parametrize("key", sorted(PINNED_SP_DIGESTS))
def test_generated_profiles_keep_their_bytes(key):
    n, ties, seed = key
    profile, _ = gen_narcissistic_sp(GeneratorConfig(n, ties, 0.5, seed))
    text = serialize_profile(profile)
    assert hashlib.sha1(text.encode()).hexdigest() == PINNED_SP_DIGESTS[key]


def test_generator_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GeneratorConfig(n_agents=5)
    with pytest.raises(ValueError):
        GeneratorConfig(n_agents=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_agents=-2)
    with pytest.raises(ValueError):
        GeneratorConfig(n_agents=4, tie_probability=1.5)


# ---------------------------------------------------------------------------
# Graph generator
# ---------------------------------------------------------------------------

def test_graph_generator_edges():
    assert gen_degree3_graph(1, 0.9, seed=1).edges == ()
    k4 = gen_degree3_graph(4, 1.0, seed=1)
    assert k4.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_graph_generator_respects_the_degree_cap():
    for seed in range(15):
        graph = gen_degree3_graph(9, 0.8, seed=seed)
        check_degree_cap(graph)


def test_graph_generator_is_deterministic():
    assert gen_degree3_graph(7, 0.4, seed=3) == gen_degree3_graph(7, 0.4, seed=3)


def test_graph_generator_rejects_bad_values():
    with pytest.raises(ValueError):
        gen_degree3_graph(-1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_degree3_graph(4, 1.5, seed=0)
