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
    serialize_order,
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


# SHA-256 of serialize_profile(profile) + serialize_order(axis) for
# gen_narcissistic_sp(GeneratorConfig(n, allow_ties, tie_probability, seed)),
# recorded from the generator that appended one offset per entry.  The rng
# draws one tie decision per equidistant pair, nearest first, agent by agent;
# a walk that draws in another order changes these bytes.
FROZEN_SP_SHA256 = {
    (2, False, 0.0, 0): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, False, 0.0, 1): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, False, 0.0, 2): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, False, 0.0, 3): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.0, 0): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.0, 1): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.0, 2): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.0, 3): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.5, 0): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.5, 1): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.5, 2): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 0.5, 3): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 1.0, 0): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 1.0, 1): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 1.0, 2): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (2, True, 1.0, 3): "e164f9835b8b47e5e4f502f20902898ea297259c5f5dfb388b2a4d04f5804f5f",
    (4, False, 0.0, 0): "a9a36343f6993832b5a2584194c85cdae5cff1cc1447e335100291f55a6e498d",
    (4, False, 0.0, 1): "43934407962aeffbba1a3999410f569264b045b9b517e514afd6ad039348e3d9",
    (4, False, 0.0, 2): "a4914a7d3c8695fb028118eed32ac4ce3592444d608c51fe729dca050a101785",
    (4, False, 0.0, 3): "db0a3e0b9cae218984c2c60460fd44bfb66ecee3239219855e54e5310d398159",
    (4, True, 0.0, 0): "a9a36343f6993832b5a2584194c85cdae5cff1cc1447e335100291f55a6e498d",
    (4, True, 0.0, 1): "43934407962aeffbba1a3999410f569264b045b9b517e514afd6ad039348e3d9",
    (4, True, 0.0, 2): "a4914a7d3c8695fb028118eed32ac4ce3592444d608c51fe729dca050a101785",
    (4, True, 0.0, 3): "db0a3e0b9cae218984c2c60460fd44bfb66ecee3239219855e54e5310d398159",
    (4, True, 0.5, 0): "a9a36343f6993832b5a2584194c85cdae5cff1cc1447e335100291f55a6e498d",
    (4, True, 0.5, 1): "43934407962aeffbba1a3999410f569264b045b9b517e514afd6ad039348e3d9",
    (4, True, 0.5, 2): "a4914a7d3c8695fb028118eed32ac4ce3592444d608c51fe729dca050a101785",
    (4, True, 0.5, 3): "db0a3e0b9cae218984c2c60460fd44bfb66ecee3239219855e54e5310d398159",
    (4, True, 1.0, 0): "a9a36343f6993832b5a2584194c85cdae5cff1cc1447e335100291f55a6e498d",
    (4, True, 1.0, 1): "43934407962aeffbba1a3999410f569264b045b9b517e514afd6ad039348e3d9",
    (4, True, 1.0, 2): "a4914a7d3c8695fb028118eed32ac4ce3592444d608c51fe729dca050a101785",
    (4, True, 1.0, 3): "db0a3e0b9cae218984c2c60460fd44bfb66ecee3239219855e54e5310d398159",
    (10, False, 0.0, 0): "d598a7cfbd9ae4b2c8cb9a121d7851194b77e5ffdfd14d4a726e33700b4e33c9",
    (10, False, 0.0, 1): "3c570cd39d77b8c698e6d8eb1589007e9ba64523d0e748dacb06676c9579a819",
    (10, False, 0.0, 2): "a748817e8db8f5f21287782b04c81d2dfbcc0a879f02df288f7deeba70881277",
    (10, False, 0.0, 3): "78e3f89486d058bf2e84b586191817643691c3c9d0e6dd0493bf17fff76c069d",
    (10, True, 0.0, 0): "d598a7cfbd9ae4b2c8cb9a121d7851194b77e5ffdfd14d4a726e33700b4e33c9",
    (10, True, 0.0, 1): "3c570cd39d77b8c698e6d8eb1589007e9ba64523d0e748dacb06676c9579a819",
    (10, True, 0.0, 2): "a748817e8db8f5f21287782b04c81d2dfbcc0a879f02df288f7deeba70881277",
    (10, True, 0.0, 3): "78e3f89486d058bf2e84b586191817643691c3c9d0e6dd0493bf17fff76c069d",
    (10, True, 0.5, 0): "093d175b6b383bdd2f8c0871649ae9ee21bb31f0b479a98ff1204ac5bd4e96bb",
    (10, True, 0.5, 1): "1db53a1a32b5161495ff6d162d343691c96fc48b330d533c32a77fa29776329e",
    (10, True, 0.5, 2): "fb507ec979cd3df6320eac8942837635adde9241fbb35822148cc2f11e1ebad9",
    (10, True, 0.5, 3): "78e3f89486d058bf2e84b586191817643691c3c9d0e6dd0493bf17fff76c069d",
    (10, True, 1.0, 0): "154e1235691403c7c4d6061c665d46be4574fb386cee8dc614a3e4686618c4ba",
    (10, True, 1.0, 1): "1db53a1a32b5161495ff6d162d343691c96fc48b330d533c32a77fa29776329e",
    (10, True, 1.0, 2): "0616c0929b6abf38ad58a86f5192ee829b5a4cf7e7e618895e35f37eadd5aa1e",
    (10, True, 1.0, 3): "80beef9c7f678aacf52ba717699edbd68a5dde9428b98c5eb9253c024144a891",
    (40, False, 0.0, 0): "ad23da440d8b569534016b8e154e6dadf0f7bd57eef0fb35b055a00d4876973e",
    (40, False, 0.0, 1): "1f8521948ed4df7a228db9d149a1d0bc370865a0cfbf81ddbf4150a45bc99bee",
    (40, False, 0.0, 2): "79bf791b6a186d0a20b282bc52fd1bfda3d5084cf570652b8eaf79d7161914b8",
    (40, False, 0.0, 3): "0d60c2f530a20f0882ec5d683e1fd8800bcf4366ef3b95a9297d929762021cc5",
    (40, True, 0.0, 0): "ad23da440d8b569534016b8e154e6dadf0f7bd57eef0fb35b055a00d4876973e",
    (40, True, 0.0, 1): "1f8521948ed4df7a228db9d149a1d0bc370865a0cfbf81ddbf4150a45bc99bee",
    (40, True, 0.0, 2): "79bf791b6a186d0a20b282bc52fd1bfda3d5084cf570652b8eaf79d7161914b8",
    (40, True, 0.0, 3): "0d60c2f530a20f0882ec5d683e1fd8800bcf4366ef3b95a9297d929762021cc5",
    (40, True, 0.5, 0): "80a1e1d576690ceeb9d3f43a2611c2900399f7fd0e67e0db4a89e4b36187bc25",
    (40, True, 0.5, 1): "79248747a3b4ca09e17cf688c6fdb03ca8d5ceda6b290d75cbb3f402e35ee9f1",
    (40, True, 0.5, 2): "46cb04468c6f07feca1d60b10d7da0a92056117ecf58bba1ef6e45c3fc169b7c",
    (40, True, 0.5, 3): "389ff84f0a2c2f2b4637e7d00040f971f06cfd8fdbd3a139a1a8efb11f14ccac",
    (40, True, 1.0, 0): "a2140734d9b1303236e1a42e80baa0ca6f0668eb4131ac6dae5b54a3acbe3ee1",
    (40, True, 1.0, 1): "e0d65813362054543c713e14d34874ce731080e8f0c6a918e5566bfc11cc3532",
    (40, True, 1.0, 2): "7b8265b830978f8c1dfa8ca375b9c67651d8d3cc0c8679ed0d7fa7857bbdaad3",
    (40, True, 1.0, 3): "c8ddfff17cca367ed06366ae9c2c61593e19d73909a62c2b699f7f7e5393eb98",
    (400, False, 0.0, 0): "c98d339d4e7cd1e7bc507674cc14507b6198bb6220d7bc8da9f7fca8096d8485",
    (400, False, 0.0, 1): "f965c3eac638a340b1657cf2b68561ca7c171ff708172a55e25a78e8b97a2926",
    (400, False, 0.0, 2): "9a5338d02ed016cec4f953692bc67d6b4b97a0f88634986d5c76fb0b5ffe11aa",
    (400, False, 0.0, 3): "4425225010696eb22a3f390fd9ffc2fa8a91cd7852da7c1999f8ed9ead1da569",
    (400, True, 0.0, 0): "c98d339d4e7cd1e7bc507674cc14507b6198bb6220d7bc8da9f7fca8096d8485",
    (400, True, 0.0, 1): "f965c3eac638a340b1657cf2b68561ca7c171ff708172a55e25a78e8b97a2926",
    (400, True, 0.0, 2): "9a5338d02ed016cec4f953692bc67d6b4b97a0f88634986d5c76fb0b5ffe11aa",
    (400, True, 0.0, 3): "4425225010696eb22a3f390fd9ffc2fa8a91cd7852da7c1999f8ed9ead1da569",
    (400, True, 0.5, 0): "2deac6d34ce6c82ab7de2293d88be24e88a15d3001c116829daefa6c031647c8",
    (400, True, 0.5, 1): "14995fb7a51044b4f13271a86fc304c10f35f37d18182e188cbae6497b7a04dd",
    (400, True, 0.5, 2): "62835468cf7b3407f416a3f696d88803a0cee552a207c8760ecd01f76ec1ae19",
    (400, True, 0.5, 3): "77bc7855e3d701e8af6b0e6bd008f475d0444a7648ca8c2b3b47b3642114a8db",
    (400, True, 1.0, 0): "4b6a318cc8f970aedd88886eb9d650eb4bcc429ed0ac8c6d45989ab9644419f6",
    (400, True, 1.0, 1): "c7e1af2b2cf5e6abd302173dc0b62ce71fb733d6a2754f3d83436b3c7f11089f",
    (400, True, 1.0, 2): "c3886918ad511e102be6d6c3ae102fc70a7e3c2de26d44e31a0aec14be673837",
    (400, True, 1.0, 3): "d08696874da815a1f36658b0e8d0fa8d7a248fe675981aa127d5eeadd958cf2d",
}


@pytest.mark.parametrize("key", sorted(FROZEN_SP_SHA256))
def test_generated_profiles_and_axes_keep_their_sha256(key):
    profile, axis = gen_narcissistic_sp(GeneratorConfig(*key))
    text = serialize_profile(profile) + serialize_order(axis)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_SP_SHA256[key]


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
