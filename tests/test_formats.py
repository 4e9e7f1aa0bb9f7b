"""Text formats: canonical serialization and strict, line-numbered parsing."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roommates import (
    FIXTURE_NAMES,
    AsymmetricAcceptability,
    BetweennessInstance,
    DuplicateInOrder,
    GeneratorConfig,
    Graph,
    Matching,
    ParseError,
    PreferenceOrder,
    RoommatesError,
    WitnessOrder,
    build_profile,
    fixture,
    gen_degree3_graph,
    gen_narcissistic_sp,
    parse_betweenness,
    parse_graph,
    parse_matching,
    parse_order,
    parse_profile,
    parse_roles,
    serialize_betweenness,
    serialize_graph,
    serialize_matching,
    serialize_order,
    serialize_profile,
    serialize_roles,
)
from roommates import formats

from oracles import random_profile


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_every_fixture_round_trips():
    for name in FIXTURE_NAMES:
        profile = fixture(name)
        text = serialize_profile(profile)
        assert parse_profile(text) == profile
        assert serialize_profile(parse_profile(text)) == text


def test_random_profiles_round_trip():
    rng = random.Random(1234)
    for _ in range(1000):
        profile = random_profile(rng, rng.randint(2, 9))
        text = serialize_profile(profile)
        assert parse_profile(text) == profile


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# header comment\n"
        "agents 2   # trailing comment\n"
        "\n"
        "pref 0: 0 | 1\n"
        "   \n"
        "pref 1: 1 | 0  # another\n"
    )
    assert parse_profile(text) == parse_profile("agents 2\npref 0: 0 | 1\npref 1: 1 | 0\n")


def test_empty_orders_are_legal_and_stable():
    text = "agents 2\npref 0:\npref 1:\n"
    profile = parse_profile(text)
    assert profile.order(0).groups == ()
    assert serialize_profile(profile) == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty profile"),
        ("people 3\n", "expected 'agents N'"),
        ("agents -1\n", "non-negative"),
        ("agents x\n", "expected an integer"),
        ("agents 1\nxref 0: 0\n", "expected 'pref"),
        ("agents 2\npref 5: 0\npref 1:\n", "outside 0..1"),
        ("agents 2\npref 0: 9\npref 1:\n", "outside 0..1"),
        ("agents 1\npref 0: 0\npref 0: 0\n", "duplicate pref line"),
        ("agents 2\npref 0: 0 | | 1\npref 1:\n", "empty tie group"),
        ("agents 2\npref 0: 0 |\npref 1: 1\n", "empty tie group"),
        ("agents 1\npref 0: zero\n", "expected an integer"),
        ("agents 2\npref 0:\n", "no pref line for agent 1"),
    ],
)
def test_profile_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_profile(text)
    assert fragment in str(info.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_profile("agents 1\npref 0: 0\npref 0: 0\n")
    assert str(info.value).startswith("line 3:")
    assert info.value.line_no == 3


def test_semantic_violations_keep_their_own_type():
    with pytest.raises(AsymmetricAcceptability):
        parse_profile("agents 2\npref 0: 1\npref 1:\n")


def test_the_header_alone_sets_no_work():
    text = f"agents {10**12}\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_profile(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "no pref line for agent 0"
    assert peak < 2**20


def test_parsed_orders_hold_at_most_120_bytes_per_entry():
    profile, _ = gen_narcissistic_sp(GeneratorConfig(200, True, 0.5, 3))
    text = serialize_profile(profile)
    entries = sum(len(order.ranks) for order in profile.orders.values())
    del profile
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_profile(text)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert parsed.n_agents == 200
    assert live / entries <= 120


def test_parsed_orders_hold_at_most_24_bytes_per_entry():
    # The members tuple takes 8 bytes per entry; a rank table built with
    # every order would add about 46.
    profile, _ = gen_narcissistic_sp(GeneratorConfig(200, True, 0.5, 3))
    text = serialize_profile(profile)
    entries = sum(len(order.members) for order in profile.orders.values())
    del profile
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_profile(text)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert parsed.n_agents == 200
    assert live / entries <= 24


def test_parsed_tied_orders_hold_at_most_10_bytes_per_entry():
    # The members tuple takes 8 bytes per entry.  An order stores only the
    # spans of its ties; one offset per group would add about 7 more.
    profile, _ = gen_narcissistic_sp(GeneratorConfig(400, True, 0.5, 3))
    text = serialize_profile(profile)
    entries = sum(len(order.members) for order in profile.orders.values())
    del profile
    # Where a collection lands would shift the reading, so none runs inside.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_profile(text)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert sum(order.has_tie for order in parsed.orders.values()) > 300
    assert live / entries <= 10


# Each line names an agent twice across groups (agent 0's "1 1" merges), or
# leaves a pair one-sided.
@pytest.mark.parametrize("text, error, fields, message", [
    ("agents 3\npref 0: 0 | 2 1 1 | 2\npref 1: 1 | 0\npref 2: 2 | 0\n",
     DuplicateInOrder, {"agent": 0, "duplicate": 2},
     "agent 2 appears twice in the order of agent 0"),
    ("agents 3\npref 0: 0 | 1 | 2 | 1\npref 1: 1 | 0\npref 2: 2 | 0\n",
     DuplicateInOrder, {"agent": 0, "duplicate": 1},
     "agent 1 appears twice in the order of agent 0"),
    ("agents 3\npref 0: 1 2 | 0 1\npref 1: 1 | 0\npref 2: 2 | 0\n",
     DuplicateInOrder, {"agent": 0, "duplicate": 1},
     "agent 1 appears twice in the order of agent 0"),
    ("agents 3\npref 0: 0 | 1 | 2\npref 1: 1 | 0\npref 2: 2\n",
     AsymmetricAcceptability, {"i": 0, "j": 2},
     "agent 0 ranks agent 2, but 2 does not rank 0"),
])
def test_invalid_orders_raise_the_frozen_error(text, error, fields, message):
    with pytest.raises(error) as info:
        parse_profile(text)
    assert type(info.value) is error
    assert vars(info.value) == fields
    assert info.value.args == (message,)


def test_any_integer_spelling_reads_as_its_value():
    text = (
        "agents 12\n"
        + "".join(f"pref {i:03d}: {i} | {i ^ 1:03d}\n" for i in range(10))
        + "pref 1_0: 1_0 | +11\npref 11: \u0661\u0661 | 10\n"
    )
    plain = "agents 12\n" + "".join(f"pref {i}: {i} | {i ^ 1}\n" for i in range(12))
    assert parse_profile(text) == parse_profile(plain)


def test_from_groups_and_the_parser_build_equal_orders():
    rng = random.Random(11)
    for n in range(1, 9):
        for p_tie in (0.0, 0.5):
            lines, raw = [f"agents {n}"], {}
            for i in range(n):
                agents = list(range(n))
                rng.shuffle(agents)
                groups = [[agents[0]]]
                for a in agents[1:]:
                    if rng.random() < p_tie:
                        groups[-1].append(a)
                    else:
                        groups.append([a])
                raw[i] = groups
                lines.append(f"pref {i}: " + " | ".join(" ".join(map(str, g)) for g in groups))
            parsed = parse_profile("\n".join(lines) + "\n")
            for i, groups in raw.items():
                built = PreferenceOrder.from_groups(i, groups)
                assert parsed.order(i) == built
                assert parsed.order(i).ranks == built.ranks
            assert parsed == build_profile(raw)


def test_repeats_inside_a_group_merge():
    profile = parse_profile("agents 2\npref 0: 0 | 1 1\npref 1: 1 0 0\n")
    assert profile.order(0).groups == ({0}, {1})
    assert profile.order(1).groups == ({0, 1},)


@pytest.mark.parametrize(
    "text,error",
    [
        # Repeats across groups are errors, reported for the first such
        # line once every line has parsed.
        ("agents 3\npref 0: 0 | 1 | 1\npref 1: 1 | 0 | 1\npref 2: 2\n",
         "agent 1 appears twice in the order of agent 0"),
        ("agents 2\npref 0: 0 | 0\npref 1: 1 | x\n", "line 3: expected an integer"),
        ("agents 3\npref 0: 0 | 1 | 0\npref 2: 2\n", "no pref line for agent 1"),
        ("agents 3\npref 0: 0 | 1 | 2\npref 1: 1 | 0 | 0\npref 2: 2\n",
         "agent 0 appears twice in the order of agent 1"),
    ],
)
def test_first_error_in_file_order(text, error):
    with pytest.raises(RoommatesError) as info:
        parse_profile(text)
    assert error in str(info.value)


# Files with several faults each: the first error is pinned, type and text.
# Every line-level ParseError comes first, in line order, then the missing
# pref line; a repeat across groups comes next, on the first such line in
# file order whichever reader took that line; a one-sided pair comes last.
# A repeat inside one tie group merges and is no fault.
@pytest.mark.parametrize("text, error, message", [
    # A repeat across groups on a canonical line, then a malformed line.
    ("agents 3\npref 0: 0 | 1 | 1\npref 1: 1 | 0\npref 2: 2 | x\n",
     ParseError, "line 4: expected an integer, got 'x'"),
    # ... then an agent out of range.
    ("agents 3\npref 0: 0 | 1 | 1\npref 1: 1 | 0\npref 2: 2 | 5\n",
     ParseError, "line 4: agent 5 outside 0..2"),
    # ... then a second pref line for one agent.
    ("agents 3\npref 0: 0 | 2 1 | 2\npref 1: 1 | 0\npref 2: 2 | 0\npref 1: 1\n",
     ParseError, "line 5: duplicate pref line for agent 1"),
    # ... with a pref line missing.
    ("agents 4\npref 0: 0 | 1 2 | 2\npref 1: 1 | 0\npref 2: 2 | 0\n",
     ParseError, "no pref line for agent 3"),
    # A repeat inside a tie group merges; the one-sided pair is the fault.
    ("agents 3\npref 0: 0 | 1 1 | 2\npref 1: 1 | 0\npref 2: 2\n",
     AsymmetricAcceptability, "agent 0 ranks agent 2, but 2 does not rank 0"),
    # A merging repeat, then a repeat across groups on a later line.
    ("agents 3\npref 0: 0 | 1 1 | 2\npref 1: 1 | 0 | 0\npref 2: 2 | 0\n",
     DuplicateInOrder, "agent 0 appears twice in the order of agent 1"),
    ("agents 3\npref 0: 0 | 1 1 1 | 2 2\npref 1: 1 | 0\npref 2: 2 | 0 | 0\n",
     DuplicateInOrder, "agent 0 appears twice in the order of agent 2"),
    # A one-sided pair (0, 2) on an earlier line than a repeat.
    ("agents 3\npref 0: 0 | 2\npref 1: 1 | 2 | 2\npref 2: 2 | 1\n",
     DuplicateInOrder, "agent 2 appears twice in the order of agent 1"),
    # A repeat on a canonical line before one on a line with odd spacing
    # or spelling, and the other way round.
    ("agents 3\npref 0: 0 | 1 | 1\npref 1: 1 |  0 | 0\npref 2: 2\n",
     DuplicateInOrder, "agent 1 appears twice in the order of agent 0"),
    ("agents 3\npref 0: 0 | 1 | 1\npref 1: 1 | 0 | 01\npref 2: 2\n",
     DuplicateInOrder, "agent 1 appears twice in the order of agent 0"),
    ("agents 3\npref 0: 0 |  1 | 1\npref 1: 1 | 0 | 0\npref 2: 2\n",
     DuplicateInOrder, "agent 1 appears twice in the order of agent 0"),
    # A tie group that repeats a member of another group, the owner included.
    ("agents 3\npref 0: 0 2 | 1 2 0\npref 1: 1 | 0\npref 2: 2 0 2\n",
     DuplicateInOrder, "agent 0 appears twice in the order of agent 0"),
])
def test_the_first_of_several_faults_is_reported(text, error, message):
    with pytest.raises(RoommatesError) as info:
        parse_profile(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_serialization_needs_dense_ids():
    sparse = build_profile({0: [[0], [2]], 2: [[2], [0]]})
    with pytest.raises(ValueError, match="dense"):
        serialize_profile(sparse)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def test_graphs_round_trip():
    for seed in range(10):
        graph = gen_degree3_graph(seed + 2, 0.5, seed=seed)
        text = serialize_graph(graph)
        assert parse_graph(text) == graph
        assert serialize_graph(parse_graph(text)) == text
    assert parse_graph("vertices 3\n") == Graph(3, [])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty graph"),
        ("nodes 3\n", "expected 'vertices N'"),
        ("vertices 3\nedge 0\n", "expected 'edge"),
        ("vertices 3\nedge 0 0\n", "self-loop"),
        ("vertices 3\nedge 0 3\n", "outside"),
        ("vertices 3\nedge 0 1\nedge 1 0\n", "duplicate edge"),
    ],
)
def test_graph_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert fragment in str(info.value)


# ---------------------------------------------------------------------------
# Betweenness instances
# ---------------------------------------------------------------------------

def test_betweenness_round_trips():
    instance = BetweennessInstance(5, [(0, 1, 2), (4, 2, 0), (1, 3, 4)])
    text = serialize_betweenness(instance)
    assert parse_betweenness(text) == instance
    assert serialize_betweenness(parse_betweenness(text)) == text
    assert parse_betweenness("universe 4\n") == BetweennessInstance(4, [])


def test_betweenness_rejects_duplicate_triples():
    with pytest.raises(ParseError, match="duplicate triple"):
        parse_betweenness("universe 3\ntriple 0 1 2\ntriple 0 1 2\n")
    # a mirrored triple states the same constraint
    with pytest.raises(ParseError, match="duplicate triple"):
        parse_betweenness("universe 3\ntriple 0 1 2\ntriple 2 1 0\n")


def test_betweenness_parse_errors():
    with pytest.raises(ParseError, match="repeats"):
        parse_betweenness("universe 3\ntriple 0 1 1\n")
    with pytest.raises(ParseError) as info:
        parse_betweenness("universe 3\ntriple 0 1 5\n")
    assert info.value.line_no == 2
    with pytest.raises(ParseError, match="expected 'triple"):
        parse_betweenness("universe 3\ntriple 0 1\n")


# ---------------------------------------------------------------------------
# Matchings, orders, roles
# ---------------------------------------------------------------------------

def test_matchings_round_trip():
    matching = Matching([(3, 0), (1, 2)])
    assert serialize_matching(matching) == "pair 0 3\npair 1 2\n"
    assert parse_matching(serialize_matching(matching)) == matching
    assert serialize_matching(Matching([])) == ""
    assert parse_matching("") == Matching([])


def test_matching_parse_errors():
    with pytest.raises(ParseError, match="overlaps"):
        parse_matching("pair 0 1\npair 1 2\n")
    with pytest.raises(ParseError, match="itself"):
        parse_matching("pair 1 1\n")
    with pytest.raises(ParseError, match="expected 'pair"):
        parse_matching("pair 1\n")


def test_orders_round_trip():
    order = WitnessOrder((2, 0, 3, 1))
    assert serialize_order(order) == "order 2 0 3 1\n"
    assert parse_order(serialize_order(order)) == order


def test_order_parse_errors():
    with pytest.raises(ParseError, match="exactly one"):
        parse_order("")
    with pytest.raises(ParseError, match="exactly one"):
        parse_order("order 0 1\norder 1 0\n")
    with pytest.raises(ParseError, match="expected 'order"):
        parse_order("witness 0 1\n")
    with pytest.raises(ParseError):
        parse_order("order 1 1\n")


def test_roles_round_trip():
    roles = {7: "u0^8", 2: "a0"}
    assert serialize_roles(roles) == "role 2 a0\nrole 7 u0^8\n"
    assert parse_roles(serialize_roles(roles)) == roles
    assert serialize_roles({}) == ""
    assert parse_roles("") == {}


def test_roles_parse_errors():
    with pytest.raises(ParseError, match="duplicate role"):
        parse_roles("role 0 a\nrole 0 b\n")
    with pytest.raises(ParseError, match="expected 'role"):
        parse_roles("role 0\n")


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

PARSERS = [
    (parse_profile, serialize_profile),
    (parse_graph, serialize_graph),
    (parse_betweenness, serialize_betweenness),
    (parse_matching, serialize_matching),
    (parse_order, serialize_order),
    (parse_roles, serialize_roles),
]

KEYWORDS = ["agents", "pref", "vertices", "edge", "universe", "triple", "pair",
            "order", "role"]
TOKENS = KEYWORDS + ["0", "1", "2", "3", "5", "10", "-1", "007", "1_0", "+2",
                     "\u0663", "x", "|", ":", "#", " ", "\t", "\n", "\n\n"]


def token_texts():
    """Text over the formats' own vocabulary, joined with or without spaces."""
    return st.builds(
        lambda tokens, sep: sep.join(tokens),
        st.lists(st.sampled_from(TOKENS), max_size=40),
        st.sampled_from(["", " "]),
    )


def _assert_parses_or_fails_typed(parse, serialize, text):
    try:
        parsed = parse(text)
    except RoommatesError:
        return
    canonical = serialize(parsed)
    assert serialize(parse(canonical)) == canonical


@settings(max_examples=400, deadline=None)
@given(
    header=st.sampled_from(["", "agents 3\n", "vertices 4\n", "universe 4\n"]),
    text=token_texts(),
)
def test_every_parser_returns_an_object_or_a_typed_error(header, text):
    for parse, serialize in PARSERS:
        _assert_parses_or_fails_typed(parse, serialize, header + text)


def _spellings(token: str) -> list[str]:
    """Ways to write the id ``token`` that int() reads as the same value."""
    value = int(token)
    return [token, f"{value:03d}", f"+{value}", "_".join(token),
            "".join(chr(0x660 + int(c)) for c in token)]


@st.composite
def edited_profile_texts(draw):
    """A valid profile's text, then a few token- and line-level edits."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(0, 6))
    lines = serialize_profile(random_profile(rng, n)).splitlines() if n else ["agents 0"]
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        words = lines[k].split(" ")
        w = draw(st.integers(0, len(words) - 1))
        edit = draw(st.sampled_from(
            ["spell", "repeat", "move", "bar", "junk", "range", "drop", "swap",
             "comment", "squeeze", "pad", "glue", "edge", "tie"]))
        if edit == "spell" and words[w].isdigit():
            words[w] = draw(st.sampled_from(_spellings(words[w])))
        elif edit == "repeat" and words[w].isdigit():
            words.insert(w, words[w])
        elif edit == "move" and words[w].isdigit():
            words.insert(draw(st.integers(2, len(words))), words[w])
        elif edit == "bar":
            words.insert(w, "|")
        elif edit == "junk":
            words[w] = draw(st.sampled_from(["x", "-1", "3.0", "", ":"]))
        elif edit == "range":
            words[w] = str(n + draw(st.integers(0, 3)))
        elif edit == "drop":
            del lines[k]
            continue
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
            continue
        elif edit == "comment":
            words.append("# pref 0: 1")
        elif edit == "squeeze":
            words = [" ".join(words).replace(" | ", "|")]
        elif edit == "pad" and words[w] == "|":
            # A tab or a doubled space next to the bar.
            words[w] = draw(st.sampled_from(["\t|", "|\t", " |", "| "]))
        elif edit == "glue" and words[w] == "|" and 0 < w < len(words) - 1:
            # "3|" or "|3": the bar glued to its left or right neighbour.
            if draw(st.booleans()):
                words[w - 1:w + 1] = [words[w - 1] + "|"]
            else:
                words[w:w + 2] = ["|" + words[w + 1]]
        elif edit == "edge" and len(words) > 1:
            # A leading or a trailing bar on the right-hand side.
            words.insert(2 if draw(st.booleans()) else len(words), "|")
        elif edit == "tie" and words[w].isdigit():
            # Repeat w, then drop the bar nearest to it: w's group merges
            # with a neighbour and holds three or more tokens, w twice.
            words.insert(w, words[w])
            bars = [b for b, word in enumerate(words) if word == "|"]
            if bars:
                del words[min(bars, key=lambda b: abs(b - w))]
        lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


def reference_groups(text: str) -> dict[int, tuple[frozenset[int], ...]]:
    """Each pref line's tie groups, read the plain way (valid input only)."""
    groups = {}
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body.startswith("pref"):
            head, _, tail = body.partition(":")
            chunks = tail.split("|") if tail.strip() else []
            groups[int(head.split()[1])] = tuple(
                frozenset(int(t) for t in chunk.split()) for chunk in chunks
            )
    return groups


@settings(max_examples=400, deadline=None)
@given(text=edited_profile_texts())
def test_edited_profiles_parse_like_the_plain_reader(text):
    try:
        profile = parse_profile(text)
    except RoommatesError:
        return
    assert {i: profile.order(i).groups for i in profile.agents} == reference_groups(text)
    canonical = serialize_profile(profile)
    assert parse_profile(canonical) == profile
    assert serialize_profile(parse_profile(canonical)) == canonical


# Right-hand sides for agent 0 of a 4-agent profile that the whole-group
# reader must hand to the token reader, with the error each one raises
# (None: the line is valid and parses like the plain reader).
FALLBACK_TAILS = [
    ("0 |\t1 2 | 3", None),
    ("0\t| 1 2 | 3", None),
    ("0 |  1 2 | 3", None),
    ("0  | 1 2 | 3", None),
    ("0 | 1 2| 3", None),
    ("0 |1 2 | 3", None),
    ("0 | 1 2 | 3|", "line 2: empty tie group"),
    ("|0 | 1 2 | 3", "line 2: empty tie group"),
    ("| 0 | 1 2 | 3", "line 2: empty tie group"),
    ("0 | 1 2 | 3 |", "line 2: empty tie group"),
    ("0 | | 1 2 | 3", "line 2: empty tie group"),
    ("0 | 1 2 1 | 3", None),
    ("0 | 2 1 2 2 | 3", None),
    ("0 1 0 | 2 3", None),
    ("0 | 1 2 3 1", None),
    ("0 | 1 2 | 3 0", "agent 0 appears twice in the order of agent 0"),
    ("0 | 1 002 | 3", None),
    ("0 | 1 x | 3", "line 2: expected an integer, got 'x'"),
    ("0 | 1 4 | 3", "line 2: agent 4 outside 0..3"),
]


@pytest.mark.parametrize("tail,error", FALLBACK_TAILS)
def test_the_whole_group_reader_hands_odd_lines_to_the_token_reader(tail, error):
    text = (f"agents 4\npref 0: {tail}\npref 1: 1 | 0 | 2 3\n"
            "pref 2: 2 | 0 1 3\npref 3: 3 | 0 1 2\n")
    table = {str(i): i for i in range(4)}
    assert formats._flat_order(0, tail, table) is None
    if error is None:
        profile = parse_profile(text)
        assert {i: profile.order(i).groups for i in profile.agents} == reference_groups(text)
    else:
        with pytest.raises(RoommatesError) as info:
            parse_profile(text)
        assert str(info.value) == error


def test_a_tied_generated_profile_parses_like_its_raw_groups():
    profile, _ = gen_narcissistic_sp(GeneratorConfig(200, True, 0.5, 5))
    text = serialize_profile(profile)
    parsed = parse_profile(text)
    built = build_profile(reference_groups(text))
    assert any(order.has_tie for order in built.orders.values())
    assert parsed == built
    for i in built.agents:
        assert parsed.order(i).ranks == built.order(i).ranks
        assert parsed.order(i).starts == built.order(i).starts
