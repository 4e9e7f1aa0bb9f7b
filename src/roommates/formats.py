"""Plain-text file formats for profiles, graphs, matchings, and friends.

All formats share one shape: whitespace-separated tokens on directive
lines, ``#`` starting a comment anywhere, blank lines ignored, ids
zero-based.  Serialization is canonical — fixed directive order, members
ascending — so equal objects always produce byte-identical files.

    agents 4                 vertices 4            universe 4
    pref 0: 0 | 1 3 | 2      edge 0 1              triple 0 1 2
    ...                      ...                   ...

    pair 0 2                 order 2 0 3 1         role 7 u0^8
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ParseError
from .model import AgentId, Matching, PreferenceOrder, Profile, WitnessOrder, _ints

if TYPE_CHECKING:
    from .coloring import Graph
    from .reduction import BetweennessInstance


def _lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body


def _int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line_no) from None


def _count_line(body: str, line_no: int, keyword: str) -> int:
    tokens = body.split()
    if len(tokens) != 2 or tokens[0] != keyword:
        raise ParseError(f"expected '{keyword} N'", line_no)
    value = _int(tokens[1], line_no)
    if value < 0:
        raise ParseError(f"{keyword} count must be non-negative", line_no)
    return value


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def parse_profile(text: str) -> Profile:
    """Read a profile: an ``agents N`` header, then one ``pref`` line per agent.

    Each ``pref id: g | g | ...`` line lists tie groups best-first, members
    separated by spaces.  Every agent in 0..N-1 must get exactly one line
    (an empty right-hand side is a legal empty order).

    Linear in the size of the text.  When there are exactly N ``pref``
    lines, each line is split at `` | `` and every whole chunk is looked up
    in a table of the canonical ids ``"0"..."N-1"``: a singleton group costs
    one lookup, and only a chunk that holds a space, a tie group, is split
    into its members.  Past that split and lookup, a line costs one set of
    its members and no Python work per entry: its offsets are slices of
    the ints every order shares.  A line with a missed chunk that is not
    canonical ids joined by single spaces, or with an agent named twice,
    and every line of a file with another count, is read token by token
    instead, which accepts any spacing and integer spelling and raises the
    precise error.
    """
    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty profile file")
    line_no, body = lines[0]
    n = _count_line(body, line_no, "agents")
    table: dict[str, AgentId] = {}
    if len(lines) - 1 == n:
        # The shared ints: an order's owner and the members it ranks are
        # then the same objects, so comparing sets of agents is cheaper.
        table = dict(zip(map(str, range(n)), _ints(n)))
    orders: dict[AgentId, PreferenceOrder | list[list[AgentId]]] = {}
    for line_no, body in lines[1:]:
        head, sep, tail = body.partition(":")
        tokens = head.split()
        if len(tokens) != 2 or tokens[0] != "pref" or not sep:
            raise ParseError("expected 'pref <id>: ...'", line_no)
        agent = table[tokens[1]] if tokens[1] in table else _int(tokens[1], line_no)
        if not 0 <= agent < n:
            raise ParseError(f"agent {agent} outside 0..{n - 1}", line_no)
        if agent in orders:
            raise ParseError(f"duplicate pref line for agent {agent}", line_no)
        order = _flat_order(agent, tail, table) if table else None
        orders[agent] = _raw_groups(tail, n, line_no) if order is None else order
    if len(orders) != n:
        missing = next(i for i in range(n) if i not in orders)
        raise ParseError(f"no pref line for agent {missing}")
    return Profile({
        agent: order if isinstance(order, PreferenceOrder)
        else PreferenceOrder.from_groups(agent, order)
        for agent, order in orders.items()
    })


def _flat_order(
    agent: AgentId, tail: str, table: dict[str, AgentId]
) -> PreferenceOrder | None:
    """The order a ``pref`` line's right-hand side spells, or None.

    ``table`` maps each canonical id.  Only the chunks between `` | `` that
    hold a space, the tie groups, are split into members, and each fills
    its chunk's place in the looked-up list.  None means the line needs
    :func:`_raw_groups`: a chunk the table misses that is not canonical ids
    joined by single spaces, or an agent named twice.  One set of the
    members answers both.
    """
    body = tail.strip()
    chunks = body.split(" | ")
    members = list(map(table.get, chunks))
    ties: list[int] = []
    # The spaces left once the separators are counted out lie inside tie
    # groups, and each tie group is a chunk the table misses.
    spaces = body.count(" ") - 2 * len(chunks) + 2
    at = -1
    while spaces > 0:
        at = members.index(None, at + 1)
        group = list(map(table.get, chunks[at + len(chunks) - len(members)].split(" ")))
        if None in group:
            return None
        group.sort()
        members[at:at + 1] = group
        ties += (at, at + len(group))
        at += len(group) - 1
        spaces -= len(group) - 1
    ranked = set(members)
    if None in ranked or len(ranked) != len(members):
        return None
    return PreferenceOrder._from_ties(agent, tuple(members), ties)


def _raw_groups(tail: str, n: int, line_no: int) -> list[list[AgentId]]:
    """A ``pref`` line's tie groups read token by token, or its ParseError."""
    groups: list[list[AgentId]] = []
    chunks = tail.split("|")
    if len(chunks) > 1 or chunks[0].strip():
        for chunk in chunks:
            members = [_int(tok, line_no) for tok in chunk.split()]
            if not members:
                raise ParseError("empty tie group", line_no)
            for m in members:
                if not 0 <= m < n:
                    raise ParseError(f"agent {m} outside 0..{n - 1}", line_no)
            groups.append(members)
    return groups


def serialize_profile(profile: Profile) -> str:
    """Canonical text for a profile with dense ids 0..N-1."""
    n = profile.n_agents
    if profile.agents != tuple(range(n)):
        raise ValueError("only profiles with dense ids 0..N-1 serialize")
    names = [str(i) for i in range(n)]
    out = [f"agents {n}"]
    for i in profile.agents:
        order = profile.orders[i]
        parts = list(map(names.__getitem__, order.members))
        ties = order.ties
        for k in range(len(ties) - 2, -1, -2):
            lo, hi = ties[k], ties[k + 1]
            parts[lo:hi] = [" ".join(parts[lo:hi])]
        out.append(f"pref {names[i]}: {' | '.join(parts)}".rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Read a graph: a ``vertices N`` header, then ``edge u v`` lines."""
    from .coloring import Graph

    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty graph file")
    line_no, body = lines[0]
    n = _count_line(body, line_no, "vertices")
    edges = []
    seen = set()
    for line_no, body in lines[1:]:
        tokens = body.split()
        if len(tokens) != 3 or tokens[0] != "edge":
            raise ParseError("expected 'edge <u> <v>'", line_no)
        u, v = _int(tokens[1], line_no), _int(tokens[2], line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) outside 0..{n - 1}", line_no)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line_no)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", line_no)
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def serialize_graph(graph: Graph) -> str:
    out = [f"vertices {graph.n_vertices}"]
    out += [f"edge {u} {v}" for u, v in graph.edges]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Betweenness instances
# ---------------------------------------------------------------------------

def parse_betweenness(text: str) -> BetweennessInstance:
    """Read a ``universe N`` header, then ``triple x y z`` lines (y between)."""
    from .reduction import BetweennessInstance

    lines = list(_lines(text))
    if not lines:
        raise ParseError("empty betweenness file")
    line_no, body = lines[0]
    n = _count_line(body, line_no, "universe")
    triples = []
    seen = set()
    for line_no, body in lines[1:]:
        tokens = body.split()
        if len(tokens) != 4 or tokens[0] != "triple":
            raise ParseError("expected 'triple <x> <y> <z>'", line_no)
        x, y, z = (_int(t, line_no) for t in tokens[1:])
        key = (min(x, z), y, max(x, z))  # (x,y,z) and (z,y,x) ask the same thing
        if key in seen:
            raise ParseError(f"duplicate triple ({x}, {y}, {z})", line_no)
        seen.add(key)
        try:
            triples.append(BetweennessInstance(n, [(x, y, z)]).triples[0])
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    return BetweennessInstance(n, triples)


def serialize_betweenness(instance: BetweennessInstance) -> str:
    out = [f"universe {instance.universe_size}"]
    out += [f"triple {x} {y} {z}" for x, y, z in instance.triples]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Matchings, orders, roles
# ---------------------------------------------------------------------------

def parse_matching(text: str) -> Matching:
    """Read ``pair x y`` lines; overlapping or self pairs are rejected."""
    pairs = []
    for line_no, body in _lines(text):
        tokens = body.split()
        if len(tokens) != 3 or tokens[0] != "pair":
            raise ParseError("expected 'pair <x> <y>'", line_no)
        x, y = _int(tokens[1], line_no), _int(tokens[2], line_no)
        pairs.append((x, y))
    try:
        return Matching(pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_matching(matching: Matching) -> str:
    out = [f"pair {x} {y}" for x, y in matching.pairs]
    return "\n".join(out) + "\n" if out else ""


def parse_order(text: str) -> WitnessOrder:
    """Read a single ``order id id ...`` line."""
    lines = list(_lines(text))
    if len(lines) != 1:
        raise ParseError("expected exactly one 'order ...' line")
    line_no, body = lines[0]
    tokens = body.split()
    if not tokens or tokens[0] != "order":
        raise ParseError("expected 'order <id> <id> ...'", line_no)
    ids = [_int(t, line_no) for t in tokens[1:]]
    try:
        return WitnessOrder(ids)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def serialize_order(order: WitnessOrder) -> str:
    return "order " + " ".join(str(a) for a in order.sequence) + "\n"


def parse_roles(text: str) -> dict[AgentId, str]:
    """Read ``role id tag`` lines into an id-to-role mapping."""
    roles: dict[AgentId, str] = {}
    for line_no, body in _lines(text):
        tokens = body.split()
        if len(tokens) != 3 or tokens[0] != "role":
            raise ParseError("expected 'role <id> <tag>'", line_no)
        agent = _int(tokens[1], line_no)
        if agent in roles:
            raise ParseError(f"duplicate role line for agent {agent}", line_no)
        roles[agent] = tokens[2]
    return roles


def serialize_roles(roles: dict[AgentId, str]) -> str:
    out = [f"role {i} {roles[i]}" for i in sorted(roles)]
    return "\n".join(out) + "\n" if out else ""
