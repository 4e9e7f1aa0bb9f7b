"""Reference implementations the test suite trusts over the library.

Everything in this module recomputes answers straight from definitions --
plain brute force with no cleverness -- so expected values frozen into
tests and cross-checks against the package rest on independent code.
Nothing here imports the algorithms under test; only the data types.
"""

from __future__ import annotations

import itertools
import random
import re

from roommates import AgentId, Matching, Profile, build_profile

# ---------------------------------------------------------------------------
# Rank lookups straight from the raw groups
# ---------------------------------------------------------------------------

def rank_tables(profile: Profile) -> dict[AgentId, dict[AgentId, int]]:
    """Map each agent to {acceptable agent: tie-group depth}."""
    tables: dict[AgentId, dict[AgentId, int]] = {}
    for i in profile.agents:
        table: dict[AgentId, int] = {}
        for depth, group in enumerate(profile.order(i).groups):
            for member in group:
                table[member] = depth
        tables[i] = table
    return tables


def mutually_acceptable_pairs(profile: Profile) -> list[tuple[AgentId, AgentId]]:
    """All unordered pairs of distinct agents who each rank the other."""
    tables = rank_tables(profile)
    return [
        (x, y)
        for x, y in itertools.combinations(profile.agents, 2)
        if y in tables[x] and x in tables[y]
    ]


def most_acceptable_by_scan(profile: Profile, agent: AgentId) -> frozenset[AgentId]:
    """Non-self agents at the best rank, recomputed by argmax over the table."""
    table = rank_tables(profile)[agent]
    depths = [d for a, d in table.items() if a != agent]
    if not depths:
        return frozenset()
    best = min(depths)
    return frozenset(a for a, d in table.items() if a != agent and d == best)


# ---------------------------------------------------------------------------
# Stability by definition
# ---------------------------------------------------------------------------

def partner_table(matching: Matching) -> dict[AgentId, AgentId]:
    partner: dict[AgentId, AgentId] = {}
    for a, b in matching.pairs:
        partner[a] = b
        partner[b] = a
    return partner


def blocks(
    tables: dict[AgentId, dict[AgentId, int]],
    partner: dict[AgentId, AgentId],
    x: AgentId,
    y: AgentId,
) -> bool:
    """The blocking-pair predicate, written out once, verbatim."""
    if partner.get(x) == y:
        return False
    if y not in tables[x] or x not in tables[y]:
        return False
    px, py = partner.get(x), partner.get(y)
    x_wants = px is None or tables[x][y] < tables[x][px]
    y_wants = py is None or tables[y][x] < tables[y][py]
    return x_wants and y_wants


def blocking_pairs_by_definition(
    profile: Profile, matching: Matching
) -> set[tuple[AgentId, AgentId]]:
    tables = rank_tables(profile)
    partner = partner_table(matching)
    return {
        (x, y)
        for x, y in mutually_acceptable_pairs(profile)
        if blocks(tables, partner, x, y)
    }


def stable_by_definition(profile: Profile, matching: Matching) -> bool:
    return not blocking_pairs_by_definition(profile, matching)


def all_matchings(profile: Profile) -> list[tuple[tuple[AgentId, AgentId], ...]]:
    """Every matching over the mutually-acceptable pairs, singles allowed."""
    agents = list(profile.agents)
    tables = rank_tables(profile)
    out: list[tuple[tuple[AgentId, AgentId], ...]] = []

    def extend(idx: int, used: frozenset[AgentId], chosen: list) -> None:
        if idx == len(agents):
            out.append(tuple(chosen))
            return
        a = agents[idx]
        if a in used:
            extend(idx + 1, used, chosen)
            return
        extend(idx + 1, used, chosen)  # a stays single
        for b in agents[idx + 1 :]:
            if b not in used and b in tables[a] and a in tables[b]:
                chosen.append((a, b))
                extend(idx + 1, used | {a, b}, chosen)
                chosen.pop()

    extend(0, frozenset(), [])
    return out


def brute_stable_matchings(profile: Profile) -> set[frozenset]:
    """All stable matchings, as a set of frozen pair-sets."""
    return {
        frozenset(pairs)
        for pairs in all_matchings(profile)
        if stable_by_definition(profile, Matching(pairs))
    }


def brute_perfect_stable_matchings(profile: Profile) -> set[frozenset]:
    """Stable matchings leaving nobody single, via a separate recursion."""
    agents = list(profile.agents)
    tables = rank_tables(profile)
    found: set[frozenset] = set()
    if len(agents) % 2:
        return found

    def extend(remaining: list[AgentId], chosen: list) -> None:
        if not remaining:
            m = Matching(tuple(chosen))
            if stable_by_definition(profile, m):
                found.add(frozenset(m.pairs))
            return
        a = remaining[0]
        for b in remaining[1:]:
            if b in tables[a] and a in tables[b]:
                chosen.append((a, b))
                extend([c for c in remaining if c not in (a, b)], chosen)
                chosen.pop()

    extend(agents, [])
    return found


# ---------------------------------------------------------------------------
# Structural properties by definition
# ---------------------------------------------------------------------------

def single_peaked_by_definition(profile: Profile, order_seq) -> bool:
    """Check every axis triple inside every agent's acceptable set."""
    pos = {a: i for i, a in enumerate(order_seq)}
    tables = rank_tables(profile)
    for i in profile.agents:
        table = tables[i]
        acc = sorted(table, key=pos.__getitem__)
        for x, y, z in itertools.combinations(acc, 3):
            if table[x] < table[y] and table[y] > table[z]:
                return False
    return True


def first_valley_witness(profile: Profile, order_seq):
    """Lexicographically first violating (agent, x, y, z), or None."""
    pos = {a: i for i, a in enumerate(order_seq)}
    tables = rank_tables(profile)
    best = None
    for i in profile.agents:
        table = tables[i]
        acc = sorted(table, key=pos.__getitem__)
        for x, y, z in itertools.combinations(acc, 3):
            if table[x] < table[y] and table[y] > table[z]:
                cand = (i, x, y, z)
                if best is None or cand < best:
                    best = cand
    return best


_BLOCK_WORD = re.compile(r"A*T*B*|B*T*A*")
_STRICT_WORD = re.compile(r"A*B*|B*A*")


def _pair_word(tables, order_seq, x, y) -> str:
    letters = []
    for v in order_seq:
        t = tables[v]
        if x in t and y in t:
            if t[x] < t[y]:
                letters.append("A")
            elif t[y] < t[x]:
                letters.append("B")
            else:
                letters.append("T")
    return "".join(letters)


def tssc_by_definition(profile: Profile, order_seq) -> bool:
    """Per pair: strict block, tied block, strict block (or reversed)."""
    return _fits_blocks(rank_tables(profile), profile.agents, order_seq)


def _fits_blocks(tables, agents, order_seq) -> bool:
    for x, y in itertools.combinations(agents, 2):
        if not _BLOCK_WORD.fullmatch(_pair_word(tables, order_seq, x, y)):
            return False
    return True


def smallest_tssc_axis_by_definition(profile: Profile):
    """The smallest permutation of the agents that tssc_by_definition
    accepts, or None, found by trying them all in lexicographic order.

    The block rule holds for a word exactly when it holds for its reverse,
    so an order passes exactly when its reverse does, and of the two the
    smaller starts with the smaller of its two ends: only those are tried.
    """
    agents = profile.agents
    tables = rank_tables(profile)
    return next((
        seq for seq in itertools.permutations(agents)
        if seq[0] <= seq[-1] and _fits_blocks(tables, agents, seq)
    ), None) if agents else ()


def first_tssc_violation_by_definition(profile: Profile, order_seq):
    """Smallest pair (x, y), x < y, whose word breaks the block rule, or None."""
    tables = rank_tables(profile)
    for x, y in itertools.combinations(profile.agents, 2):
        if not _BLOCK_WORD.fullmatch(_pair_word(tables, order_seq, x, y)):
            return (x, y)
    return None


def worst_restricted_by_definition(profile: Profile) -> bool:
    """Sen's worst-restriction, triple by triple, for tie-free profiles.

    In every triple of agents, some member is never ranked last among the
    three by any agent who ranks all three.
    """
    tables = rank_tables(profile)
    for triple in itertools.combinations(profile.agents, 3):
        ranked_last = {
            max(triple, key=t.__getitem__)
            for t in tables.values()
            if all(a in t for a in triple)
        }
        if len(ranked_last) == 3:
            return False
    return True


def group_extensions(groups) -> list[tuple[AgentId, ...]]:
    """All strict orders refining a sequence of tie groups."""
    parts = [list(itertools.permutations(sorted(g))) for g in groups]
    return [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*parts)
    ]


def sc_by_definition(profile: Profile, order_seq, cap: int = 200_000) -> bool:
    """Single-crossing by trying every combination of tie-break choices."""
    agents = list(profile.agents)
    options = []
    total = 1
    for i in agents:
        exts = group_extensions(profile.order(i).groups)
        total *= len(exts)
        if total > cap:
            raise ValueError("too many tie-break combinations for the oracle")
        options.append(exts)
    for combo in itertools.product(*options):
        tables = {
            a: {m: r for r, m in enumerate(ext)} for a, ext in zip(agents, combo)
        }
        if all(
            _STRICT_WORD.fullmatch(_pair_word(tables, order_seq, x, y))
            for x, y in itertools.combinations(agents, 2)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Combinatorial side problems
# ---------------------------------------------------------------------------

def betweenness_feasible(universe_size: int, triples) -> bool:
    """Brute force over every linear order of the universe."""
    for perm in itertools.permutations(range(universe_size)):
        pos = {u: i for i, u in enumerate(perm)}
        if all(
            pos[x] < pos[y] < pos[z] or pos[z] < pos[y] < pos[x]
            for x, y, z in triples
        ):
            return True
    return False


def is_independent(edges, vertices) -> bool:
    chosen = set(vertices)
    return all(u not in chosen or v not in chosen for u, v in edges)


def independent_set_exists(graph, k: int) -> bool:
    return any(
        is_independent(graph.edges, combo)
        for combo in itertools.combinations(range(graph.n_vertices), k)
    )


def proper_edge_coloring(graph, classes) -> bool:
    """Classes must partition the edge set and each be vertex-disjoint."""
    colored = [e for cls in classes for e in cls]
    if sorted(colored) != sorted(graph.edges):
        return False
    for cls in classes:
        seen: set[int] = set()
        for u, v in cls:
            if u in seen or v in seen:
                return False
            seen.update((u, v))
    return True


# ---------------------------------------------------------------------------
# Random instances for cross-checks
# ---------------------------------------------------------------------------

def random_profile(
    rng: random.Random,
    n: int,
    p_edge: float = 0.7,
    p_tie: float = 0.3,
    include_self: bool = True,
) -> Profile:
    """Random profile with symmetric acceptability and ranked tie groups."""
    accepted: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < p_edge:
            accepted[i].add(j)
            accepted[j].add(i)
    raw: dict[int, list[list[int]]] = {}
    for i in range(n):
        pool = sorted(accepted[i])
        rng.shuffle(pool)
        if include_self:
            pool.insert(rng.randrange(len(pool) + 1), i)
        groups: list[list[int]] = []
        for a in pool:
            if groups and rng.random() < p_tie:
                groups[-1].append(a)
            else:
                groups.append([a])
        raw[i] = groups
    return build_profile(raw)


def random_complete_profile(
    rng: random.Random,
    n: int,
    narcissistic: bool = True,
    p_tie: float = 0.0,
) -> Profile:
    """Random complete profile, optionally narcissistic, optionally tied."""
    raw: dict[int, list[list[int]]] = {}
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rng.shuffle(others)
        groups: list[list[int]] = []
        for a in others:
            if groups and rng.random() < p_tie:
                groups[-1].append(a)
            else:
                groups.append([a])
        if narcissistic:
            groups.insert(0, [i])
        else:
            groups.insert(rng.randrange(len(groups) + 1), [i])
        raw[i] = groups
    return build_profile(raw)


def random_sc_profile(
    rng: random.Random, n: int, p_tie: float = 0.5
) -> tuple[Profile, list[AgentId]]:
    """A profile in which every voter ranks every agent, and its voter axis.

    The first voter on a random axis ranks the agents at random.  Each later
    voter copies its predecessor and swaps a few adjacent agents, only ever
    a pair still in the first voter's order, so every pair switches at most
    once along the axis and the strict profile is single-crossing on it.
    Then each voter merges adjacent entries into ties with probability
    ``p_tie``, which keeps the strict profile one of its extensions.
    """
    axis = list(range(n))
    rng.shuffle(axis)
    order = list(range(n))
    rng.shuffle(order)
    first = {a: k for k, a in enumerate(order)}
    raw: dict[int, list[list[int]]] = {}
    for voter in axis:
        for _ in range(rng.randrange(n)):
            k = rng.randrange(n - 1)
            if first[order[k]] < first[order[k + 1]]:
                order[k], order[k + 1] = order[k + 1], order[k]
        groups: list[list[int]] = []
        for a in order:
            if groups and rng.random() < p_tie:
                groups[-1].append(a)
            else:
                groups.append([a])
        raw[voter] = groups
    return build_profile(raw), axis


def random_matching(rng: random.Random, profile: Profile) -> Matching:
    """A random (possibly empty, possibly partial) matching of the profile."""
    pairs = mutually_acceptable_pairs(profile)
    rng.shuffle(pairs)
    used: set[AgentId] = set()
    chosen = []
    for x, y in pairs:
        if x in used or y in used:
            continue
        if rng.random() < 0.6:
            chosen.append((x, y))
            used.update((x, y))
    return Matching(chosen)


def path_profile_text(n: int) -> str:
    """``pref i: i | i+1 | i-1`` for n agents on a path, in the profile format.

    Pairing 0-1, 2-3, ... is stable, and the axis 0 1 2 ... is single-peaked
    and single-crossing.  The matching search decides one pair per level and
    the axis searches place one agent per level, so their depth grows with n.
    """
    lines = [f"agents {n}"]
    for i in range(n):
        ranked = [i] + [j for j in (i + 1, i - 1) if 0 <= j < n]
        lines.append(f"pref {i}: " + " | ".join(map(str, ranked)))
    return "\n".join(lines) + "\n"
