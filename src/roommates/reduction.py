"""Hardness gadgetry: encodings of independent set and betweenness into
roommate profiles.

The independent-set encoding turns a degree-3 graph and a target size k
into a narcissistic profile with 10n + 10k agents: a ten-agent cycle
gadget per vertex, five-agent cycle gadgets per selector slot (k of each
flavor), and hook edges between vertex gadgets arranged by a proper
4-edge-coloring so the whole profile stays single-peaked.  The instance
admits a stable matching exactly when the graph has an independent set
of size k, and the correspondence is constructive both ways.

The betweenness encodings turn an ordering-with-constraints problem into
profiles that are single-peaked (first variant) or single-crossing
(second variant) exactly when the constraints are satisfiable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .coloring import Graph, check_degree_cap, misra_gries_edge_coloring
from .errors import (
    InternalInvariantViolation,
    KOutOfRange,
    NotIndependent,
    WrongSize,
)
from .model import AgentId, Matching, Profile, WitnessOrder, build_profile
from .stability import find_blocking_pairs

RawGroups = list[list[AgentId]]


@dataclass(frozen=True)
class BetweennessInstance:
    """Ordered triples (x, y, z) asking for y strictly between x and z."""

    universe_size: int
    triples: tuple[tuple[int, int, int], ...]

    def __init__(self, universe_size: int, triples: Iterable[Iterable[int]]):
        norm = []
        for t in triples:
            x, y, z = (int(e) for e in t)
            if len({x, y, z}) != 3:
                raise ValueError(f"triple ({x}, {y}, {z}) repeats an element")
            for e in (x, y, z):
                if not 0 <= e < universe_size:
                    raise ValueError(f"element {e} outside universe of size {universe_size}")
            norm.append((x, y, z))
        object.__setattr__(self, "universe_size", int(universe_size))
        object.__setattr__(self, "triples", tuple(norm))


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """A reduction's output: the profile plus everything needed to use it.

    ``agent_roles`` names every agent by its function in the construction
    (for printing and debugging); the id tables below are what the
    translation functions actually consult, so nothing ever parses a role
    string back apart.  Fields that a particular reduction does not
    produce stay at their defaults.
    """

    profile: Profile
    agent_roles: Mapping[AgentId, str]
    sp_witness: WitnessOrder | None = None
    graph: Graph | None = None
    k: int | None = None
    betweenness: BetweennessInstance | None = None
    # vertex_agents[i][s-1] is the id of vertex i's slot-s agent; the
    # gadget tables are laid out the same way with five slots.
    vertex_agents: tuple[tuple[AgentId, ...], ...] = ()
    a_gadgets: tuple[tuple[AgentId, ...], ...] = ()
    b_gadgets: tuple[tuple[AgentId, ...], ...] = ()


# ---------------------------------------------------------------------------
# Gadgets
# ---------------------------------------------------------------------------

def selector_gadget(
    ids: Iterable[AgentId], pool: Iterable[AgentId]
) -> dict[AgentId, RawGroups]:
    """Preference fragments for one five-agent selector cycle.

    ``ids`` are the gadget's agents in slot order 1..5; ``pool`` is the
    set the slot-5 agent ties at second place (each pool member must rank
    the slot-5 agent back for the profile to close up).  The gadget's
    point: in any stable matching slot 5 pairs with a pool member, forcing
    slots 1+2 and 3+4 together.
    """
    q1, q2, q3, q4, q5 = ids
    tied = sorted(pool)
    if not tied:
        raise ValueError("selector gadget needs a non-empty pool")
    return {
        q1: [[q1], [q5], [q2]],
        q2: [[q2], [q1], [q3]],
        q3: [[q3], [q2], [q4]],
        q4: [[q4], [q3], [q5]],
        q5: [[q5], tied, [q4], [q1]],
    }


def vertex_gadget(
    ids: Iterable[AgentId],
    head_pool: Iterable[AgentId],
    tail_pool: Iterable[AgentId],
    hooks: Mapping[int, AgentId] | None = None,
) -> dict[AgentId, RawGroups]:
    """Preference fragments for one ten-agent vertex cycle.

    ``ids`` are the gadget's agents in slot order 1..10.  Slot 1 ranks the
    ``head_pool`` (strictly, in the given order) between its cycle
    neighbors, slot 10 does the same with ``tail_pool``, and the even
    slots 2/4/6/8 may each carry one hook agent from another vertex
    gadget (``hooks`` maps slot to agent id; absent slots get no hook).
    The cycle is oriented so that matching slot 10 out of the gadget
    forces the even/odd pairing that frees slot 1, and vice versa.
    """
    u = list(ids)
    hooks = dict(hooks or {})
    if not set(hooks) <= {2, 4, 6, 8}:
        raise ValueError("hooks may only sit at slots 2, 4, 6, and 8")

    def hook(slot: int) -> RawGroups:
        return [[hooks[slot]]] if slot in hooks else []

    return {
        u[0]: [[u[0]], [u[9]], *[[a] for a in head_pool], [u[1]]],
        u[1]: [[u[1]], [u[0]], *hook(2), [u[2]]],
        u[2]: [[u[2]], [u[1]], [u[3]]],
        u[3]: [[u[3]], [u[2]], *hook(4), [u[4]]],
        u[4]: [[u[4]], [u[3]], [u[5]]],
        u[5]: [[u[5]], [u[4]], *hook(6), [u[6]]],
        u[6]: [[u[6]], [u[5]], [u[7]]],
        u[7]: [[u[7]], [u[6]], *hook(8), [u[8]]],
        u[8]: [[u[8]], [u[7]], [u[9]]],
        u[9]: [[u[9]], [u[8]], *[[b] for b in tail_pool], [u[0]]],
    }


# ---------------------------------------------------------------------------
# Independent set  <->  stable roommates
# ---------------------------------------------------------------------------

def independent_set_to_sr(graph: Graph, k: int) -> ReducedInstance:
    """Encode "does ``graph`` have an independent set of size k?".

    The graph must have maximum degree three (DegreeTooHigh otherwise) and
    k must lie in 1..n (KOutOfRange).  The resulting profile has
    10n + 10k agents, is narcissistic, and is single-peaked with respect
    to the returned ``sp_witness``; it admits a stable matching exactly
    when the independent set exists.
    """
    n = graph.n_vertices
    if not 1 <= k <= n:
        raise KOutOfRange(k, n)
    check_degree_cap(graph)
    coloring = misra_gries_edge_coloring(graph)

    vertex_agents = tuple(
        tuple(10 * i + s for s in range(10)) for i in range(n)
    )
    a_gadgets = tuple(
        tuple(10 * n + 5 * g + s for s in range(5)) for g in range(k)
    )
    b_gadgets = tuple(
        tuple(10 * n + 5 * k + 5 * g + s for s in range(5)) for g in range(k)
    )
    head_pool = [a_gadgets[g][4] for g in range(k)]  # slot-5 agents, in order
    tail_pool = [b_gadgets[g][4] for g in range(k)]
    u1_ids = [vertex_agents[i][0] for i in range(n)]
    u10_ids = [vertex_agents[i][9] for i in range(n)]

    # hooks[i][slot] = the slot-mate in the other endpoint's gadget, where
    # color class c occupies slot 2(c+1).
    hooks: list[dict[int, AgentId]] = [{} for _ in range(n)]
    for c, cls in enumerate(coloring.classes):
        slot = 2 * (c + 1)
        for i, j in cls:
            hooks[i][slot] = vertex_agents[j][slot - 1]
            hooks[j][slot] = vertex_agents[i][slot - 1]

    orders: dict[AgentId, RawGroups] = {}
    roles: dict[AgentId, str] = {}
    for i in range(n):
        orders.update(vertex_gadget(vertex_agents[i], head_pool, tail_pool, hooks[i]))
        for s in range(10):
            roles[vertex_agents[i][s]] = f"u{i}^{s + 1}"
    for g in range(k):
        orders.update(selector_gadget(a_gadgets[g], u1_ids))
        orders.update(selector_gadget(b_gadgets[g], u10_ids))
        for s in range(5):
            roles[a_gadgets[g][s]] = f"a{g}^{s + 1}"
            roles[b_gadgets[g][s]] = f"b{g}^{s + 1}"

    witness: list[AgentId] = []
    for table in (a_gadgets, b_gadgets):
        for g in reversed(range(k)):
            q = table[g]
            witness += [q[2], q[1], q[0], q[3], q[4]]
    witness += u10_ids + [vertex_agents[i][8] for i in range(n)]
    for c in range(4):
        odd, even = 2 * c, 2 * c + 1  # slot indices for slots 2c+1, 2c+2
        covered = set()
        for i, j in coloring.classes[c]:
            witness += [
                vertex_agents[i][odd],
                vertex_agents[i][even],
                vertex_agents[j][odd],
                vertex_agents[j][even],
            ]
            covered.update((i, j))
        for i in range(n):
            if i not in covered:
                witness += [vertex_agents[i][odd], vertex_agents[i][even]]

    return ReducedInstance(
        profile=build_profile(orders),
        agent_roles=roles,
        sp_witness=WitnessOrder(witness),
        graph=graph,
        k=k,
        vertex_agents=vertex_agents,
        a_gadgets=a_gadgets,
        b_gadgets=b_gadgets,
    )


def independent_set_to_matching(
    instance: ReducedInstance, chosen: Iterable[int]
) -> Matching:
    """The canonical stable matching for an independent set of size k.

    ``chosen`` holds vertex indices of ``instance.graph``.  Raises
    WrongSize or NotIndependent when the set does not qualify.  The
    selector gadgets pair with the chosen vertices in ascending order;
    the result is checked for stability before being returned.
    """
    graph, k = instance.graph, instance.k
    assert graph is not None and k is not None, "needs an independent-set instance"
    chosen_sorted = sorted(set(chosen))
    if len(chosen_sorted) != k:
        raise WrongSize(k, len(chosen_sorted))
    for v in chosen_sorted:
        if not 0 <= v < graph.n_vertices:
            raise ValueError(f"vertex {v} outside the graph")
    in_set = set(chosen_sorted)
    for u, v in graph.edges:
        if u in in_set and v in in_set:
            raise NotIndependent(u, v)

    pairs: list[tuple[AgentId, AgentId]] = []
    for g, v in enumerate(chosen_sorted):
        a, b, vu = instance.a_gadgets[g], instance.b_gadgets[g], instance.vertex_agents[v]
        pairs += [(a[4], vu[0]), (b[4], vu[9])]
    for table in (instance.a_gadgets, instance.b_gadgets):
        for g in range(k):
            pairs += [(table[g][0], table[g][1]), (table[g][2], table[g][3])]
    for v in range(graph.n_vertices):
        vu = instance.vertex_agents[v]
        if v in in_set:
            # slots 2+3, 4+5, 6+7, 8+9 (1 and 10 left for the selectors)
            pairs += [(vu[1], vu[2]), (vu[3], vu[4]), (vu[5], vu[6]), (vu[7], vu[8])]
        else:
            pairs += [(vu[0], vu[1]), (vu[2], vu[3]), (vu[4], vu[5]), (vu[6], vu[7]), (vu[8], vu[9])]

    matching = Matching(pairs)
    blocking = find_blocking_pairs(instance.profile, matching)
    if blocking:
        raise InternalInvariantViolation(
            f"independent set produced a matching blocked by {blocking[0].pair}"
        )
    return matching


def sr_matching_to_independent_set(
    instance: ReducedInstance, matching: Matching
) -> tuple[int, ...]:
    """Read an independent set off a stable matching of a reduced instance.

    The chosen vertices are exactly those whose slot-10 agent married a
    slot-5 agent of the second selector flavor.  The input matching must
    be stable (ValueError otherwise); the extracted set is re-checked for
    size and independence, and a failure there means the construction
    itself is broken (InternalInvariantViolation).
    """
    graph, k = instance.graph, instance.k
    assert graph is not None and k is not None, "needs an independent-set instance"
    blocking = find_blocking_pairs(instance.profile, matching)
    if blocking:
        raise ValueError(f"matching is not stable: {blocking[0].pair} blocks it")

    b5_ids = {gadget[4] for gadget in instance.b_gadgets}
    chosen = tuple(
        v
        for v in range(graph.n_vertices)
        if matching.partner(instance.vertex_agents[v][9]) in b5_ids
    )
    if len(chosen) != k:
        raise InternalInvariantViolation(
            f"extracted {len(chosen)} vertices from a size-{k} instance"
        )
    in_set = set(chosen)
    for u, v in graph.edges:
        if u in in_set and v in in_set:
            raise InternalInvariantViolation(
                f"extracted set contains the edge ({u}, {v})"
            )
    return chosen


# ---------------------------------------------------------------------------
# Betweenness  ->  restricted-domain profiles
# ---------------------------------------------------------------------------

def betweenness_to_sp_instance(instance: BetweennessInstance) -> ReducedInstance:
    """Profile that is single-peaked iff the betweenness instance is satisfiable.

    Each triple (x, y, z) contributes two agents: one ranking y > x > z
    and one ranking y > z > x, neither listing itself.  Their combined
    single-peakedness constraints forbid x and z from sitting between the
    other two, which pins y to the middle.  Element agents rank, among
    the triple agents that mention them, first all of the first flavor
    and then all of the second, by ascending triple index.
    """
    n, m = instance.universe_size, len(instance.triples)
    first = [n + j for j in range(m)]
    second = [n + m + j for j in range(m)]

    orders: dict[AgentId, RawGroups] = {u: [] for u in range(n)}
    roles: dict[AgentId, str] = {u: f"u{u}" for u in range(n)}
    for j, (x, y, z) in enumerate(instance.triples):
        orders[first[j]] = [[y], [x], [z]]
        orders[second[j]] = [[y], [z], [x]]
        roles[first[j]] = f"a{j}"
        roles[second[j]] = f"a'{j}"
    for u in range(n):
        mine = [j for j, t in enumerate(instance.triples) if u in t]
        orders[u] = [[first[j]] for j in mine] + [[second[j]] for j in mine]

    return ReducedInstance(
        profile=build_profile(orders), agent_roles=roles, betweenness=instance
    )


def betweenness_to_sc_instance(instance: BetweennessInstance) -> ReducedInstance:
    """Profile that is single-crossing iff the betweenness instance is satisfiable.

    Each triple gets three agents who all rank the triple's elements the
    same way (ascending element id), so as voters they never disagree.
    Each element ranks, per triple containing it and by descending triple
    index, the triple's three agents in an order depending on its slot;
    the disagreements this creates force y between x and z on the voter
    axis, and nothing else.  The profile has no ties, so single-crossing
    and its tie-sensitive refinement coincide on it.
    """
    n, m = instance.universe_size, len(instance.triples)
    trio = [(n + 3 * j, n + 3 * j + 1, n + 3 * j + 2) for j in range(m)]

    orders: dict[AgentId, RawGroups] = {}
    roles: dict[AgentId, str] = {u: f"u{u}" for u in range(n)}
    for j, (x, y, z) in enumerate(instance.triples):
        a, b, c = trio[j]
        shared = [[e] for e in sorted((x, y, z))]
        orders[a] = [row[:] for row in shared]
        orders[b] = [row[:] for row in shared]
        orders[c] = [row[:] for row in shared]
        roles[a], roles[b], roles[c] = f"a{j}", f"b{j}", f"c{j}"
    for u in range(n):
        groups: RawGroups = []
        for j in reversed(range(m)):
            x, y, z = instance.triples[j]
            if u not in (x, y, z):
                continue
            a, b, c = trio[j]
            if u == x:
                block = [a, b, c]
            elif u == y:
                block = [b, a, c]
            else:
                block = [c, b, a]
            groups += [[agent] for agent in block]
        orders[u] = groups

    return ReducedInstance(
        profile=build_profile(orders), agent_roles=roles, betweenness=instance
    )
