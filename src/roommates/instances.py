"""Named example profiles and random instance generators.

The fixtures are small hand-built profiles exercising specific behaviors
(multiple stable matchings, none at all, crossing structure with and
without ties).

The generators are deterministic in their seed and verify their own
output before returning it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .errors import InternalInvariantViolation, UnknownFixture
from .model import (AgentId, PreferenceOrder, Profile, WitnessOrder, _ints, _Record,
                    build_profile)
from .structure import is_single_peaked_wrt

if TYPE_CHECKING:
    from .coloring import Graph

_FIXTURES: dict[str, dict[AgentId, list[list[AgentId]]]] = {
    # Two stable matchings; agent 2 is indifferent between 1 and 3.
    "example1": {
        0: [[0], [1], [2], [3]],
        1: [[1], [2], [0], [3]],
        2: [[2], [1, 3], [0]],
        3: [[3], [2], [1], [0]],
    },
    # Same but agent 2 now prefers 0 to 1: no stable matching survives.
    "example1_modified": {
        0: [[0], [1], [2], [3]],
        1: [[1], [2], [0], [3]],
        2: [[2], [0], [1], [3]],
        3: [[3], [2], [1], [0]],
    },
    # Incomplete; stable matchings exist but none of them is perfect.
    "p1": {
        0: [[0], [5], [4]],
        1: [[1], [4], [5]],
        2: [[2], [4], [5]],
        3: [[3], [4], [5]],
        4: [[4], [0], [1], [2], [3]],
        5: [[5], [3], [1], [2], [0]],
    },
    # Incomplete with an odd acceptability structure; used for graph tests.
    "p2": {
        0: [[0], [1], [2], [3]],
        1: [[1], [3], [0]],
        2: [[2], [0], [3]],
        3: [[3], [2], [1], [0]],
    },
    # A preference cycle: no stable matching at all.
    "p3": {
        0: [[0], [4], [1]],
        1: [[1], [0], [2]],
        2: [[2], [1], [3]],
        3: [[3], [2], [4]],
        4: [[4], [3], [0], [5]],
        5: [[5], [4]],
    },
    # Complete, strict, narcissistic; single-crossing w.r.t. 0,1,2,3.
    "fig2a": {
        0: [[0], [1], [2], [3]],
        1: [[1], [2], [3], [0]],
        2: [[2], [1], [0], [3]],
        3: [[3], [2], [1], [0]],
    },
    # Complete with one tie; has a single-crossing tie-break w.r.t.
    # 0,1,2,3 even though the tie-sensitive check fails on that axis.
    "fig2b": {
        0: [[0, 1], [2], [3]],
        1: [[0], [1], [3], [2]],
        2: [[3], [1], [2], [0]],
        3: [[3], [2], [1], [0]],
    },
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def fixture(name: str) -> Profile:
    """One of the named example profiles."""
    try:
        raw = _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(name, FIXTURE_NAMES) from None
    return build_profile(raw)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

class GeneratorConfig(_Record):
    """Parameters for :func:`gen_narcissistic_sp`."""

    _fields = ("n_agents", "allow_ties", "tie_probability", "seed")

    n_agents: int
    allow_ties: bool
    tie_probability: float
    seed: int

    def __init__(
        self, n_agents: int, allow_ties: bool = False, tie_probability: float = 0.0,
        seed: int = 0,
    ):
        if n_agents < 2 or n_agents % 2:
            raise ValueError("n_agents must be even and positive")
        if not 0.0 <= tie_probability <= 1.0:
            raise ValueError("tie_probability must lie in [0, 1]")
        super().__init__(n_agents, allow_ties, tie_probability, seed)


def gen_narcissistic_sp(config: GeneratorConfig) -> tuple[Profile, WitnessOrder]:
    """A complete narcissistic single-peaked profile plus its axis.

    Agents are dropped on distinct integer positions of a line; each
    ranks everyone by distance, itself first.  Exactly the two neighbors
    equidistant from an agent can tie: they stay tied with probability
    ``tie_probability`` when ``allow_ties`` is set, and otherwise the
    nearer-to-the-left one wins.  The axis (agents by ascending position)
    is returned as the witness, and the profile is re-verified against it
    before being handed out.
    """
    rng = random.Random(config.seed)
    n = config.n_agents
    positions = rng.sample(range(10 * n), n)
    # The agents are the shared ints, so the profile check compares each
    # order's members with the agents by identity.
    agents = _ints(n)[:n]
    axis = sorted(agents, key=positions.__getitem__)
    place = [0] * n
    for p, a in enumerate(axis):
        place[a] = p

    # Each agent walks outward along the axis, taking the nearer neighbor
    # first, so the rng draws for equidistant pairs come in the order of
    # increasing distance, agent by agent.  Once one side runs out the rest
    # of the other follows in axis order, with no draw.
    coords = sorted(positions)  # coords[p]: the position of axis[p]
    orders: dict[AgentId, PreferenceOrder] = {}
    for i in agents:
        twice = 2 * positions[i]
        left, right = place[i] - 1, place[i] + 1
        members = [i]
        ties: list[int] = []  # start and end of each kept tie in members
        while left >= 0 and right < n:
            gap = twice - coords[left] - coords[right]
            if gap < 0:
                members.append(axis[left])
                left -= 1
            elif gap > 0:
                members.append(axis[right])
                right += 1
            else:
                a, b = axis[left], axis[right]
                if config.allow_ties and rng.random() < config.tie_probability:
                    ties += (len(members), len(members) + 2)
                    members += sorted((a, b))
                else:
                    members += (a, b)
                left -= 1
                right += 1
        members += axis[left::-1] if left >= 0 else axis[right:]
        orders[i] = PreferenceOrder._from_ties(i, tuple(members), ties)

    profile = Profile(orders)
    witness = WitnessOrder(axis)
    if not is_single_peaked_wrt(profile, witness):
        raise InternalInvariantViolation("generated profile failed its axis check")
    return profile, witness


def gen_degree3_graph(n: int, edge_probability: float, seed: int = 0) -> Graph:
    """A random graph on n vertices with maximum degree three.

    Candidate edges are visited in lexicographic order; each is kept with
    the given probability unless an endpoint already has three edges.
    """
    from .coloring import Graph

    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = random.Random(seed)
    degree = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if degree[u] >= 3 or degree[v] >= 3:
                continue
            if rng.random() < edge_probability:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
    return Graph(n, edges)
