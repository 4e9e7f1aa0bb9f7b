"""Output checks that do not rely on the package's own algorithms.

Files are read with the small parsers below, and answers are compared with
facts known by construction or computed by ``tests/oracles.py``.  The
oracles only need ``profile.agents``, ``profile.order(i).groups`` and
``matching.pairs``, so the parsed files are handed to them as plain
objects.  Each check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import oracles

# Enumerated matchings checked one by one with the stability oracle.
ENUMERATION_SAMPLE = 16


@dataclass
class Order:
    groups: list[list[int]]


@dataclass
class RawProfile:
    agents: tuple[int, ...]
    orders: dict[int, Order]

    def order(self, i: int) -> Order:
        return self.orders[i]

    def ranks(self, i: int) -> dict[int, int]:
        return {m: r for r, group in enumerate(self.orders[i].groups) for m in group}


@dataclass
class RawMatching:
    pairs: tuple[tuple[int, int], ...]


@dataclass
class RawGraph:
    n_vertices: int
    edges: list[tuple[int, int]]


def _body(text: str) -> list[str]:
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def read_profile(path: Path) -> RawProfile:
    lines = _body(path.read_text(encoding="utf-8"))
    n = int(lines[0].split()[1])
    orders = {}
    for line in lines[1:]:
        head, tail = line.split(":", 1)
        groups = [[int(t) for t in chunk.split()] for chunk in tail.split("|")]
        orders[int(head.split()[1])] = Order([g for g in groups if g])
    if sorted(orders) != list(range(n)):
        raise ValueError(f"{path.name}: pref lines do not cover agents 0..{n - 1}")
    return RawProfile(tuple(range(n)), orders)


def read_order(path: Path) -> list[int]:
    return [int(t) for t in _body(path.read_text(encoding="utf-8"))[0].split()[1:]]


def read_graph(path: Path) -> RawGraph:
    lines = _body(path.read_text(encoding="utf-8"))
    edges = [(int(u), int(v)) for _, u, v in (line.split() for line in lines[1:])]
    return RawGraph(int(lines[0].split()[1]), edges)


def pairs_of(lines) -> RawMatching:
    return RawMatching(tuple(tuple(int(x) for x in line.split()[1:3]) for line in lines))


def is_disjoint(matching: RawMatching) -> bool:
    agents = [a for pair in matching.pairs for a in pair]
    return len(agents) == len(set(agents)) and all(x != y for x, y in matching.pairs)


def valley(ranks: dict[int, int], axis: list[int]) -> bool:
    """Does some acceptable y on the axis have strictly better agents on both sides?"""
    seq = [ranks[a] for a in axis if a in ranks]
    best_left = float("inf")
    best_right = [float("inf")] * (len(seq) + 1)
    for t in range(len(seq) - 1, -1, -1):
        best_right[t] = min(best_right[t + 1], seq[t])
    for t, r in enumerate(seq):
        if best_left < r and best_right[t + 1] < r:
            return True
        best_left = min(best_left, r)
    return False


def _pair_word(profile: RawProfile, axis: list[int], x: int, y: int) -> str:
    letters = []
    for v in axis:
        ranks = profile.ranks(v)
        if x in ranks and y in ranks:
            letters.append("A" if ranks[x] < ranks[y] else "B" if ranks[y] < ranks[x] else "T")
    return "".join(letters)


# ---------------------------------------------------------------------------
# sp_solve
# ---------------------------------------------------------------------------

def check_generated(work: Path, op: dict) -> list[str]:
    """A complete narcissistic profile, single-peaked on the written axis."""
    profile = read_profile(work / op["outputs"][0])
    axis = read_order(work / op["outputs"][1])
    n = op["n"]
    problems = []
    if len(profile.agents) != n or sorted(axis) != list(range(n)):
        return [f"gen n={n}: wrong agent count or axis"]
    for i in profile.agents:
        groups = profile.orders[i].groups
        if groups[0] != [i]:
            problems.append(f"gen n={n}: agent {i} is not narcissistic")
        if sorted(m for g in groups for m in g) != list(range(n)):
            problems.append(f"gen n={n}: agent {i} does not rank every agent once")
        if any(len(g) > 2 for g in groups):
            problems.append(f"gen n={n}: agent {i} has a tie of more than two")
        if valley(profile.ranks(i), axis):
            problems.append(f"gen n={n}: agent {i} is not single-peaked on the axis")
        if problems:
            break
    return problems


def check_solve_greedy(work: Path, op: dict, stdout: str) -> list[str]:
    n = op["n"]
    lines = stdout.splitlines()
    rounds = [line for line in lines if line.startswith("# matched ")]
    matching = pairs_of(line for line in lines if line.startswith("pair "))
    problems = []
    if len(rounds) != n // 2:
        problems.append(f"solve n={n}: {len(rounds)} rounds, expected {n // 2}")
    left = [int(re.search(r"\((\d+) agents left\)", r).group(1)) for r in rounds]
    if left != list(range(n - 2, -1, -2)):
        problems.append(f"solve n={n}: round counts do not fall by two to zero")
    if not is_disjoint(matching) or len(matching.pairs) * 2 != n:
        problems.append(f"solve n={n}: matching is not perfect")
    elif not oracles.stable_by_definition(read_profile(work / op["profile"]), matching):
        problems.append(f"solve n={n}: matching has a blocking pair")
    return problems


def check_verify(op: dict, stdout: str) -> list[str]:
    return [] if stdout == "STABLE\n" else [f"verify n={op['n']}: printed {stdout[:60]!r}"]


# ---------------------------------------------------------------------------
# axis_check
# ---------------------------------------------------------------------------

def _field(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return ""


def _witness(value: str) -> list[int] | None:
    m = re.fullmatch(r"no \(witness ([\d ]+)\)", value)
    return [int(t) for t in m.group(1).split()] if m else None


def check_axis(work: Path, op: dict, stdout: str) -> tuple[list[str], bool]:
    """Problems, and whether the single-crossing verdict was oracle-checked."""
    profile = read_profile(work / op["profile"])
    axis = read_order(work / op["order"])
    name = op["profile"]
    problems = []
    has_tie = any(len(g) > 1 for i in profile.agents for g in profile.orders[i].groups)
    expected = {
        "agents": str(len(profile.agents)),
        "complete": "yes",
        "ties": "yes" if has_tie else "no",
        "narcissistic": "yes",
        # Distance preferences on a line put every agent's worst at an end.
        "worst-restricted": "n/a (ties)" if has_tie else "yes",
    }
    for key, want in expected.items():
        if _field(stdout, key) != want:
            problems.append(f"{name}: {key} is {_field(stdout, key)!r}, expected {want!r}")

    sp = _field(stdout, "single-peaked")
    sp_true = not any(valley(profile.ranks(i), axis) for i in profile.agents)
    if op["expect"] and sp.split(" ")[0] != op["expect"]:
        problems.append(f"{name}: single-peaked is {sp!r}, expected {op['expect']!r}")
    if sp == "yes" and not sp_true:
        problems.append(f"{name}: single-peaked 'yes' but a valley exists")
    elif sp != "yes":
        w = _witness(sp)
        pos = {a: p for p, a in enumerate(axis)}
        if w is None or len(w) != 4 or sp_true:
            problems.append(f"{name}: single-peaked {sp!r} is not a valid 'no'")
        else:
            i, x, y, z = w
            r = profile.ranks(i)
            if not (pos[x] < pos[y] < pos[z] and r[x] < r[y] and r[z] < r[y]):
                problems.append(f"{name}: single-peaked witness {w} is not a valley")

    tssc = _field(stdout, "tssc")
    tssc_true = oracles.tssc_by_definition(profile, axis)
    if (tssc == "yes") != tssc_true:
        problems.append(f"{name}: tssc is {tssc!r}, oracle says {tssc_true}")
    elif tssc != "yes":
        w = _witness(tssc)
        if w is None or len(w) != 2 or re.fullmatch(
            r"A*T*B*|B*T*A*", _pair_word(profile, axis, *w)
        ):
            problems.append(f"{name}: tssc witness {tssc!r} does not cross")

    sc = _field(stdout, "single-crossing")
    if op["expect"] == "yes" and sc != "yes":
        problems.append(f"{name}: single-crossing is {sc!r} on the true axis")
    if op["sc_oracle_cap"] is None:
        return problems, False
    try:
        sc_true = oracles.sc_by_definition(profile, axis, cap=op["sc_oracle_cap"])
    except ValueError:
        problems.append(f"{name}: too many tie-break combinations for the oracle")
        return problems, False
    if (sc == "yes") != sc_true:
        problems.append(f"{name}: single-crossing is {sc!r}, oracle says {sc_true}")
    return problems, True


# ---------------------------------------------------------------------------
# is2sr_search
# ---------------------------------------------------------------------------

def check_is2sr(work: Path, op: dict, stdout: str, stderr: str) -> list[str]:
    name = f"{op['cmd']} {op['profile']}"
    graph = read_graph(work / op["graph"])
    exists = oracles.independent_set_exists(graph, op["k"])
    if exists != (op["expect"] == "yes"):
        return [f"{name}: independent set of size {op['k']} is {exists}, plan says {op['expect']}"]
    profile = read_profile(work / op["profile"])
    lines = stdout.splitlines()
    if op["cmd"] == "solve":
        if not exists:
            ok = not lines and "NO STABLE MATCHING" in stderr
            return [] if ok else [f"{name}: expected no stable matching"]
        matching = pairs_of(lines)
        if not lines or not all(line.startswith("pair ") for line in lines):
            return [f"{name}: expected a matching"]
        if not is_disjoint(matching) or not oracles.stable_by_definition(profile, matching):
            return [f"{name}: printed matching is not stable"]
        return []
    count = len(lines)
    problems = []
    if f"{count} stable matching(s)" not in stderr:
        problems.append(f"{name}: stderr count does not match {count} printed matchings")
    if (count > 0) != exists:
        problems.append(f"{name}: {count} matchings but independent set exists is {exists}")
    if len(set(lines)) != count:
        problems.append(f"{name}: repeated matchings")
    step = max(1, count // ENUMERATION_SAMPLE)
    for line in lines[::step]:
        matching = RawMatching(tuple(
            tuple(int(a) for a in p.split(",")) for p in line.split()[1:]
        ))
        if not is_disjoint(matching) or not oracles.stable_by_definition(profile, matching):
            problems.append(f"{name}: enumerated matching {line[:60]!r} is not stable")
            break
    return problems
