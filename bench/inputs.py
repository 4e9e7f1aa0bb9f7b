"""Build one workload's input files through the package, in a fresh interpreter.

    python3 bench/inputs.py <workload> <seed> <out_dir>

Writes the input files plus ``plan.json`` (the operations of one cycle,
with the facts the output checks rely on) and ``spans.json`` (the time
spent in each package call).  The benchmark times this whole process as
its set-up; the spans feed the per-layer report.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

from roommates import (
    GeneratorConfig,
    gen_degree3_graph,
    gen_narcissistic_sp,
    independent_set_to_sr,
    serialize_graph,
    serialize_order,
    serialize_profile,
)

SP_SIZES = (400, 800)
AXIS_N = 150
# The exact tie-resolution search recurses about n + 2 frames per voter, so
# from n = 30 it can pass Python's default recursion limit of 1000.
AXIS_EXACT_N = 28
AXIS_EXACT_COUNT = 4
# Tied swapped inputs are drawn until their tie-break combinations fit this
# cap, so that the single-crossing oracle can check every verdict.
SC_ORACLE_CAP = 4096
IS_SIZES = (9, 10)
IS_EDGE_PROBABILITY = 0.4
IS_ALPHA = 4
# Enumeration at k = alpha prints (k!)^2 matchings per independent set of
# size k, so fixing the number of those sets fixes the enumeration's size.
IS_MAX_SETS = {9: 4, 10: 12}
# Search time still differs from graph to graph, so each size has several
# graphs and a run's figures average over them.
IS_GRAPHS = 3
# Existence on a yes instance stops at the first stable matching, after
# anywhere from none to a few tenths of a second of search, so it runs on
# more graphs; each costs little more than a process start.
IS_SOLVE_YES_GRAPHS = 9
# Candidates scanned per size whatever the seed, so set-up does the same
# work on every seed.  At n = 10 about 3% qualify, so fewer than
# IS_SOLVE_YES_GRAPHS has odds near 1e-6.
IS_POOL = 1024

_spans: list[dict] = []


def derive(seed: int, *labels) -> random.Random:
    """A generator for one input, fixed by the run seed and a label."""
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def traced(name: str, cls: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    _spans.append({"name": name, "class": cls, "start": start,
                   "end": time.perf_counter(), "parent": None, "op": f"setup.{cls}"})
    return result


def maximum_independent_sets(graph) -> tuple[int, int]:
    """(independence number, number of independent sets of that size)."""
    adjacent = [0] * graph.n_vertices
    for u, v in graph.edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    independent = [True] * (1 << graph.n_vertices)
    best, count = 0, 1
    for mask in range(1, 1 << graph.n_vertices):
        rest = mask & (mask - 1)
        low = (mask ^ rest).bit_length() - 1
        independent[mask] = independent[rest] and not adjacent[low] & rest
        if independent[mask]:
            size = bin(mask).count("1")
            if size > best:
                best, count = size, 1
            elif size == best:
                count += 1
    return best, count


def tie_resolutions(profile) -> int:
    """How many strict profiles break the ties of ``profile``."""
    return math.prod(math.factorial(len(group)) for i in profile.agents
                     for group in profile.order(i).groups)


def write(out: Path, name: str, text: str) -> str:
    (out / name).write_text(text, encoding="utf-8")
    return name


def swap_adjacent(sequence, j: int) -> list[int]:
    seq = list(sequence)
    seq[j], seq[j + 1] = seq[j + 1], seq[j]
    return seq


def sp_solve(seed: int, out: Path) -> list[dict]:
    """gen, then solve --trace, then verify, at each size."""
    ops = []
    for n in SP_SIZES:
        cls = f"n{n}"
        gen_seed = derive(seed, "sp", n).randrange(2**31)
        prof = f"{cls}.prof"
        ops.append({"cmd": "gen", "class": cls, "n": n, "seed": gen_seed,
                    "argv": ["gen", "sp-profile", "--n", str(n), "--ties",
                             "--seed", str(gen_seed), "--output", prof],
                    "expect_exit": 0, "outputs": [prof, prof + ".order"]})
        ops.append({"cmd": "solve", "class": cls, "n": n, "profile": prof,
                    "argv": ["solve", "--trace", prof], "expect_exit": 0})
        ops.append({"cmd": "verify", "class": cls, "n": n, "profile": prof,
                    "matching": f"{cls}.match",
                    "argv": ["verify", prof, f"{cls}.match"], "expect_exit": 0})
    return ops


def axis_check(seed: int, out: Path) -> list[dict]:
    """check --order on true axes, on strict swapped axes, on tied swapped axes."""
    ops = []

    def add(cls, name, config, swap_at, expect, fits_oracle=False):
        profile, axis = traced("instances.gen_narcissistic_sp", cls,
                               gen_narcissistic_sp, config)
        if fits_oracle and tie_resolutions(profile) > SC_ORACLE_CAP:
            return False
        text = traced("formats.serialize_profile", cls, serialize_profile, profile)
        order = axis.sequence if swap_at is None else swap_adjacent(axis.sequence, swap_at)
        prof = write(out, f"{name}.prof", text)
        order_file = write(out, f"{name}.order", "order " + " ".join(map(str, order)) + "\n")
        ops.append({"cmd": "check", "class": cls, "n": config.n_agents,
                    "profile": prof, "order": order_file, "expect": expect,
                    "sc_oracle_cap": SC_ORACLE_CAP if fits_oracle else None,
                    "argv": ["check", prof, "--order", order_file], "expect_exit": 0})
        return True

    rng = derive(seed, "axis", "true")
    add("true_axis", "true_axis",
        GeneratorConfig(AXIS_N, True, 0.5, rng.randrange(2**31)), None, "yes")
    rng = derive(seed, "axis", "strict")
    add("swap_strict", "swap_strict",
        GeneratorConfig(AXIS_N, False, 0.0, rng.randrange(2**31)),
        rng.randrange(AXIS_N - 1), "no", fits_oracle=True)
    for i in range(AXIS_EXACT_COUNT):
        rng = derive(seed, "axis", "exact", i)
        while not add("swap_tied", f"swap_tied{i}",
                      GeneratorConfig(AXIS_EXACT_N, True, 0.5, rng.randrange(2**31)),
                      AXIS_EXACT_N // 2, None, fits_oracle=True):
            pass
    return ops


def is2sr_search(seed: int, out: Path) -> list[dict]:
    """solve --algorithm brute and enumerate on is2sr reductions at k = alpha, alpha + 1."""
    ops = []
    for n in IS_SIZES:
        rng = derive(seed, "is2sr", n)
        graphs = []
        for _ in range(IS_POOL):
            candidate = gen_degree3_graph(n, IS_EDGE_PROBABILITY, rng.randrange(2**31))
            if maximum_independent_sets(candidate) == (IS_ALPHA, IS_MAX_SETS[n]):
                graphs.append(candidate)
        if len(graphs) < IS_SOLVE_YES_GRAPHS:
            raise RuntimeError(f"{len(graphs)} graphs on {n} vertices qualified "
                               f"in {IS_POOL} draws, {IS_SOLVE_YES_GRAPHS} needed")
        for g, graph in enumerate(graphs[:IS_SOLVE_YES_GRAPHS]):
            graph_file = write(out, f"n{n}g{g}.graph", serialize_graph(graph))
            for k, answer in ((IS_ALPHA, "yes"), (IS_ALPHA + 1, "no")):
                if g >= IS_GRAPHS and answer == "no":
                    continue
                cls = f"n{n}_{answer}"
                instance = traced("reduction.independent_set_to_sr", cls,
                                  independent_set_to_sr, graph, k)
                prof = write(out, f"n{n}g{g}k{k}.prof",
                             traced("formats.serialize_profile", cls,
                                    serialize_profile, instance.profile))
                write(out, f"n{n}g{g}k{k}.order", serialize_order(instance.sp_witness))
                common = {"class": cls, "n": n, "k": k, "graph": graph_file, "input": g,
                          "profile": prof, "expect": answer,
                          "expect_exit": 0 if answer == "yes" else 1}
                ops.append({**common, "cmd": "solve",
                            "argv": ["solve", "--algorithm", "brute", prof]})
                if g < IS_GRAPHS:
                    ops.append({**common, "cmd": "enumerate", "argv": ["enumerate", prof]})
    return ops


WORKLOADS = {"sp_solve": sp_solve, "axis_check": axis_check, "is2sr_search": is2sr_search}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](seed, out)
    (out / "plan.json").write_text(json.dumps(ops), encoding="utf-8")
    (out / "spans.json").write_text(json.dumps(_spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
