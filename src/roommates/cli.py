"""Command-line front end.

Results go to stdout in the package's file formats (so they can be piped
straight back in); diagnostics go to stderr.  Exit codes: 0 when the
requested thing was found or done, 1 when a search legitimately came up
empty (no stable matching, a blocked matching), 2 on any error, reported
as a single ``error: <Type>: <message>`` line.  An unexpected exception reads
``error: InternalError: <Type>: <message>``.

A search's node budget comes from --budget when given, else from the
SR_SEARCH_BUDGET environment variable, else a built-in default.  ``check``
has no flag; its exact single-crossing search, which alone can print
``unknown``, reads the variable and runs only when some voter does not rank
every agent, itself included.  A negative or non-integer budget is an error.

A command loads only the modules it runs: ``check`` compiles neither the
solvers nor the reductions, and ``--help`` not even the structure checks.
So the package functions the handlers call are not imported at the top.  The
module ``__getattr__`` imports each on first use and binds it here, and
the handlers look them up as attributes of this module (``_cli.name``)
rather than as globals, whose lookup would skip ``__getattr__``.  Every
such name is therefore an attribute of ``roommates.cli``, and a wrapper
set on that attribute, as the benchmark's span tracer does, is the one
the handler calls.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, combinations
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .errors import NoMutualPair, RoommatesError
from .search import DEFAULT_SEARCH_BUDGET

if TYPE_CHECKING:
    from .model import Matching
    from .stability import BlockingReason
    from .structure import Verdict

# The package functions the handlers call through ``_cli``; the package
# itself knows each one's home module.
_LAZY = frozenset({
    "GeneratorConfig", "betweenness_to_sc_instance", "betweenness_to_sp_instance",
    "check_matching", "enumerate_stable_matchings", "exists_stable_matching",
    "find_blocking_pairs", "gen_degree3_graph", "gen_narcissistic_sp", "greedy_solve",
    "independent_set_to_sr", "is_worst_restricted", "property_report",
    "sr_matching_to_independent_set",
})


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value  # later lookups skip this function
    return value


_cli = sys.modules[__name__]

_VERIFY_CAP = 20  # brute-force independent-set search cap for verify-reduction


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _budget(args: argparse.Namespace) -> int:
    """--budget, else SR_SEARCH_BUDGET, else the default; never negative."""
    if getattr(args, "budget", None) is not None:
        source, raw = "--budget", args.budget
    else:
        source, raw = "SR_SEARCH_BUDGET", os.environ.get("SR_SEARCH_BUDGET")
        if not raw:
            return DEFAULT_SEARCH_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return budget


def _yes_no(value: bool) -> str:
    return "yes" if value else "no"


def _reason_token(reason: BlockingReason) -> str:
    """A blocking reason as ``verify`` prints it: its value, dashed."""
    return reason.value.replace("_", "-")


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write to --output when given, else to stdout."""
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> int:
    profile = formats.parse_profile(_read(args.profile))
    order = formats.parse_order(_read(args.order)) if args.order else None
    report = _cli.property_report(profile, order, budget=_budget(args))
    print(f"agents: {profile.n_agents}")
    print(f"complete: {_yes_no(report.complete)}")
    print(f"ties: {_yes_no(report.has_ties)}")
    print(f"narcissistic: {_yes_no(report.narcissistic)}")
    if report.has_ties:
        print("worst-restricted: n/a (ties)")
    else:
        print(f"worst-restricted: {_yes_no(_cli.is_worst_restricted(profile))}")
    if order is not None:
        print(f"single-peaked: {_verdict_text(report.single_peaked)}")
        print(f"tssc: {_verdict_text(report.tssc)}")
        if report.single_crossing is None:
            print("single-crossing: unknown")
        else:
            print(f"single-crossing: {_yes_no(report.single_crossing)}")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _verdict_text(verdict: Verdict | None) -> str:
    if verdict is None:
        return "unknown"
    if verdict.ok:
        return "yes"
    return f"no (witness {' '.join(str(v) for v in verdict.witness)})"


def _print_matching(matching: Matching) -> None:
    sys.stdout.write(formats.serialize_matching(matching))


def _cmd_solve(args: argparse.Namespace) -> int:
    profile = formats.parse_profile(_read(args.profile))
    if args.algorithm == "greedy":
        try:
            matching, trace = _cli.greedy_solve(profile)
        except NoMutualPair as exc:
            print(
                f"no mutual top pair ({len(exc.remaining)} agents left)",
                file=sys.stderr,
            )
            return 1
        if args.trace:
            for pair, left in trace.rounds:
                print(f"# matched {pair[0]},{pair[1]} ({left} agents left)")
        _print_matching(matching)
        return 0
    found, matching = _cli.exists_stable_matching(profile, budget=_budget(args))
    if not found:
        print("NO STABLE MATCHING", file=sys.stderr)
        return 1
    assert matching is not None
    _print_matching(matching)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    profile = formats.parse_profile(_read(args.profile))
    matchings = _cli.enumerate_stable_matchings(profile, budget=_budget(args))
    # Leaves repeat the same few pairs, so each distinct pair is formatted once.
    label = {pair: f"{pair[0]},{pair[1]}" for pair in set(chain.from_iterable(matchings))}
    sys.stdout.write("".join([
        f"matching: {' '.join(map(label.__getitem__, m.pairs))}\n" for m in matchings
    ]))
    print(f"{len(matchings)} stable matching(s)", file=sys.stderr)
    return 0 if matchings else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    profile = formats.parse_profile(_read(args.profile))
    matching = formats.parse_matching(_read(args.matching))
    _cli.check_matching(profile, matching)
    blocking = _cli.find_blocking_pairs(profile, matching)
    if not blocking:
        print("STABLE")
        return 0
    for bp in blocking:
        x, y = bp.pair
        print(f"blocking: {x},{y} {_reason_token(bp.reason_x)} {_reason_token(bp.reason_y)}")
    return 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    base = args.output
    if args.kind == "is2sr":
        if args.k is None:
            raise ValueError("reduce is2sr needs -k")
        graph = formats.parse_graph(_read(args.input))
        instance = _cli.independent_set_to_sr(graph, args.k)
        assert instance.sp_witness is not None
        files = {
            f"{base}.prof": formats.serialize_profile(instance.profile),
            f"{base}.order": formats.serialize_order(instance.sp_witness),
            f"{base}.roles": formats.serialize_roles(dict(instance.agent_roles)),
        }
    else:
        bt = formats.parse_betweenness(_read(args.input))
        build = (_cli.betweenness_to_sp_instance if args.kind == "btw2sp"
                 else _cli.betweenness_to_sc_instance)
        instance = build(bt)
        files = {
            f"{base}.prof": formats.serialize_profile(instance.profile),
            f"{base}.roles": formats.serialize_roles(dict(instance.agent_roles)),
        }
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _cmd_verify_reduction(args: argparse.Namespace) -> int:
    graph = formats.parse_graph(_read(args.graph))
    if graph.n_vertices > _VERIFY_CAP:
        raise ValueError(
            f"brute-force verification is capped at {_VERIFY_CAP} vertices"
        )
    instance = _cli.independent_set_to_sr(graph, args.k)
    has_set = False
    for chosen in combinations(range(graph.n_vertices), args.k):
        members = set(chosen)
        if all(u not in members or v not in members for u, v in graph.edges):
            has_set = True
            break
    found, matching = _cli.exists_stable_matching(instance.profile, budget=_budget(args))
    print(f"independent-set: {_yes_no(has_set)}")
    print(f"stable-matching: {_yes_no(found)}")
    if found and has_set:
        assert matching is not None
        chosen = _cli.sr_matching_to_independent_set(instance, matching)
        print("extracted: " + " ".join(str(v) for v in chosen))
    print("PASS" if has_set == found else "FAIL")
    return 0 if has_set == found else 2


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "sp-profile":
        config = _cli.GeneratorConfig(
            n_agents=args.n,
            allow_ties=args.ties,
            tie_probability=args.tie_probability,
            seed=args.seed,
        )
        profile, axis = _cli.gen_narcissistic_sp(config)
        if args.output:
            Path(args.output).write_text(
                formats.serialize_profile(profile), encoding="utf-8"
            )
            Path(args.output + ".order").write_text(
                formats.serialize_order(axis), encoding="utf-8"
            )
            print(f"wrote {args.output}")
            print(f"wrote {args.output}.order")
        else:
            sys.stdout.write(formats.serialize_profile(profile))
            print("# axis: " + " ".join(str(a) for a in axis))
        return 0
    graph = _cli.gen_degree3_graph(args.n, args.edge_probability, args.seed)
    _emit(args, formats.serialize_graph(graph))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roommates",
        description="Stable roommate matching with structured preferences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report a profile's structural properties")
    p.add_argument("profile")
    p.add_argument("--order", help="order file to verify axis properties against")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="find one stable matching")
    p.add_argument("profile")
    p.add_argument(
        "--algorithm",
        choices=["greedy", "brute"],
        default="greedy",
        help="greedy top-pair elimination or brute search",
    )
    p.add_argument("--budget", type=int, help="search-node budget for brute")
    p.add_argument("--trace", action="store_true", help="print greedy rounds")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="list all stable matchings")
    p.add_argument("profile")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check a matching for blocking pairs")
    p.add_argument("profile")
    p.add_argument("matching")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="build a reduction instance")
    p.add_argument("kind", choices=["is2sr", "btw2sp", "btw2sc"])
    p.add_argument("input")
    p.add_argument("-k", type=int, help="independent-set size (is2sr only)")
    p.add_argument("--output", required=True, help="basename for the written files")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "verify-reduction",
        help="cross-check a small is2sr instance against brute force",
    )
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_verify_reduction)

    p = sub.add_parser("gen", help="generate a random instance")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("sp-profile")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--ties", action="store_true")
    g.add_argument("--tie-probability", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output")
    g.set_defaults(func=_cmd_gen, kind="sp-profile")
    g = gen_sub.add_parser("graph")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--edge-probability", type=float, default=0.3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output")
    g.set_defaults(func=_cmd_gen, kind="graph")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RoommatesError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit status 1 means "ran fine, answer negative", so a crash must
        # not fall through to Python's default 1.
        print(f"error: InternalError: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
