"""End-to-end command-line tests, run through ``python -m roommates``.

Every test works in a scratch directory and pins exact stdout/stderr text
and exit codes — the CLI's output is part of its contract, since the
formats are designed to pipe straight back into the parsers.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roommates import (
    BetweennessInstance,
    GeneratorConfig,
    Graph,
    Matching,
    Profile,
    WitnessOrder,
    betweenness_to_sc_instance,
    betweenness_to_sp_instance,
    find_blocking_pairs,
    fixture,
    gen_narcissistic_sp,
    is_narcissistic,
    is_single_peaked_wrt,
    is_stable,
    parse_matching,
    parse_order,
    parse_profile,
    parse_roles,
    serialize_graph,
    serialize_matching,
    serialize_order,
    serialize_profile,
)
from roommates import cli, structure

from oracles import path_profile_text, random_matching, random_profile

SRC = Path(__file__).resolve().parent.parent / "src"

RING_TEXT = (
    "agents 4\n"
    "pref 0: 0 | 1 | 2 | 3\n"
    "pref 1: 1 | 2 | 3 | 0\n"
    "pref 2: 2 | 3 | 0 | 1\n"
    "pref 3: 3 | 0 | 1 | 2\n"
)


def run(*argv: str, cwd: Path, env: dict[str, str] | None = None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = str(SRC)
    full_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "roommates", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=full_env,
        timeout=120,
    )


@pytest.fixture()
def workdir(tmp_path: Path) -> Path:
    for name in ("example1", "fig2b", "p3"):
        (tmp_path / f"{name}.prof").write_text(serialize_profile(fixture(name)))
    (tmp_path / "axis.order").write_text("order 0 1 2 3\n")
    (tmp_path / "k2.graph").write_text(serialize_graph(Graph(2, [(0, 1)])))
    return tmp_path


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_summarizes_a_profile(workdir):
    result = run("check", "example1.prof", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == (
        "agents: 4\n"
        "complete: yes\n"
        "ties: yes\n"
        "narcissistic: yes\n"
        "worst-restricted: n/a (ties)\n"
    )
    assert result.stderr == ""


def test_check_reports_worst_restriction_when_tie_free(workdir):
    result = run("check", "p3.prof", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == (
        "agents: 6\n"
        "complete: no\n"
        "ties: no\n"
        "narcissistic: yes\n"
        "worst-restricted: no\n"
    )


def test_check_verdicts_against_an_axis(workdir):
    result = run("check", "example1.prof", "--order", "axis.order", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout.endswith(
        "single-peaked: yes\ntssc: yes\nsingle-crossing: yes\n"
    )


def test_check_witnesses_name_the_violation(workdir):
    result = run("check", "fig2b.prof", "--order", "axis.order", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == (
        "agents: 4\n"
        "complete: yes\n"
        "ties: yes\n"
        "narcissistic: no\n"
        "worst-restricted: n/a (ties)\n"
        "single-peaked: no (witness 1 0 2 3)\n"
        "tssc: no (witness 0 1)\n"
        "single-crossing: yes\n"
    )


# A complete strict single-peaked profile (n=40, seed 3) checked against its
# axis with the middle pair of voters swapped, as the CLI printed it when
# every crossing check still went through the O(n^3) scan.
SWAPPED_AXIS_CHECK = (
    "agents: 40\n"
    "complete: yes\n"
    "ties: no\n"
    "narcissistic: yes\n"
    "worst-restricted: yes\n"
    "single-peaked: no (witness 0 0 20 6)\n"
    "tssc: no (witness 6 20)\n"
    "single-crossing: no\n"
)


def test_check_against_a_swapped_axis_keeps_its_witnesses(tmp_path):
    profile, axis = gen_narcissistic_sp(GeneratorConfig(40, seed=3))
    seq = list(axis.sequence)
    seq[19], seq[20] = seq[20], seq[19]
    (tmp_path / "sp40.prof").write_text(serialize_profile(profile))
    (tmp_path / "swap.order").write_text(serialize_order(WitnessOrder(seq)))
    result = run("check", "sp40.prof", "--order", "swap.order", cwd=tmp_path)
    assert result.returncode == 0
    assert result.stdout == SWAPPED_AXIS_CHECK
    assert result.stderr == ""


@pytest.mark.parametrize(
    "reduce, n_agents, stable",
    [
        (betweenness_to_sp_instance, 6, "matching: 1,4 2,5\n"),
        (betweenness_to_sc_instance, 7, "matching: 0,4 1,5 2,6\n"),
    ],
    ids=["sp", "sc"],
)
def test_isolated_agents_and_odd_counts_are_valid_profiles(
    reduce, n_agents, stable, tmp_path, capsys
):
    # The betweenness reductions leave agent 3, a universe member outside
    # every triple, ranking nobody; the SC one has an odd agent count.
    profile = reduce(BetweennessInstance(4, [(0, 1, 2)])).profile
    assert profile.n_agents == n_agents
    assert not profile.order(3).ranks
    text = serialize_profile(profile)
    assert "pref 3:\n" in text
    assert parse_profile(text) == profile
    path = tmp_path / "reduced.prof"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["enumerate", str(path)]) == 0
    assert capsys.readouterr().out == stable


def test_check_output_is_reproducible(workdir):
    first = run("check", "example1.prof", cwd=workdir)
    second = run("check", "example1.prof", cwd=workdir)
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_greedy_emits_a_matching_file(workdir):
    result = run("solve", "example1.prof", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "pair 0 3\npair 1 2\n"
    matching = parse_matching(result.stdout)
    assert is_stable(fixture("example1"), matching)


def test_solve_trace_narrates_each_round(workdir):
    result = run("solve", "example1.prof", "--trace", cwd=workdir)
    assert result.stdout == (
        "# matched 1,2 (2 agents left)\n"
        "# matched 0,3 (0 agents left)\n"
        "pair 0 3\n"
        "pair 1 2\n"
    )
    # the trace lines are comments, so the output still parses
    assert parse_matching(result.stdout) == Matching([(0, 3), (1, 2)])


def test_solve_and_verify_keep_their_bytes_on_a_generated_profile(tmp_path):
    # Digests recorded from the CLI before preference orders were stored
    # flat: the n=200 tied single-peaked profile of seed 3, its greedy
    # solution, and that solution with the first two pairs crossed over.
    profile, _ = gen_narcissistic_sp(GeneratorConfig(200, True, 0.5, 3))
    (tmp_path / "p.prof").write_text(serialize_profile(profile), encoding="utf-8")
    solved = run("solve", "--trace", "p.prof", cwd=tmp_path)
    assert solved.returncode == 0 and solved.stderr == ""
    assert sha1(solved.stdout) == "d46530cda29a160c9e70459dee75abf488ec1951"
    pairs = parse_matching(solved.stdout).pairs
    (tmp_path / "m.match").write_text(serialize_matching(Matching(pairs)), encoding="utf-8")
    verified = run("verify", "p.prof", "m.match", cwd=tmp_path)
    assert (verified.returncode, verified.stdout, verified.stderr) == (0, "STABLE\n", "")
    (a, b), (c, d) = pairs[:2]
    crossed = Matching([(a, c), (b, d), *pairs[2:]])
    (tmp_path / "x.match").write_text(serialize_matching(crossed), encoding="utf-8")
    blocked = run("verify", "p.prof", "x.match", cwd=tmp_path)
    assert blocked.returncode == 1 and blocked.stderr == ""
    assert sha1(blocked.stdout) == "64b15cc0caa8d0cab4bb83b744f3a4028d5a11af"


def sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def test_solve_rejects_the_old_bt_spelling(workdir):
    result = run("solve", "example1.prof", "--algorithm", "bt", cwd=workdir)
    assert result.returncode == 2 and result.stdout == ""
    assert "invalid choice: 'bt'" in result.stderr


def test_solve_brute_finds_and_reports(workdir):
    result = run("solve", "example1.prof", "--algorithm", "brute", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "pair 0 1\npair 2 3\n"


def test_solve_brute_reports_unsolvable_instances(workdir):
    result = run("solve", "p3.prof", "--algorithm", "brute", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "NO STABLE MATCHING\n"


def test_solve_greedy_explains_a_dead_end(workdir):
    (workdir / "ring.prof").write_text(RING_TEXT)
    result = run("solve", "ring.prof", cwd=workdir)
    assert result.returncode == 1
    assert result.stderr == "no mutual top pair (4 agents left)\n"


# ---------------------------------------------------------------------------
# enumerate / verify
# ---------------------------------------------------------------------------

def test_enumerate_lists_canonically(workdir):
    result = run("enumerate", "example1.prof", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "matching: 0,1 2,3\nmatching: 0,3 1,2\n"
    assert result.stderr == "2 stable matching(s)\n"


def test_enumerate_exits_one_when_empty(workdir):
    result = run("enumerate", "p3.prof", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "0 stable matching(s)\n"


def test_verify_confirms_stability(workdir):
    (workdir / "good.match").write_text("pair 0 1\npair 2 3\n")
    result = run("verify", "example1.prof", "good.match", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "STABLE\n"


def test_verify_lists_blocking_pairs(workdir):
    (workdir / "bad.match").write_text("pair 0 2\npair 1 3\n")
    result = run("verify", "example1.prof", "bad.match", cwd=workdir)
    assert result.returncode == 1
    assert result.stdout == (
        "blocking: 0,1 prefers-over-partner prefers-over-partner\n"
        "blocking: 1,2 prefers-over-partner prefers-over-partner\n"
        "blocking: 2,3 prefers-over-partner prefers-over-partner\n"
    )


def test_verify_flags_unmatched_blockers(workdir):
    (workdir / "empty.match").write_text("")
    result = run("verify", "example1.prof", "empty.match", cwd=workdir)
    assert result.returncode == 1
    for line in result.stdout.splitlines():
        assert line.endswith("unmatched unmatched")


def test_verify_rejects_a_pair_that_is_not_mutually_acceptable(workdir):
    (workdir / "two.prof").write_text(
        "agents 4\npref 0: 0 | 1\npref 1: 1 | 0\npref 2: 2 | 3\npref 3: 3 | 2\n"
    )
    (workdir / "apart.match").write_text("pair 0 2\n")
    result = run("verify", "two.prof", "apart.match", cwd=workdir)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: ValueError: pair (0, 2) is not mutually acceptable\n"


def test_verify_rejects_foreign_agents(workdir):
    (workdir / "alien.match").write_text("pair 0 9\n")
    result = run("verify", "example1.prof", "alien.match", cwd=workdir)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ValueError:")


# ---------------------------------------------------------------------------
# reduce / verify-reduction
# ---------------------------------------------------------------------------

def test_reduce_is2sr_writes_three_sidecars(workdir):
    result = run("reduce", "is2sr", "k2.graph", "-k", "1", "--output", "red", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == "wrote red.prof\nwrote red.order\nwrote red.roles\n"
    profile = parse_profile((workdir / "red.prof").read_text())
    witness = parse_order((workdir / "red.order").read_text())
    roles = parse_roles((workdir / "red.roles").read_text())
    assert profile.n_agents == 30 and len(roles) == 30
    assert is_narcissistic(profile)
    assert is_single_peaked_wrt(profile, witness).ok


def test_reduce_is2sr_requires_k(workdir):
    result = run("reduce", "is2sr", "k2.graph", "--output", "red", cwd=workdir)
    assert result.returncode == 2
    assert result.stderr == "error: ValueError: reduce is2sr needs -k\n"


def test_reduce_betweenness_variants(workdir):
    (workdir / "btw.btw").write_text("universe 3\ntriple 0 1 2\n")
    sp = run("reduce", "btw2sp", "btw.btw", "--output", "sp", cwd=workdir)
    assert sp.stdout == "wrote sp.prof\nwrote sp.roles\n"
    assert parse_profile((workdir / "sp.prof").read_text()).n_agents == 5
    sc = run("reduce", "btw2sc", "btw.btw", "--output", "sc", cwd=workdir)
    assert sc.stdout == "wrote sc.prof\nwrote sc.roles\n"
    assert parse_profile((workdir / "sc.prof").read_text()).n_agents == 6


def test_verify_reduction_passes_both_ways(workdir):
    positive = run("verify-reduction", "k2.graph", "-k", "1", cwd=workdir)
    assert positive.returncode == 0
    assert positive.stdout == (
        "independent-set: yes\nstable-matching: yes\nextracted: 0\nPASS\n"
    )
    negative = run("verify-reduction", "k2.graph", "-k", "2", cwd=workdir)
    assert negative.returncode == 0
    assert negative.stdout == "independent-set: no\nstable-matching: no\nPASS\n"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_sp_profile_is_reproducible(workdir):
    first = run("gen", "sp-profile", "--n", "8", "--ties", "--seed", "5", cwd=workdir)
    second = run("gen", "sp-profile", "--n", "8", "--ties", "--seed", "5", cwd=workdir)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "# axis: " in first.stdout
    profile = parse_profile(first.stdout)  # the axis line is a comment
    axis = [int(t) for t in first.stdout.rsplit("# axis: ", 1)[1].split()]
    assert is_single_peaked_wrt(profile, axis).ok


def test_gen_sp_profile_rejects_odd_sizes(workdir):
    result = run("gen", "sp-profile", "--n", "7", cwd=workdir)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ValueError:")


def test_gen_graph_writes_a_parseable_file(workdir):
    first = run("gen", "graph", "--n", "6", "--seed", "9", "--output", "g.graph", cwd=workdir)
    assert first.returncode == 0 and first.stdout == "wrote g.graph\n"
    text = (workdir / "g.graph").read_text()
    run("gen", "graph", "--n", "6", "--seed", "9", "--output", "g.graph", cwd=workdir)
    assert (workdir / "g.graph").read_text() == text


# ---------------------------------------------------------------------------
# budgets and errors
# ---------------------------------------------------------------------------

def test_budget_env_variable_caps_the_search(workdir):
    big = run("gen", "sp-profile", "--n", "10", "--seed", "1", "--output", "big.prof", cwd=workdir)
    assert big.returncode == 0
    result = run("enumerate", "big.prof", cwd=workdir, env={"SR_SEARCH_BUDGET": "3"})
    assert result.returncode == 2
    assert result.stderr.startswith("error: BudgetExceeded:")


def _write_tied_sp(tmp_path, n, seed, swap=None, omit_self=False):
    """A tied SP profile and its axis, optionally swapped at ``swap``, ``swap+1``."""
    profile, axis = gen_narcissistic_sp(GeneratorConfig(n, True, 0.5, seed))
    if omit_self:
        profile = Profile({i: o.without({i}) for i, o in profile.orders.items()})
    seq = list(axis.sequence)
    if swap is not None:
        seq[swap], seq[swap + 1] = seq[swap + 1], seq[swap]
    (tmp_path / "tied.prof").write_text(serialize_profile(profile))
    (tmp_path / "axis.order").write_text(serialize_order(WitnessOrder(seq)))
    return ("check", "tied.prof", "--order", "axis.order")


def test_check_reports_a_crossing_search_over_budget_as_unknown(tmp_path):
    # A tied SP profile whose voters omit themselves, on a swapped axis: the
    # exact tie search decides it.
    argv = _write_tied_sp(tmp_path, 28, 2, swap=14, omit_self=True)
    capped = run(*argv, cwd=tmp_path, env={"SR_SEARCH_BUDGET": "1"})
    answered = run(*argv, cwd=tmp_path)
    assert capped.returncode == answered.returncode == 0
    assert capped.stdout == answered.stdout.replace(
        "single-crossing: no\n", "single-crossing: unknown\n"
    )
    assert capped.stdout != answered.stdout
    assert capped.stderr == "note: search exceeded its budget of 1 nodes\n"
    assert answered.stderr == ""


def test_check_answers_tied_crossing_without_a_budget_when_voters_rank_all(tmp_path):
    # The same profile with its self-entries kept needs no search at all.
    argv = _write_tied_sp(tmp_path, 28, 2, swap=14)
    capped = run(*argv, cwd=tmp_path, env={"SR_SEARCH_BUDGET": "0"})
    assert capped.returncode == 0
    assert capped.stdout == run(*argv, cwd=tmp_path).stdout
    assert "single-crossing: no\n" in capped.stdout
    assert capped.stderr == ""


@pytest.mark.parametrize("n", [60, 200])
@pytest.mark.parametrize("axis, answer", [("true", "yes"), ("swapped", "no")])
def test_check_decides_large_tied_crossing_questions(tmp_path, n, axis, answer):
    argv = _write_tied_sp(tmp_path, n, 3, swap=n // 2 if axis == "swapped" else None)
    result = run(*argv, cwd=tmp_path)
    assert result.returncode == 0
    assert f"single-crossing: {answer}\n" in result.stdout
    assert result.stderr == ""


def test_budget_flag_outranks_the_environment(workdir):
    result = run(
        "enumerate", "example1.prof", "--budget", "100000",
        cwd=workdir, env={"SR_SEARCH_BUDGET": "3"},
    )
    assert result.returncode == 0


@pytest.mark.parametrize("argv, env, message", [
    (("check", "fig2b.prof", "--order", "axis.order"), {"SR_SEARCH_BUDGET": "-1"},
     "SR_SEARCH_BUDGET must be a non-negative integer, got '-1'"),
    (("check", "fig2b.prof", "--order", "axis.order"), {"SR_SEARCH_BUDGET": " "},
     "SR_SEARCH_BUDGET must be a non-negative integer, got ' '"),
    (("enumerate", "example1.prof"), {"SR_SEARCH_BUDGET": "many"},
     "SR_SEARCH_BUDGET must be a non-negative integer, got 'many'"),
    (("solve", "--algorithm", "brute", "example1.prof", "--budget", "-1"), {},
     "--budget must be a non-negative integer, got -1"),
    (("enumerate", "example1.prof", "--budget", "-5"), {"SR_SEARCH_BUDGET": "100"},
     "--budget must be a non-negative integer, got -5"),
])
def test_negative_or_malformed_budgets_are_one_line_errors(workdir, argv, env, message):
    result = run(*argv, cwd=workdir, env=env)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: ValueError: {message}\n"


def test_a_zero_budget_is_a_budget(workdir):
    flag = run("enumerate", "example1.prof", "--budget", "0", cwd=workdir)
    assert flag.returncode == 2
    assert flag.stderr == "error: BudgetExceeded: search exceeded its budget of 0 nodes\n"
    check = run("check", "fig2b.prof", "--order", "axis.order", cwd=workdir,
                env={"SR_SEARCH_BUDGET": "0"})
    assert check.returncode == 0
    assert check.stdout == run("check", "fig2b.prof", "--order", "axis.order",
                               cwd=workdir).stdout


def test_missing_file_is_a_plain_error(workdir):
    result = run("check", "nowhere.prof", cwd=workdir)
    assert result.returncode == 2
    assert result.stderr.startswith("error: FileNotFoundError:")


def test_unexpected_exceptions_exit_two_with_one_line(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("kaboom")

    monkeypatch.setattr(cli, "_cmd_check", boom)
    assert cli.main(["check", "any.prof"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InternalError: RuntimeError: kaboom\n"


def test_brute_solve_on_a_long_path_never_exits_one(tmp_path):
    # pref i: i | i+1 | i-1 obviously has a stable matching, and the search
    # goes 1,200 decisions deep on it: that must not crash.
    text = path_profile_text(2400)
    (tmp_path / "path.prof").write_text(text)
    result = run("solve", "--algorithm", "brute", "path.prof", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    matching = parse_matching(result.stdout)
    assert find_blocking_pairs(parse_profile(text), matching) == []


# ---------------------------------------------------------------------------
# Start-up: the modules each command loads
# ---------------------------------------------------------------------------

# Runs ``cli.main`` on the arguments, then prints its exit code and the
# package modules loaded, as the last line of stderr.
LOADED_AFTER_MAIN = """\
import sys
from roommates import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("roommates."))
print(code, *loaded, file=sys.stderr)
"""

SOLVERS_AND_REDUCTIONS = {"stability", "greedy", "instances", "reduction", "coloring"}


def run_code(code: str, *argv: str, cwd: Path):
    """``python -c code argv...`` in a fresh interpreter on the in-tree package."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def loaded_after_main(*argv: str, cwd: Path) -> tuple[int, set[str]]:
    result = run_code(LOADED_AFTER_MAIN, *argv, cwd=cwd)
    code, *loaded = result.stderr.splitlines()[-1].split()
    return int(code), set(loaded)


def test_help_loads_no_check_solver_or_reduction(workdir):
    code, loaded = loaded_after_main("--help", cwd=workdir)
    assert code == 0
    assert loaded & (SOLVERS_AND_REDUCTIONS | {"structure"}) == set()


def test_check_loads_no_solver_or_reduction(workdir):
    code, loaded = loaded_after_main(
        "check", "fig2b.prof", "--order", "axis.order", cwd=workdir
    )
    assert code == 0
    assert "structure" in loaded
    assert loaded & SOLVERS_AND_REDUCTIONS == set()


def test_solve_and_verify_load_no_check_generator_or_reduction(workdir):
    (workdir / "example1.match").write_text("pair 0 1\npair 2 3\n")
    for argv in (("solve", "example1.prof"), ("verify", "example1.prof", "example1.match")):
        code, loaded = loaded_after_main(*argv, cwd=workdir)
        assert code == 0, argv
        assert "stability" in loaded
        assert loaded & {"structure", "reduction", "coloring", "instances"} == set(), argv


# Runs ``cli.main`` on the arguments, then prints its exit code and which of
# ``dataclasses`` and ``inspect`` it loaded, as the last line of stderr.  Only modules
# new since before the package import count, so a module that the
# interpreter's start-up loads on some machine cannot make this flaky.
NEWLY_LOADED = """\
import sys
before = set(sys.modules)
from roommates import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)),
      file=sys.stderr)
"""


def test_no_command_loads_dataclasses_or_inspect(workdir):
    (workdir / "example1.match").write_text("pair 0 1\npair 2 3\n")
    (workdir / "path.graph").write_text("vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\n")
    commands = [
        ("--help",),
        ("check", "fig2b.prof", "--order", "axis.order"),
        ("solve", "example1.prof"),
        ("solve", "--algorithm", "brute", "example1.prof"),
        ("enumerate", "example1.prof"),
        ("verify", "example1.prof", "example1.match"),
        ("gen", "sp-profile", "--n", "6", "--ties", "--seed", "2"),
        ("reduce", "is2sr", "path.graph", "-k", "2", "--output", "red"),
    ]
    for argv in commands:
        result = run_code(NEWLY_LOADED, *argv, cwd=workdir)
        assert result.stderr.splitlines()[-1] == "0", (argv, result.stderr)
    assert (workdir / "red.prof").exists()


def test_a_wrapper_set_before_first_use_is_the_one_called(workdir):
    # The handlers look names up on the module, so a replacement bound
    # before the lazy import ever ran still wins.
    code = (
        "import sys\n"
        "from roommates import cli\n"
        "calls = []\n"
        "cli.greedy_solve = lambda profile: calls.append(profile) or ('stub', 'stub')\n"
        "cli.main(['solve', 'example1.prof'])\n"
        "print(len(calls), 'roommates.greedy' in sys.modules)\n"
    )
    result = run_code(code, cwd=workdir)
    # The stub's matching is not one, so the command fails after the call.
    assert result.stderr.startswith("error: InternalError: AttributeError:")
    assert result.stdout == "1 False\n"


def test_unknown_cli_attributes_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


# ---------------------------------------------------------------------------
# Benchmark replay contract
# ---------------------------------------------------------------------------

def _load_replay():
    """``bench/replay.py``, which wraps the package functions the CLI calls."""
    path = Path(__file__).resolve().parent.parent / "bench" / "replay.py"
    spec = importlib.util.spec_from_file_location("bench_replay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_wraps_names_the_cli_and_its_modules_have():
    replay = _load_replay()
    for name in replay.CLI_NAMES:
        assert callable(getattr(cli, name, None)), name
    for module, names in replay.MODULE_NAMES.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)


def test_property_report_looks_up_the_wrapped_checks_at_call_time(monkeypatch):
    names = _load_replay().MODULE_NAMES[structure]
    called = set()
    for name in names:
        def spy(*args, _name=name, _real=getattr(structure, name), **kwargs):
            called.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(structure, name, spy)
    structure.property_report(fixture("fig2b"), parse_order("order 0 1 2 3\n"))
    assert called == set(names)


def test_traced_commands_record_their_layers(monkeypatch, workdir, capsys):
    replay = _load_replay()
    for module, names in ((cli, replay.CLI_NAMES), *replay.MODULE_NAMES.items()):
        for name in names:
            # Re-set each name through monkeypatch so the wrappers come off
            # after the test.
            monkeypatch.setattr(module, name, getattr(module, name))
    tracer = replay.Tracer("op", mem=False)
    tracer.install()
    assert cli.main(["solve", "--trace", str(workdir / "example1.prof")]) == 0
    assert cli.main(["check", str(workdir / "fig2b.prof"),
                     "--order", str(workdir / "axis.order")]) == 0
    capsys.readouterr()
    assert {span["name"] for span in tracer.spans} >= {
        "formats.parse_profile", "formats.parse_order", "greedy.greedy_solve",
        "structure.is_single_peaked_wrt", "structure.is_tssc_wrt",
        "structure.is_sc_wrt", "structure.is_complete",
    }


# ---------------------------------------------------------------------------
# In-process fuzzing
# ---------------------------------------------------------------------------

@st.composite
def cli_inputs(draw):
    """Profile, matching and order texts for one small random profile.

    Each text is valid or carries one edit: a dropped line, a stray token,
    or a pair or order that names an agent outside the profile.
    """
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(0, 7))
    profile = random_profile(rng, n, p_tie=draw(st.sampled_from([0.0, 0.3, 0.7])))
    texts = [
        serialize_profile(profile),
        serialize_matching(random_matching(rng, profile)),
        serialize_order(WitnessOrder(rng.sample(range(n), n))),
    ]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, 2))
        lines = texts[k].splitlines() or [""]
        j = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "token", "pair", "order"]))
        if edit == "drop":
            del lines[j]
        elif edit == "token":
            lines[j] += " " + draw(st.sampled_from(["0", str(n), "|", "x", "-1"]))
        elif edit == "pair":
            lines.append(f"pair {draw(st.integers(0, n))} {draw(st.integers(0, n))}")
        else:
            lines = ["order " + " ".join(map(str, rng.sample(range(n + 1), n)))]
        texts[k] = "\n".join(lines) + "\n"
    return texts


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=cli_inputs())
def test_every_command_answers_or_fails_typed(tmp_path, texts):
    paths = [str(tmp_path / name) for name in ("p.prof", "m.match", "a.order")]
    for path, text in zip(paths, texts):
        Path(path).write_text(text)
    prof, match, order = paths
    for argv in (
        ["check", prof],
        ["check", prof, "--order", order],
        ["solve", prof],
        ["solve", "--algorithm", "brute", "--budget", "2000", prof],
        ["enumerate", "--budget", "2000", prof],
        ["verify", prof, match],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        assert status in (0, 1, 2), argv
        assert "InternalError" not in err.getvalue(), (argv, err.getvalue())
