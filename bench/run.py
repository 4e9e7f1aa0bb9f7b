"""Benchmark of the ``roommates`` command line, end to end and layer by layer.

    python3 bench/run.py --workload sp_solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/roommates`` and
``tests/oracles.py`` present).  One client drives one child process at a
time: a closed loop that repeats the workload's cycle of operations until
``--seconds`` have passed.  Every input comes from ``--seed``.  Each
operation's wall time is measured here, and its peak RSS and CPU time come
from ``os.wait4`` on that child.  Outputs are checked after the timed phase,
against ``tests/oracles.py`` and facts known by construction.

On a shared machine the speed of a core swings by 20% from one few-second
stretch to the next and drifts by tens of percent over an hour, more than
any regression bound.  So a fixed job that imports nothing from the
package (``calibrate.py``) runs just before every operation and every
set-up, and the bounded timings are medians of each one's ratio to the
calibration run before it.  ``setup_s`` is that ratio times
``CALIB_REFERENCE_S``: seconds at the speed the machine had when the
benchmark was defined.  The report gives raw seconds too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports its per-layer metrics instead.  It does one pass over
the inputs of every workload, so that no layer reads a constant zero.  It
runs each operation's command through ``replay.py``, which wraps the
package functions the CLI calls in spans and then calls the CLI's own
``main``, and it checks that output like a timed run's.  It takes the
first is2sr_search graph of each size, and runs those operations untraced
too; the difference is the tracing overhead.

The report goes to stdout, and its last line is one JSON object.  Work
files go under ``.bench_run/`` in the checkout and are removed at exit,
except for the span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
TESTS = ROOT / "tests"

# Set-up repeats at least this often and for at least this long, and
# reports the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
# Median calibration job time on the machine where the benchmark was
# defined (2 CPUs, Python 3.11.7); setup_s is set-up time at that speed.
CALIB_REFERENCE_S = 0.16
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("sp_solve", "axis_check", "is2sr_search")


class LayoutError(Exception):
    """The working directory is not a checkout the benchmark can run in."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class OpResult:
    __slots__ = ("op", "cycle", "wall", "calib", "cpu", "rss_mb", "exit", "timed_out",
                 "stdout", "stderr", "digest", "problems")

    def __init__(self, op, cycle):
        self.op, self.cycle = op, cycle
        self.problems: list[str] = []


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the child ended just before the deadline


def run_child(argv: list[str], work: Path, out: Path, err: Path):
    """Run one child to completion: (wall, rusage, exit code, timed out)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, stdout=fo, stderr=fe,
                                env=child_env(), process_group=0)
        killer = threading.Timer(OP_TIMEOUT_S, kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode == -signal.SIGKILL
    return wall, usage, proc.returncode, timed_out


def run_op(op: dict, cycle: int, work: Path, prefix: list[str] | None = None) -> OpResult:
    """Run ``op``'s command; ``prefix`` replaces ``python -m roommates``."""
    res = OpResult(op, cycle)
    out, err = work / "op.stdout", work / "op.stderr"
    argv = [*(prefix or [sys.executable, "-m", "roommates"]), *op["argv"]]
    res.wall, usage, res.exit, res.timed_out = run_child(argv, work, out, err)
    res.cpu = usage.ru_utime + usage.ru_stime
    res.rss_mb = usage.ru_maxrss / 1024
    res.stdout = out.read_text(encoding="utf-8", errors="replace")
    res.stderr = err.read_text(encoding="utf-8", errors="replace")
    digest = hashlib.sha1(res.stdout.encode())
    for name in op.get("outputs", ()):
        digest.update((work / name).read_bytes())
    res.digest = digest.hexdigest()
    if res.timed_out:
        res.problems.append(f"timed out after {OP_TIMEOUT_S} s")
    elif res.exit != op["expect_exit"]:
        res.problems.append(f"exit {res.exit}, expected {op['expect_exit']}")
    if "Traceback" in res.stderr:
        res.problems.append("traceback on stderr")
    return res


def prepare(op: dict, work: Path, last_stdout: dict[str, str]) -> None:
    """Write the matching that verify reads, from the same class's solve."""
    if op["cmd"] == "verify":
        lines = last_stdout[op["class"]].splitlines(keepends=True)
        (work / op["matching"]).write_text(
            "".join(line for line in lines if line.startswith("pair ")),
            encoding="utf-8")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, work: Path) -> tuple[float, list[dict], list[dict]]:
    """Build the inputs in a fresh interpreter; (wall, plan, set-up spans)."""
    argv = [sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(work)]
    work.mkdir(parents=True, exist_ok=True)
    wall, _, code, _ = run_child(argv, work, work / "setup.stdout", work / "setup.stderr")
    if code != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n"
                           + (work / "setup.stderr").read_text(errors="replace"))
    plan = json.loads((work / "plan.json").read_text())
    spans = json.loads((work / "spans.json").read_text())
    return wall, plan, spans


def calibrate(work: Path) -> float:
    """Wall time of the fixed calibration job."""
    argv = [sys.executable, str(HERE / "calibrate.py")]
    wall, _, code, _ = run_child(argv, work, work / "calib.stdout", work / "calib.stderr")
    if code != 0:
        raise RuntimeError("calibration job failed")
    return wall


def warm(work: Path) -> float:
    """Run --help once: compiles the bytecode; returns its wall time."""
    argv = [sys.executable, "-m", "roommates", "--help"]
    wall, _, code, _ = run_child(argv, work, work / "help.stdout", work / "help.stderr")
    if code != 0:
        raise RuntimeError("roommates --help failed:\n"
                           + (work / "help.stderr").read_text(errors="replace"))
    return wall


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_results(results: list[OpResult], work: Path) -> dict:
    """Check each distinct operation once; repeats must print the same bytes."""
    import checks

    first: dict[str, OpResult] = {}
    sc_checked = sc_total = 0
    for res in results:
        op = res.op
        key = " ".join(op["argv"])
        if key in first:
            if res.digest != first[key].digest:
                res.problems.append("output differs from the first run of this input")
            continue
        first[key] = res
        if res.problems:
            continue
        cmd = op["cmd"]
        if cmd == "gen":
            res.problems += checks.check_generated(work, op)
        elif "k" in op:
            res.problems += checks.check_is2sr(work, op, res.stdout, res.stderr)
        elif cmd == "solve":
            res.problems += checks.check_solve_greedy(work, op, res.stdout)
        elif cmd == "verify":
            res.problems += checks.check_verify(op, res.stdout)
        elif cmd == "check":
            problems, oracle_sc = checks.check_axis(work, op, res.stdout)
            res.problems += problems
            sc_total += 1
            sc_checked += oracle_sc
    # A repeat inherits the verdict on the output it reproduced.
    for res in results:
        key = " ".join(res.op["argv"])
        if res is not first[key] and first[key].problems and not res.problems:
            res.problems.append("reproduces an output that failed its check")
    return {"sc_oracle_checked": sc_checked, "sc_verdicts": sc_total}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 11:
        return "tail n/a"
    ordered = sorted(values)
    q = math.floor(100 * (len(ordered) - 10) / len(ordered))
    return f"p{q} {ordered[len(ordered) - 11]:.4f} s"


def kind(op: dict) -> str:
    return f"{op['cmd']}.{op['class']}"


def summarize(results: list[OpResult]) -> list[str]:
    lines = []
    by_cmd: dict[str, list[OpResult]] = {}
    by_kind: dict[str, list[OpResult]] = {}
    for res in results:
        by_cmd.setdefault(res.op["cmd"], []).append(res)
        by_kind.setdefault(kind(res.op), []).append(res)
    for cmd, rs in by_cmd.items():
        walls = [r.wall for r in rs]
        lines.append(f"{cmd}_p50_s  {statistics.median(walls):.4f} s  "
                     f"{tail(walls)}  n={len(walls)}")
    for k, rs in by_kind.items():
        walls = [r.wall for r in rs]
        lines.append(f"  {k:<22} p50 {statistics.median(walls):.4f} s  {tail(walls)}  "
                     f"n={len(walls)}  cpu_p50 {statistics.median(r.cpu for r in rs):.4f} s  "
                     f"rss_max {max(r.rss_mb for r in rs):.1f} MB")
    return lines


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def op_statistics(results: list[OpResult], value) -> tuple[float, float]:
    """(typical operation, one cycle) of ``value(result)``, from per-input medians.

    The typical operation takes geometric means over a kind's inputs, over
    a command's kinds and over the commands, so each command weighs the
    same however many kinds and inputs it runs on.  The last cycle of a
    run may be partial, so the cycle is the sum of the per-input medians.
    """
    by_input: dict[tuple[str, str], list[float]] = {}
    for res in results:
        by_input.setdefault((kind(res.op), " ".join(res.op["argv"])), []).append(value(res))
    by_kind: dict[str, list[float]] = {}
    for (k, _), values in by_input.items():
        by_kind.setdefault(k, []).append(statistics.median(values))
    by_cmd: dict[str, list[float]] = {}
    for k, medians in by_kind.items():
        by_cmd.setdefault(k.split(".")[0], []).append(geomean(medians))
    typical = geomean(geomean(values) for values in by_cmd.values())
    return typical, sum(statistics.median(v) for v in by_input.values())


# ---------------------------------------------------------------------------
# Timed run (--trace 0)
# ---------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, base: Path):
    work = base / "work"
    # Each set-up is paired with a calibration run just before it.
    setup_walls, setup_ratios = [], []
    while len(setup_walls) < SETUP_REPEATS or sum(setup_walls) < SETUP_MIN_S:
        calib = calibrate(base)
        shutil.rmtree(work, ignore_errors=True)
        wall, plan, _ = setup(workload, seed, work)
        setup_walls.append(wall)
        setup_ratios.append(wall / calib)
    warm(work)

    results: list[OpResult] = []
    last_stdout: dict[str, str] = {}
    start = time.perf_counter()
    # Whole first cycle, so every input has a sample; then op by op until
    # the time is up.
    for i in itertools.count():
        cycle, index = divmod(i, len(plan))
        if cycle and time.perf_counter() - start >= seconds:
            break
        op = plan[index]
        prepare(op, work, last_stdout)
        calib = calibrate(work)
        res = run_op(op, cycle, work)
        res.calib = calib
        last_stdout[op["class"]] = res.stdout
        results.append(res)
    elapsed = time.perf_counter() - start

    extra = check_results(results, work)
    failed = [r for r in results if r.problems]
    op_p50, cycle_s = op_statistics(results, lambda r: r.wall)
    op_rel, cycle_rel = op_statistics(results, lambda r: r.wall / r.calib)
    calib = statistics.median(r.calib for r in results)
    metrics = {
        "setup_s": statistics.median(setup_ratios) * CALIB_REFERENCE_S,
        "op_p50_gm_rel": op_rel,
        "ops_per_calib": len(plan) / cycle_rel,
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    report = [f"workload {workload}: {len(results)} operations, cycles of "
              f"{len(plan)}, in {elapsed:.2f} s; set-up p50 "
              f"{statistics.median(setup_walls):.4f} s over {len(setup_walls)} runs",
              f"op_p50_gm_s {op_p50:.4f} s (per-input medians, geometric means over "
              f"inputs, kinds and commands); ops_per_s {len(plan) / cycle_s:.4f} 1/s "
              f"(a cycle at per-input medians), "
              f"{len(results) / sum(r.wall for r in results):.4f} 1/s over all "
              f"operations; calibration p50 {calib:.4f} s over {len(results)} "
              f"runs"]
    report += summarize(results)
    if extra["sc_verdicts"]:
        report.append(f"single-crossing verdicts checked by the oracle: "
                      f"{extra['sc_oracle_checked']} of {extra['sc_verdicts']} inputs; "
                      f"the others are 'yes' by construction")
    report += [f"FAILED {kind(r.op)} cycle {r.cycle}: {'; '.join(r.problems)}" for r in failed]
    return metrics, len(results), len(failed), report


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

# The profile checks that need no axis; the CLI calls each once.
ORDER_FREE = ("structure.is_complete", "structure.has_ties",
              "structure.is_narcissistic", "structure.is_worst_restricted")


def replay(op: dict, work: Path, op_id: str, mem: bool = False):
    """Run ``op`` through ``replay.py``: (result, spans)."""
    spans_file = work / f"{op_id}.spans.json"
    prefix = [sys.executable, str(HERE / "replay.py"), op_id, str(spans_file),
              *(["--mem"] if mem else []), "--"]
    res = run_op(op, 0, work, prefix)
    spans = json.loads(spans_file.read_text()) if spans_file.is_file() else []
    return res, spans


def traced_run(seed: int, base: Path):
    import checks

    plans, setup_spans = {}, []
    for name in WORKLOAD_NAMES:
        _, plans[name], spans = setup(name, seed, base / name)
        setup_spans += spans
    warm(base / WORKLOAD_NAMES[0])
    startup = statistics.median(warm(base / WORKLOAD_NAMES[0]) for _ in range(STARTUP_REPEATS))

    results, spans, ops, mem_spans = [], [], {}, {}
    for name, plan in plans.items():
        work = base / name
        last_stdout: dict[str, str] = {}
        done = []
        # The first is2sr graph of each size stands for the others.
        plan = [op for op in plan if op.get("input", 0) == 0]
        for idx, op in enumerate(plan):
            op_id = f"{name}.{idx}.{kind(op)}"
            prepare(op, work, last_stdout)
            # Operations of about a second get an untraced twin, to measure
            # the tracing overhead where it stands out from the noise.
            twin = run_op(op, 0, work) if name == "is2sr_search" else None
            res, op_spans = replay(op, work, op_id)
            last_stdout[op["class"]] = res.stdout
            ops[op_id] = (twin.wall if twin else None, res)
            done += [r for r in (twin, res) if r]
            spans += op_spans
        # tracemalloc slows what it watches, so memory has runs of its own.
        if name == "sp_solve":
            mem_ops = [next(op for op in plan if op["cmd"] == "solve" and op["n"] == 400)]
        elif name == "axis_check":
            mem_ops = list({op["class"]: op for op in reversed(plan)}.values())
        else:
            mem_ops = []
        for op in mem_ops:
            res, mem_spans[op["class"]] = replay(op, work, f"mem.{op['class']}", mem=True)
            done.append(res)
        check_results(done, work)
        results += done

    entries = {}
    for op in plans["sp_solve"]:
        if op["cmd"] == "solve":
            profile = checks.read_profile(base / "sp_solve" / op["profile"])
            entries[op["class"]] = sum(len(g) for order in profile.orders.values()
                                       for g in order.groups)
    failed = [r for r in results if r.problems]
    report = [f"FAILED {kind(r.op)}: {'; '.join(r.problems)}" for r in failed]
    metrics = layer_metrics(startup, spans, setup_spans, ops, entries, mem_spans)
    (ROOT / ".bench_run" / f"trace-seed{seed}.json").write_text(
        json.dumps({"spans": spans + setup_spans,
                    "mem_spans": [s for v in mem_spans.values() for s in v]}),
        encoding="utf-8")
    return metrics, len(results), len(failed), report


def layer_metrics(startup, spans, setup_spans, ops, entries, mem_spans) -> dict[str, float]:
    by_op: dict[str, list[dict]] = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    # (function, class) -> one total per operation, over the calls the CLI
    # makes itself; calls nested in another span are part of that span.
    durations: dict[tuple[str, str], list[float]] = {}
    residual: dict[str, list[float]] = {}
    overhead: list[float] = []
    for op_id, (wall_u, res) in ops.items():
        cls = res.op["class"]
        totals: dict[str, float] = {}
        for s in by_op.get(op_id, []):
            if s["parent"] is None:
                totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
        if res.op["cmd"] == "check":
            totals["structure.order_free"] = sum(totals.pop(n, 0.0) for n in ORDER_FREE)
        for name, value in totals.items():
            durations.setdefault((name, cls), []).append(value)
        # Start-up, spans and the rest are all measured on the CLI itself.
        residual.setdefault(cls, []).append(res.wall - startup - sum(totals.values()))
        if wall_u is not None:
            overhead.append(res.wall - wall_u)
    for s in setup_spans:
        durations.setdefault((s["name"], s["class"]), []).append(s["end"] - s["start"])

    def med(name, cls):
        return statistics.median(durations[(name, cls)])

    def lines(cmd, cls, prefix=""):
        return next(sum(1 for line in res.stdout.splitlines() if line.startswith(prefix))
                    for _, res in ops.values()
                    if res.op["cmd"] == cmd and res.op["class"] == cls)

    m = {"cli.startup_s": startup, "trace.overhead_s": statistics.median(overhead)}
    for cls, values in residual.items():
        m[f"cli.residual_s.{cls}"] = statistics.median(values)
    for (name, cls) in durations:
        m[f"{name}_s.{cls}"] = med(name, cls)
    for n in (400, 800):
        m[f"formats.parse_profile_entries_per_s.n{n}"] = (
            entries[f"n{n}"] / med("formats.parse_profile", f"n{n}"))
        m[f"greedy.rounds.n{n}"] = lines("solve", f"n{n}", "# matched ")
    m["formats.parse_profile_slope"] = (
        math.log(med("formats.parse_profile", "n800") / med("formats.parse_profile", "n400"))
        / math.log(2))
    for cls in ("n9_yes", "n10_yes"):
        m[f"stability.matchings_found.{cls}"] = lines("enumerate", cls)
    parse = next(s for s in mem_spans["n400"] if s["name"] == "formats.parse_profile")
    m["model.bytes_per_entry"] = parse["live"] / entries["n400"]
    for cls in ("true_axis", "swap_strict", "swap_tied"):
        m[f"structure.peak_traced_mb.{cls}"] = max(
            s["peak"] for s in mem_spans[cls]
            if s["parent"] is None and s["name"].startswith("structure.")) / 2**20
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_contract() -> dict:
    missing = [p for p in (SRC / "roommates" / "cli.py", TESTS / "oracles.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        raise LayoutError("run from the root of a source checkout; missing: "
                          + ", ".join(str(p) for p in missing))
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    import spec

    base = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, report = traced_run(args.seed, base)
            wanted = contract["per_layer"]
        else:
            metrics, attempted, failed, report = timed_run(
                args.workload, args.seed, args.seconds, base)
            wanted = contract["end_to_end"]
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for key, text in spec.WORKLOADS[args.workload].items():
        print(f"# {args.workload} {key}: {text}")
    for text in spec.KNOWN_DEFECTS:
        print(f"# known defect: {text}")
    for line in report:
        print(line)
    missing = sorted({m["name"] for m in wanted} - set(metrics))
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        target = next((t for p, t in spec.LAYER_TARGETS.items()
                       if m["name"].startswith(p)), "")
        print(f"{m['name']:<52} {metrics[m['name']]:>14.6g} {m['unit']:<6} {target}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
