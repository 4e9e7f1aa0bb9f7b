"""Run one ``roommates`` command with spans around the package functions
that ``roommates.cli`` calls.

    python3 bench/replay.py <op_id> <spans.json> [--mem] -- <roommates argv...>

The functions are wrapped where the CLI looks them up: the names that
``roommates.cli`` imports, plus the ``formats`` and ``structure`` module
attributes that the CLI and ``property_report`` read at call time.  Then
``roommates.cli.main`` runs with the command's own arguments, so it reads
its files and prints to this process's stdout as ``roommates`` does, and
the process exits with the command's code.  Each span records its name,
start, end, parent index and operation id.  Spans stay in memory and are
written to ``<spans.json>`` after the command returns.

With ``--mem``, tracemalloc watches the whole command, which slows
everything it watches, so these runs are kept apart from the timed ones.
Each span then also records ``live`` (traced bytes after the call minus
before) and ``peak`` (the call's peak traced bytes above the level before).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

from roommates import cli, formats, structure

CLI_NAMES = ("gen_narcissistic_sp", "greedy_solve", "exists_stable_matching",
             "enumerate_stable_matchings", "check_matching", "find_blocking_pairs",
             "is_worst_restricted")
MODULE_NAMES = {
    formats: ("parse_profile", "parse_order", "parse_matching", "serialize_profile",
              "serialize_order", "serialize_matching"),
    structure: ("is_single_peaked_wrt", "is_tssc_wrt", "is_sc_wrt", "is_complete",
                "has_ties", "is_narcissistic"),
}


class Tracer:
    """Spans of one operation: name, start, end, parent index, operation id."""

    def __init__(self, op_id: str, mem: bool):
        self.op_id, self.mem = op_id, mem
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.spans[self.stack[-1]] if self.stack else None
            record = {"name": name, "start": None, "end": None,
                      "parent": self.stack[-1] if self.stack else None, "op": self.op_id}
            self.spans.append(record)
            self.stack.append(len(self.spans) - 1)
            if self.mem:
                before, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    # reset_peak below would lose the parent's peak so far.
                    parent["peak_abs"] = max(parent["peak_abs"], peak)
                record["peak_abs"] = before
                tracemalloc.reset_peak()
            record["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
                if self.mem:
                    current, peak = tracemalloc.get_traced_memory()
                    peak_abs = record.pop("peak_abs")
                    peak_abs = max(peak_abs, peak)
                    if parent is not None:
                        parent["peak_abs"] = max(parent["peak_abs"], peak_abs)
                    record["live"], record["peak"] = current - before, peak_abs - before

        return traced

    def install(self) -> None:
        for name in CLI_NAMES:
            setattr(cli, name, self.wrap(getattr(cli, name)))
        for module, names in MODULE_NAMES.items():
            for name in names:
                setattr(module, name, self.wrap(getattr(module, name)))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    op_id, spans_path, *flags = argv[:split]
    tracer = Tracer(op_id, "--mem" in flags)
    tracer.install()
    if tracer.mem:
        tracemalloc.start()
    try:
        return cli.main(argv[split + 1:])
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
