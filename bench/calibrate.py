"""A fixed pure-Python job that gauges how fast this machine runs right now.

The benchmark runs it as a child process just before every timed operation
and every set-up, and reports each one's time as a ratio to it.  On a
shared machine the speed of a core swings by about 20% from one few-second
stretch to the next, and the time of a job run just before an operation
follows those swings; a median over the whole run follows them less.  The
job imports nothing from the package, so no change to the package can move
it.  Its work resembles the package's parse: it splits and converts
profile text, then builds tie groups and rank tables, 62,500 entries.
"""

N = 250

text = "\n".join(
    f"pref {i}: " + " | ".join(str((i * 7 + d) % N) for d in range(N)) for i in range(N)
)
orders = {}
for line in text.splitlines():
    head, tail = line.split(":", 1)
    orders[int(head.split()[1])] = tuple(frozenset([int(t)]) for t in tail.split("|"))
ranks = {i: {m: r for r, group in enumerate(groups) for m in group}
         for i, groups in orders.items()}
if len(ranks) != N:
    raise SystemExit("calibration job went wrong")
