"""The backtracking driver shared by every exhaustive search, and its budget.

The stable-matching search in :mod:`roommates.stability` and the axis and
tie-resolution searches in :mod:`roommates.structure` all run here, so
neither module needs the other to search.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import inf

from .errors import BudgetExceeded

DEFAULT_SEARCH_BUDGET = 10_000_000


def depth_first(root: Iterator, budget: float = inf) -> bool:
    """Run a backtracking search on an explicit stack; True if a frame said so.

    Frames are generators.  A frame yields a child frame to descend into it
    and True to end the whole search; the code after a ``yield`` undoes that
    branch once the child is exhausted.  Children count as search nodes, and
    passing ``budget`` of them raises BudgetExceeded.
    """
    stack = [root]
    nodes = 0
    while stack:
        # One step of the top frame: it descends, stops, or is exhausted.
        for child in stack[-1]:
            if child is True:
                return True
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(budget)
            stack.append(child)
            break
        else:
            stack.pop()
    return False
