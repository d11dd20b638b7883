"""Incrementally maintained Pareto frontier over explored design points.

The explorer used to recompute the frontier with an O(n²) all-pairs
dominance scan on every access; this keeps the non-dominated set as points
arrive, so each insertion costs one pass over the current frontier (which
is small — dominance prunes aggressively along a greedy trajectory).

Semantics match the brute-force definition exactly, including its
tie-breaking: of several points with the same ``(ii_cycles, dsp)``
objective the **first** explored one is kept, and a point dominated by any
previously seen point never enters (dominance is transitive, so a point
that later falls off the frontier still justifies the rejections it
caused).  :func:`brute_force_frontier` preserves the original O(n²)
definition as the test oracle.
"""

from __future__ import annotations

from typing import Iterable


def _key(point) -> tuple[int, float]:
    return (point.ii_cycles, point.resources.dsp)


def _dominates(p, q) -> bool:
    """Strict Pareto dominance on (initiation interval, DSP cost)."""
    return (p.ii_cycles <= q.ii_cycles and
            p.resources.dsp <= q.resources.dsp and
            (p.ii_cycles < q.ii_cycles or
             p.resources.dsp < q.resources.dsp))


class ParetoFrontier:
    """The non-dominated subset of the points added so far."""

    __slots__ = ("_points", "_keys")

    def __init__(self, points: Iterable | None = None):
        self._points: list = []
        self._keys: set[tuple[int, float]] = set()
        for point in points or ():
            self.add(point)

    def add(self, point) -> bool:
        """Offer a point; returns True when it joins the frontier."""
        key = _key(point)
        if key in self._keys:
            return False  # duplicate objective: first one wins
        for existing in self._points:
            if _dominates(existing, point):
                return False
        survivors = [q for q in self._points if not _dominates(point, q)]
        if len(survivors) != len(self._points):
            self._keys = {_key(q) for q in survivors}
        self._points = survivors
        self._points.append(point)
        self._keys.add(key)
        return True

    def points(self) -> list:
        """Frontier points sorted by initiation interval."""
        return sorted(self._points, key=_key)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self.points())


def brute_force_frontier(explored: list) -> list:
    """The original O(n²) definition, kept as the oracle the incremental
    frontier is tested against."""
    frontier = [p for p in explored
                if not any(_dominates(q, p) for q in explored)]
    unique: dict[tuple[int, float], object] = {}
    for point in frontier:
        unique.setdefault(_key(point), point)
    return sorted(unique.values(), key=_key)
