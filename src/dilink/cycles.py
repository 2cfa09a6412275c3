"""Fixed-length cycle search: a randomized insertion heuristic with an
exhaustive backtracking fallback at small n.

The heuristic seeds a digon or triangle through the required vertex and
repeatedly splices in an outside vertex x between some consecutive pair
a -> b of the current cycle with a -> x -> b, growing the length by one
per step.  On dense digraphs this almost always reaches the target; on
small instances a complete search settles existence either way.
"""

from __future__ import annotations

import random
from typing import Sequence

from .digraph import Digraph, validate_cycle
from .errors import BadParameter, CycleNotFound, LabelOutOfRange, SizesExceedCycle

DEFAULT_EXACT_CAP = 14
_ATTEMPTS = 48  # heuristic restarts before the exact fallback
_EXACT_BUDGET = 2_000_000


class _BudgetExceeded(Exception):
    pass


def _seed_cycle(D: Digraph, v: int, l: int, rng: random.Random) -> list[int] | None:
    """A starter cycle through v: a digon if possible (mandatory when
    l = 2), otherwise a triangle."""
    outs = list(D.out_neighbors(v))
    rng.shuffle(outs)
    for w in outs:
        if D.has_arc(w, v):
            return [v, w]
    if l == 2:
        return None
    for a in outs:
        bs = [b for b in D.out_neighbors(a) if b != v and D.has_arc(b, v)]
        if bs:
            return [v, a, rng.choice(bs)]
    return None


def _grow_by_insertion(
    D: Digraph, cycle: list[int], l: int, rng: random.Random
) -> list[int] | None:
    """Splice outside vertices into the cycle until it has length l."""
    inside = set(cycle)
    while len(cycle) < l:
        outside = [x for x in range(D.n) if x not in inside]
        rng.shuffle(outside)
        placed = False
        for x in outside:
            spots = list(range(len(cycle)))
            rng.shuffle(spots)
            for i in spots:
                a = cycle[i]
                b = cycle[(i + 1) % len(cycle)]
                if D.has_arc(a, x) and D.has_arc(x, b):
                    cycle.insert(i + 1, x)
                    inside.add(x)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            return None
    return cycle


def _exact_cycle_search(
    D: Digraph, v: int, l: int, budget: int = _EXACT_BUDGET
) -> tuple[int, ...] | None:
    """Complete backtracking search for a length-l cycle through v.
    Raises _BudgetExceeded when the node budget runs out."""
    spent = 0
    path = [v]
    onpath = {v}

    def dfs() -> tuple[int, ...] | None:
        nonlocal spent
        spent += 1
        if spent > budget:
            raise _BudgetExceeded
        tip = path[-1]
        if len(path) == l:
            return tuple(path) if D.has_arc(tip, v) else None
        for w in D.out_neighbors(tip):
            if w in onpath:
                continue
            path.append(w)
            onpath.add(w)
            got = dfs()
            if got is not None:
                return got
            path.pop()
            onpath.remove(w)
        return None

    return dfs()


def cycle_through_vertex(
    D: Digraph,
    v: int,
    l: int,
    seed: int,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> tuple[int, ...]:
    """A cycle of length exactly l through v, as a vertex tuple starting
    at v.

    Heuristic-first with restarts; when the digraph is small enough
    (n <= exact_cap) a failed heuristic falls back to a complete search,
    so the resulting CycleNotFound carries exact=True only if absence
    was actually proven.
    """
    n = D.n
    if not 0 <= v < n:
        raise LabelOutOfRange(f"vertex {v} out of range for n={n}")
    if not 2 <= l <= n:
        raise BadParameter(f"cycle length must lie in [2, {n}], got {l}")
    for attempt in range(_ATTEMPTS):
        rng = random.Random((seed * 48_271 + attempt) & 0xFFFFFFFF)
        start = _seed_cycle(D, v, l, rng)
        if start is None:
            break  # no digon/triangle through v; restarts cannot help
        if len(start) > l:
            continue
        grown = _grow_by_insertion(D, start, l, rng)
        if grown is not None:
            assert validate_cycle(D, grown)
            return tuple(grown)
    if n <= exact_cap:
        try:
            got = _exact_cycle_search(D, v, l)
        except _BudgetExceeded:
            raise CycleNotFound(
                f"no length-{l} cycle through {v} found (search truncated)",
                exact=False,
            ) from None
        if got is not None:
            assert validate_cycle(D, got)
            return got
        raise CycleNotFound(
            f"no cycle of length {l} through vertex {v} exists", exact=True
        )
    raise CycleNotFound(
        f"no length-{l} cycle through {v} found within {_ATTEMPTS} attempts",
        exact=False,
    )


def hamilton_cycle(D: Digraph, seed: int) -> tuple[int, ...]:
    """A Hamilton cycle of D (length n through vertex 0)."""
    if D.n < 2:
        raise BadParameter("a cycle needs at least 2 vertices")
    return cycle_through_vertex(D, 0, D.n, seed)


def cut_cycle_segments(
    C: Sequence[int], sizes: Sequence[int], seed: int = 0
) -> list[tuple[int, ...]]:
    """Cut consecutive disjoint subpaths of the given vertex counts from
    the cycle, starting at a seed-chosen offset."""
    C = tuple(C)
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise BadParameter("every segment size must be >= 1")
    if sum(sizes) > len(C):
        raise SizesExceedCycle(
            f"segment sizes sum to {sum(sizes)} on a cycle of {len(C)} vertices"
        )
    offset = random.Random(seed).randrange(len(C))
    out: list[tuple[int, ...]] = []
    at = offset
    for s in sizes:
        seg = tuple(C[(at + j) % len(C)] for j in range(s))
        out.append(seg)
        at += s
    return out
