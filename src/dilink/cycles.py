"""Hamilton cycles: a random 1-factor joined into one cycle by patching.

A 1-factor (one chosen out-arc and in-arc per vertex) is a perfect
matching of the out-copy/in-copy bipartite graph: greedy in random order,
then completed along alternating paths.  A failed alternating-path search
reaches a set violating Hall's condition, which proves that no Hamilton
cycle exists.  Karp's two-arc exchange (SIAM J. Comput. 1979) then merges
cycles: for a on the smallest cycle and b off it, a -> succ(b) and
b -> succ(a) replace a -> succ(a) and b -> succ(b).  A stalled patching
draws a fresh 1-factor; at n <= 14 a complete search settles existence.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .digraph import Digraph, validate_cycle
from .errors import BadParameter, CycleNotFound, SizesExceedCycle
from .ratio import as_count

_EXACT_CAP = 14  # largest n on which a stalled search falls back to backtracking
_ATTEMPTS = 48  # fresh 1-factors before giving up or falling back
_EXACT_BUDGET = 2_000_000  # search nodes _exact_cycle_search may visit


class _BudgetExceeded(Exception):
    pass


def _augment(M: np.ndarray, succ: np.ndarray, pred: np.ndarray, u: int) -> None:
    """Match out-copy u along a shortest alternating path, found by a BFS
    that expands a whole level at once; raise CycleNotFound(exact=True)
    with the Hall violator when there is none."""
    parent = np.full(len(M), -1, dtype=np.intp)  # in-copy -> out-copy that reached it
    seen = np.zeros(len(M), dtype=bool)
    frontier = np.array([u], dtype=np.intp)
    reached = 1
    while len(frontier):
        hits = M[frontier] & ~seen
        new = np.flatnonzero(hits.any(axis=0))
        parent[new] = frontier[hits[:, new].argmax(axis=0)]
        seen[new] = True
        open_ = new[pred[new] < 0]
        if len(open_):
            v = int(open_[0])
            while v >= 0:
                a = int(parent[v])
                nxt = int(succ[a])
                succ[a], pred[v] = v, a
                v = nxt
            return
        frontier = pred[new]
        reached += len(new)
    raise CycleNotFound(
        f"no 1-factor: the vertices S reached from vertex {u} by alternating "
        f"paths have |S| = {reached} > |N+(S)| = {reached - 1}",
        exact=True,
    )


def _one_factor(M: np.ndarray, rng: random.Random) -> np.ndarray:
    """succ with an arc v -> succ[v] for every v and succ a permutation."""
    n = len(M)
    succ = np.full(n, -1, dtype=np.intp)
    pred = np.full(n, -1, dtype=np.intp)
    free = np.ones(n, dtype=bool)
    for u in rng.sample(range(n), n):
        cand = (M[u] & free).nonzero()[0]
        if len(cand):
            v = int(cand[rng.randrange(len(cand))])
            succ[u], pred[v], free[v] = v, u, False
    for u in np.flatnonzero(succ < 0).tolist():
        _augment(M, succ, pred, u)
    return succ


def _patch(M: np.ndarray, succ: np.ndarray, rng: random.Random) -> bool:
    """Merge the cycles of succ in place into one; False if stalled."""
    nxt, label = succ.tolist(), np.full(len(succ), -1, dtype=np.intp)
    for s in range(len(nxt)):  # label a cycle by its smallest vertex
        v = s
        while label[v] < 0:
            label[v], v = s, nxt[v]
    while True:
        sizes = np.bincount(label, minlength=len(label))
        if np.count_nonzero(sizes) == 1:
            return True
        c = int(np.where(sizes > 0, sizes, len(label) + 1).argmin())
        A = np.flatnonzero(label == c)
        ok = M[A][:, succ] & M[:, succ[A]].T & (label != c)
        hits = np.flatnonzero(ok)
        if not len(hits):
            return False
        i, b = divmod(int(hits[rng.randrange(len(hits))]), len(label))
        a = int(A[i])
        succ[a], succ[b] = succ[b], succ[a]
        label[label == label[b]] = c


def _exact_cycle_search(D: Digraph) -> tuple[int, ...] | None:
    """Complete backtracking search for a Hamilton cycle through 0.
    Raises _BudgetExceeded when the node budget runs out."""
    spent = 0
    path = [0]
    out = [D.out_neighbors(v) for v in D.vertices()]

    def dfs() -> tuple[int, ...] | None:
        nonlocal spent
        spent += 1
        if spent > _EXACT_BUDGET:
            raise _BudgetExceeded
        if len(path) == D.n:
            return tuple(path) if D.has_arc(path[-1], 0) else None
        for w in out[path[-1]]:
            if w not in path:
                path.append(w)
                got = dfs()
                if got is not None:
                    return got
                path.pop()
        return None

    return dfs()


def hamilton_cycle(D: Digraph, seed: int) -> tuple[int, ...]:
    """A Hamilton cycle of D as a vertex tuple starting at 0.

    CycleNotFound carries exact=True only when absence is proven: D has
    no 1-factor, or n <= 14 and the complete search found none.
    """
    n = D.n
    if n < 2:
        raise BadParameter("a cycle needs at least 2 vertices")
    M = D.bool_matrix()
    for attempt in range(_ATTEMPTS):
        rng = random.Random((seed * 48_271 + attempt) & 0xFFFFFFFF)
        succ = _one_factor(M, rng)
        if _patch(M, succ, rng):
            nxt = succ.tolist()
            C = [0]
            while len(C) < n:
                C.append(nxt[C[-1]])
            if not validate_cycle(D, C):
                raise AssertionError("patched cycle does not re-verify")
            return tuple(C)
    if n <= _EXACT_CAP:
        try:
            got = _exact_cycle_search(D)
        except _BudgetExceeded:
            raise CycleNotFound("no Hamilton cycle found (search truncated)") from None
        if got is not None:
            if not validate_cycle(D, got):
                raise AssertionError("searched cycle does not re-verify")
            return got
        raise CycleNotFound("no Hamilton cycle exists", exact=True)
    raise CycleNotFound(
        f"no Hamilton cycle found: patching stalled on {_ATTEMPTS} 1-factors"
    )


def cut_cycle_segments(
    C: Sequence[int], sizes: Sequence[int], seed: int = 0
) -> list[tuple[int, ...]]:
    """Cut consecutive disjoint subpaths of the given vertex counts from
    the cycle, starting at a seed-chosen offset."""
    C = tuple(C)
    sizes = [as_count(s, "every segment size") for s in sizes]
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
