"""Hamilton cycles: a random 1-factor joined into one cycle by patching.

hamilton_cycle(D, seed, avoid=X) works on D's own matrix with the
vertices of X masked out, and returns a Hamilton cycle of D - X in D's
labels.  A 1-factor (one chosen out-arc and in-arc per kept vertex) is a
perfect matching of the out-copy/in-copy bipartite graph.  It is grown in
proposal rounds: every unmatched out-copy draws one free in-copy at
random and keeps it if the arc is there, the earliest proposer in a
random order winning a contested in-copy; a round that matches nothing
hands the rest to alternating-path completion.  An accepted proposal is
uniform over u's free out-neighbours, as in the sequential greedy.  A
failed alternating-path search reaches a set of kept vertices violating
Hall's condition, which proves that D - X has no Hamilton cycle.  Karp's
two-arc exchange (SIAM J. Comput. 1979) then merges cycles one vertex at
a time: for a on the smallest cycle and b off it, a -> succ(b) and
b -> succ(a) replace a -> succ(a) and b -> succ(b), taken at the first a,
in random order, that has such a b.  A stalled patching draws a fresh
1-factor; at most 14 kept vertices, once patching stalls on every one,
Held and Karp's subset table (J. SIAM 1962) on the kept rows and columns
of the matrix decides existence exactly.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .digraph import Digraph, check_labels, validate_cycle
from .errors import BadParameter, CycleNotFound
from .ratio import as_count

_EXACT_CAP = 14  # most kept vertices on which a stalled search falls back to a subset table
_ATTEMPTS = 48  # fresh 1-factors before giving up or falling back


def _augment(
    M: np.ndarray, kept: np.ndarray, succ: np.ndarray, pred: np.ndarray, u: int
) -> None:
    """Match out-copy u along a shortest alternating path through kept
    vertices, found by a BFS that expands a whole level at once; raise
    CycleNotFound(exact=True) with the Hall violator when there is none."""
    parent = np.full(len(M), -1, dtype=np.intp)  # in-copy -> out-copy that reached it
    seen = ~kept  # an avoided in-copy is never reached
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


def _one_factor(M: np.ndarray, kept: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """succ with an arc v -> succ[v] for every kept v, and succ a
    permutation of the kept vertices; succ[v] = -1 for every other v."""
    n = len(M)
    succ = np.full(n, -1, dtype=np.intp)
    pred = np.full(n, -1, dtype=np.intp)
    free = kept.copy()
    todo = rng.permutation(np.flatnonzero(kept))  # unmatched out-copies, in proposal order
    while len(todo):
        cand = np.flatnonzero(free)
        v = cand[rng.integers(len(cand), size=len(todo))]
        hit = np.flatnonzero(M[todo, v])
        first = np.full(n, len(todo))  # earliest arc-backed proposal to each in-copy
        np.minimum.at(first, v[hit], hit)
        win = hit[first[v[hit]] == hit]
        if not len(win):
            break
        u, v = todo[win], v[win]
        succ[u], pred[v], free[v] = v, u, False
        todo = todo[succ[todo] < 0]
    for u in todo.tolist():
        _augment(M, kept, succ, pred, u)
    return succ


def _patch(
    M: np.ndarray, kept: np.ndarray, succ: np.ndarray, rng: np.random.Generator
) -> bool:
    """Merge the cycles of succ on the kept vertices in place into one;
    False if stalled."""
    nxt = succ.tolist()
    label = [-1] * len(nxt)  # a kept vertex's cycle, named by its first vertex
    sizes: dict[int, int] = {}
    for s in np.flatnonzero(kept).tolist():
        v, size = s, 0
        while label[v] < 0:
            label[v], v, size = s, nxt[v], size + 1
        if size:
            sizes[s] = size
    label = np.array(label, dtype=np.intp)
    while len(sizes) > 1:
        c = min(sizes, key=sizes.__getitem__)
        outside = kept & (label != c)
        for a in rng.permutation(np.flatnonzero(label == c)).tolist():
            hits = np.flatnonzero(M[a, succ] & M[:, succ[a]] & outside)
            if len(hits):
                break
        else:
            return False
        b = int(hits[rng.integers(len(hits))])
        succ[a], succ[b] = succ[b], succ[a]
        merged = label == label[b]
        sizes[c] += sizes.pop(int(label[b]))
        label[merged] = c
    return True


def _held_karp(A: np.ndarray) -> list[int] | None:
    """A Hamilton cycle of the k x k matrix A through position 0, as
    positions, or None when there is none.  ends[S, v]: a path from 0
    runs through exactly the positions of bitmask S and ends at v.  It
    is filled one subset size at a time: ends[S, v] iff ends[S - v, u]
    and A[u, v] for some u.  For v outside S, S ^ bit v is a larger set,
    not yet filled; for v = 0 it lacks position 0: either way False."""
    k = len(A)
    bits = 1 << np.arange(k)
    subsets = np.arange(1, 1 << k, 2)  # every set holding position 0
    size = np.bitwise_count(subsets)
    ends = np.zeros((1 << k, k), dtype=bool)
    ends[1, 0] = True
    for s in range(2, k + 1):
        S = subsets[size == s]
        ends[S] = (ends[S[:, None] ^ bits] & A.T).any(axis=2)
    S = (1 << k) - 1
    last = np.flatnonzero(ends[S] & A[:, 0])
    if not len(last):
        return None
    path = [int(last[0])]
    while S != 1:
        S ^= 1 << path[-1]
        path.append(int(np.flatnonzero(ends[S] & A[:, path[-1]])[0]))
    return path[::-1]


def _checked(D: Digraph, kept: np.ndarray, C: Sequence[int], how: str) -> tuple[int, ...]:
    """C, after re-verifying that it is a cycle of D through exactly the
    kept vertices."""
    if not (
        len(C) == np.count_nonzero(kept) and validate_cycle(D, C) and kept[list(C)].all()
    ):
        raise AssertionError(f"{how} cycle does not re-verify")
    return tuple(C)


def hamilton_cycle(D: Digraph, seed: int, *, avoid: Iterable[int] = ()) -> tuple[int, ...]:
    """A Hamilton cycle of D - avoid, in D's labels, as a vertex tuple
    starting at the smallest kept vertex (0 when nothing is avoided).

    CycleNotFound carries exact=True only when absence is proven: D -
    avoid has no 1-factor, or it has at most 14 vertices, which the
    subset table always settles.  A Hall violator is named in D's labels.
    A seed that is not an integer raises BadParameter.
    """
    seed = as_count(seed, "seed", least=None)
    gone = set(avoid)
    check_labels(D.n, gone)
    kept = np.ones(D.n, dtype=bool)
    kept[list(gone)] = False
    keep = np.flatnonzero(kept).tolist()
    if len(keep) < 2:
        raise BadParameter("a cycle needs at least 2 vertices")
    M = D.bool_matrix()
    for attempt in range(_ATTEMPTS):
        rng = np.random.default_rng((seed * 48_271 + attempt) & 0xFFFFFFFF)
        succ = _one_factor(M, kept, rng)
        if _patch(M, kept, succ, rng):
            nxt = succ.tolist()
            C = [keep[0]]
            while len(C) < len(keep):
                C.append(nxt[C[-1]])
            return _checked(D, kept, C, "patched")
    if len(keep) <= _EXACT_CAP:
        got = _held_karp(M[np.ix_(keep, keep)])
        if got is not None:
            return _checked(D, kept, [keep[i] for i in got], "searched")
        raise CycleNotFound("no Hamilton cycle exists", exact=True)
    raise CycleNotFound(
        f"no Hamilton cycle found: patching stalled on {_ATTEMPTS} 1-factors"
    )


def cut_cycle_segments(
    C: Sequence[int], sizes: Sequence[int], seed: int = 0
) -> list[tuple[int, ...]]:
    """Cut consecutive disjoint subpaths of the given vertex counts from
    the cycle, starting at a seed-chosen offset.  A C of fewer than 2
    vertices raises BadParameter."""
    C = tuple(C)
    sizes = [as_count(s, "every segment size") for s in sizes]
    seed = as_count(seed, "seed", least=None)
    if len(C) < 2:
        raise BadParameter("a cycle needs at least 2 vertices")
    if sum(sizes) > len(C):
        raise BadParameter(
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
