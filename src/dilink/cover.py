"""Covering pairs, d-covers, short routes and ladders.

A pair (u, v) covers an ordered pair (x, y) when all four vertices are
distinct and both arcs u->x and y->v exist: any path from x to y can then
be extended to one from u to v.  A set of disjoint pairs K d-covers U if
every ordered pair of distinct vertices of U is covered by at least d
members of K.  Pairs are drawn by pairing each vertex with a random free
out-neighbour read from the adjacency matrix.  `build_d_cover` first
checks the degrees for a proof that no d-cover exists, then draws pairs
one at a time, adds each pair's coverage to a count matrix, and stops at
the shortest prefix that d-covers; `verify_d_cover` checks any pair set
with one matrix product.  `shortest_path_avoiding` is the one router:
ladder connectors and the absorber's threading both route through it,
one path at a time, blocking each path's interior before the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .digraph import Digraph
from .errors import (
    BadParameter,
    CoverConstructionFailed,
    LabelOutOfRange,
    LadderConstructionFailed,
)
from .ladder import Ladder, single_arc_ladder, validate_ladder
from .ratio import Real, as_fraction

Pair = tuple[int, int]

_LADDER_TRIES = 400  # row samples _sample_ladder draws per ladder


@dataclass(frozen=True)
class CoverPairSet:
    """Pairwise-disjoint ordered vertex pairs."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(u), int(v)) for u, v in self.pairs))
        seen: set[int] = set()
        for u, v in self.pairs:
            if u == v or u in seen or v in seen:
                raise BadParameter("cover pairs must be pairwise disjoint")
            seen.add(u)
            seen.add(v)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.pairs for v in p)


def covers(D: Digraph, pair: Pair, target: Pair) -> bool:
    """True iff pair = (u, v) covers target = (x, y)."""
    u, v = pair
    x, y = target
    if len({u, v, x, y}) != 4:
        return False
    return D.has_arc(u, x) and D.has_arc(y, v)


def verify_d_cover(
    D: Digraph, K: CoverPairSet | Sequence[Pair], U: Iterable[int] | None = None, d: int = 1
) -> bool:
    """Check that every ordered pair of distinct vertices of U is covered
    by at least d pairs of K.  A label of U or of K outside 0..n-1 raises
    LabelOutOfRange."""
    pairs = list(K.pairs if isinstance(K, CoverPairSet) else K)
    uset = sorted(range(D.n) if U is None else set(U))
    if d < 0:
        raise BadParameter("d must be nonnegative")
    for v in [*uset[:1], *uset[-1:], *(v for pair in pairs for v in pair)]:
        if not 0 <= v < D.n:  # U is sorted, so its ends suffice
            raise LabelOutOfRange(f"vertex {v} outside 0..{D.n - 1}")
    if len(uset) < 2 or d == 0:
        return True
    A = D.bool_matrix()
    us, vs = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    j = np.arange(len(pairs))
    # float64 lets numpy hand the product to BLAS; every entry is a count
    # of at most m < 2**53 pairs, so each partial sum is exact
    P = A[us, :].astype(np.float64)  # P[j, x] = arc u_j -> x, with x != v_j
    Q = A[:, vs].astype(np.float64)  # Q[y, j] = arc y -> v_j, with y != u_j
    P[j, vs] = Q[us, j] = 0
    idx = np.array(uset, dtype=np.intp)
    sub = Q[idx] @ P[:, idx]  # sub[y, x] = pairs covering (x, y), for x, y in U
    np.fill_diagonal(sub, d)  # ignore x == y
    return bool(sub.min() >= d)


def cover_size_formula(n: int, gamma: Real, d: int) -> int:
    """Number of pairs sufficient for a d-cover of an n-vertex digraph
    with min semidegree gamma*n (natural logarithms), before capping."""
    g = float(as_fraction(gamma))
    if not 0 < g < 1:
        raise BadParameter(f"gamma must lie in (0, 1), got {gamma}")
    if d < 1:
        raise BadParameter("d must be >= 1")
    if n < 1:
        raise BadParameter(f"n must be >= 1, got {n}")
    return math.ceil(24 * g**-2 * (d * math.log(24 * d * g**-2) + 2 * math.log(n)))


def _random_pairs(M: np.ndarray, usable: list[int], seed: int):
    """Disjoint pairs drawn one at a time: the vertices of `usable` in a
    random order, each still free paired with a uniformly random free
    out-neighbour, or with any free vertex when it has none, so a pair is
    an arc (and later admits a single-arc ladder) wherever it can be."""
    rng = random.Random((seed * 7_654_321) & 0xFFFFFFFF)
    free = np.zeros(len(M), dtype=bool)
    free[usable] = True
    for u in rng.sample(usable, len(usable)):
        if not free[u]:
            continue
        free[u] = False
        cand = np.flatnonzero(M[u] & free)
        if not len(cand):
            cand = np.flatnonzero(free)
        if len(cand):  # only the last vertex of an odd count stays single
            v = int(cand[rng.randrange(len(cand))])
            free[v] = False
            yield u, v


def build_d_cover(D: Digraph, d: int, seed: int, *, avoid: Iterable[int] = ()) -> CoverPairSet:
    """The shortest run of random pairs outside `avoid` that d-covers V(D).

    Infeasibility is proved first, before any pair is drawn: each pair
    outside `avoid` covering (x, y) brings its own in-neighbour of x and
    out-neighbour of y, so fewer than 2d usable vertices, or a vertex
    with fewer than d out- or in-neighbours outside `avoid`, raises
    CoverConstructionFailed with exact=True.  Otherwise pairs come one at
    a time from the arc-preferring pairing.  C[x, y] counts the pairs so
    far covering (x, y), its diagonal preset to d; pair (u, v) adds the
    outer product of the arcs u -> x (x != v) with the arcs y -> v
    (y != u), and growth stops once min C >= d.  Running out of pairs
    raises the plain CoverConstructionFailed.  A label of `avoid` outside
    0..n-1 raises LabelOutOfRange.
    """
    if d < 1:
        raise BadParameter("d must be >= 1")
    n = D.n
    avoid = set(avoid)
    for v in avoid:
        if not 0 <= v < n:
            raise LabelOutOfRange(f"vertex {v} outside 0..{n - 1}")
    if n < 2:
        return CoverPairSet(())
    M = D.bool_matrix()
    usable = sorted(set(range(n)) - avoid)
    if 2 * d > len(usable):  # else no count exceeds n <= MAX_ORDER < 2**16
        why = f"{len(usable)} vertices outside avoid make fewer than {d} pairs"
        raise CoverConstructionFailed(f"no {d}-cover exists: {why}", exact=True)
    for way, deg in (("out", M[:, usable].sum(1)), ("in", M[usable].sum(0))):
        if deg.min() < d:
            raise CoverConstructionFailed(
                f"no {d}-cover exists: vertex {deg.argmin()} has only "
                f"{deg.min()} {way}-neighbours outside avoid", exact=True,
            )
    C = np.zeros((n, n), dtype=np.uint16)
    np.fill_diagonal(C, d)
    pairs: list[Pair] = []
    draws = _random_pairs(M, usable, seed)
    while C.min() < d:
        pair = next(draws, None)
        if pair is None:
            raise CoverConstructionFailed(f"all {len(pairs)} pairs are no {d}-cover")
        pairs.append(pair)
        x, y = M[pair[0]].copy(), M[:, pair[1]].copy()
        x[pair[1]] = y[pair[0]] = False
        C += np.outer(x, y)
    return CoverPairSet(tuple(pairs))


def shortest_path_avoiding(
    D: Digraph,
    s: int,
    t: int,
    blocked: set[int],
    max_order: int,
    rng: random.Random | None = None,
) -> tuple[int, ...] | None:
    """Shortest s->t path with interior outside `blocked`, order bounded;
    neighbor exploration is shuffled when an rng is supplied."""
    if s == t or max_order < 2:
        return None
    parent: dict[int, int | None] = {s: None}
    frontier = [s]
    # iteration k asks whether t sits at arc-distance k (path order k+1)
    for k in range(1, max_order):
        if rng is not None:
            rng.shuffle(frontier)
        for u in frontier:
            if D.has_arc(u, t):
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return tuple(path) + (t,)
        if k == max_order - 1:
            break
        nxt = []
        for u in frontier:
            nbs = list(D.out_neighbors(u))
            if rng is not None:
                rng.shuffle(nbs)
            for w in nbs:
                if w in blocked or w in parent or w == t:
                    continue
                parent[w] = u
                nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return None


def build_disjoint_ladders(
    D: Digraph,
    terminals: Sequence[Pair],
    nu: Real,
    seed: int,
    ladder_k: int | None = None,
    avoid: Iterable[int] = (),
) -> list[Ladder]:
    """Build pairwise disjoint ladders, one per terminal pair (u_i, v_i).

    With ladder_k None, a terminal pair joined by an arc gets the
    single-arc ladder and the rest get k = 1; an explicit k forces that
    shape.  Each ladder obeys |V(L)| <= 12/nu^2 with its row path of
    order <= 8/nu.  Interior sampling never touches `avoid`.  Raises
    LadderConstructionFailed with the pair index.
    """
    nu = as_fraction(nu)
    if not 0 < nu <= 1:
        raise BadParameter(f"nu must lie in (0, 1], got {nu}")
    flat = [v for t in terminals for v in t]
    if len(set(flat)) != len(flat):
        raise BadParameter("terminal vertices must be pairwise distinct")
    max_size = int(12 / nu**2)
    max_rows = int(8 / nu)
    rng = random.Random(seed)
    used: set[int] = set(flat) | set(avoid)
    out: list[Ladder] = []
    for idx, (u, v) in enumerate(terminals):
        want_k = ladder_k
        if want_k is None:
            want_k = 0 if D.has_arc(u, v) else 1
        if want_k == 0:
            if not D.has_arc(u, v):
                raise LadderConstructionFailed(idx, f"no arc {u}->{v} for a k=0 ladder")
            out.append(single_arc_ladder(u, v))
            continue
        if 2 * (2 * want_k + 1) > max_rows or 2 * (2 * want_k + 1) > max_size:
            raise LadderConstructionFailed(
                idx, f"k={want_k} violates the nu={nu} size bounds"
            )
        L = _sample_ladder(D, u, v, want_k, used, max_size, rng)
        if L is None:
            raise LadderConstructionFailed(idx)
        if not validate_ladder(D, L):  # pragma: no cover - sampling guarantees this
            raise LadderConstructionFailed(idx, "sampled ladder failed validation")
        used |= L.vertices()
        out.append(L)
    return out


def _sample_ladder(
    D: Digraph,
    u: int,
    v: int,
    k: int,
    used: set[int],
    max_vertices: int,
    rng: random.Random,
) -> Ladder | None:
    """Randomly sample rows and connectors for a k >= 1 ladder from u to v."""
    for _ in range(_LADDER_TRIES):
        taken = set(used) | {u, v}
        lower = [u]
        upper = [v]
        ok = True
        for i in range(1, 2 * k + 1):
            # lower row: arcs v_(i-1)->v_i for even i-1, v_i->v_(i-1) for odd
            cand = (
                D.out_neighbors(lower[-1]) if i % 2 == 1 else D.in_neighbors(lower[-1])
            )
            pick = _pick(cand, taken, rng)
            if pick is None:
                ok = False
                break
            lower.append(pick)
            taken.add(pick)
            # upper row: arcs v_i*->v_(i-1)* for odd i, v_(i-1)*->v_i* for even
            cand = (
                D.in_neighbors(upper[-1]) if i % 2 == 1 else D.out_neighbors(upper[-1])
            )
            pick = _pick(cand, taken, rng)
            if pick is None:
                ok = False
                break
            upper.append(pick)
            taken.add(pick)
        if not ok or not D.has_arc(lower[2 * k], upper[2 * k]):
            continue
        connectors: dict[int, tuple[int, ...]] = {}
        for j in range(1, 2 * k, 2):
            room = max_vertices - (4 * k + 2) - sum(
                len(q) - 2 for q in connectors.values()
            )
            q = shortest_path_avoiding(
                D, lower[j], upper[j], taken, min(room + 2, 4), rng
            )
            if q is None:
                ok = False
                break
            connectors[j] = q
            taken.update(q[1:-1])
        if not ok:
            continue
        L = Ladder(tuple(lower), tuple(upper), connectors)
        if len(L.vertices()) <= max_vertices and validate_ladder(D, L):
            return L
    return None


def _pick(candidates, taken: set[int], rng: random.Random) -> int | None:
    options = [w for w in candidates if w not in taken]
    return rng.choice(options) if options else None
