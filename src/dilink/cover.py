"""Covering pairs, d-covers, short routes and ladders.

A pair (u, v) covers an ordered pair (x, y) when all four vertices are
distinct and both arcs u->x and y->v exist: any path from x to y can then
be extended to one from u to v.  A set of disjoint pairs K d-covers U if
every ordered pair of distinct vertices of U is covered by at least d
members of K.  `covers` states the relation for one pair and one target;
`cover_arcs` is its one matrix form, the two halves P (arcs out of each
u) and Q (arcs into each v) that every other reader of the relation
combines.  Pairs are drawn by pairing each vertex with a random free
out-neighbour read from the adjacency matrix.  `build_d_cover` first
checks the degrees for a proof that no d-cover exists, then takes pairs
in order and stops at the shortest prefix that d-covers.  It reads them
eight at a time, as one byte of P and one of Q per vertex, and counts
in two phases: a dense count matrix, to which each group adds the
popcounts of the bytes' ands, while many ordered pairs are covered
fewer than d times; then a list of only those short entries.
`verify_d_cover` checks any pair set independently, with products of Q
and P taken in float32 one block of rows at a time.  The one router,
`shortest_path_avoiding`, goes breadth-first over matrix rows, a layer
at a time, through the caller's bool mask of free vertices, with a
random walk back through the parents.  Ladder connectors and the
absorber's threading route through it one path at a time, each on one
mask in which every path's interior is cleared before the next.  A
k >= 1 ladder's rows are drawn from matrix rows too, each vertex
uniformly among the free vertices the skeleton allows; the sample is
kept when validate_ladder accepts it, that is, when its rungs are
disjoint paths of D and its alternative rungs (none at k = 0) are
paths of D.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Sequence

import numpy as np

from .digraph import MAX_ORDER, Digraph, check_labels
from .errors import BadParameter, ConstructionFailed
from .ladder import Ladder, single_arc_ladder, validate_ladder
from .ratio import Real, as_count, as_density

Pair = tuple[int, int]

_LADDER_TRIES = 400  # row samples _sample_ladder draws per ladder
_HAND_OVER = 64  # build_d_cover lists the short entries once at most n^2/64 are left
_BLOCK_BYTES = 1 << 20  # size of one row block of an n x n pass
# build_d_cover shrinks its list of short entries to no fewer than this:
# numpy keeps freed buffers under 1 KiB for reuse, a few of each size, and
# ever new short lengths would fill that cache and stay resident
_FLOOR = 1024
# _RANK[w, k]: one past the place of the k-th set bit of byte w (0 if k = 0 or k > popcount(w))
_RANK = np.array(
    [[0, *(i + 1 for i in range(8) if w >> i & 1), *[0] * (8 - w.bit_count())] for w in range(256)],
    dtype=np.uint8,
)


@dataclass(frozen=True)
class CoverPairSet:
    """Pairwise-disjoint ordered vertex pairs, labels checked by check_labels."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        try:
            pairs = [(u, v) for u, v in self.pairs]
        except (TypeError, ValueError):
            raise BadParameter("each cover pair must unpack to two labels (u, v)") from None
        check_labels(MAX_ORDER, [v for pair in pairs for v in pair])
        object.__setattr__(self, "pairs", tuple((int(u), int(v)) for u, v in pairs))
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


def cover_arcs(M: np.ndarray, pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    """The covering relation of pairs (u_j, v_j) on the loop-free matrix
    M, as two pairs x n bool arrays: P[j, x] is the arc u_j -> x with
    x != v_j, Q[j, y] the arc y -> v_j with y != u_j, and pair j covers
    (x, y) iff P[j, x] & Q[j, y] & (x != y)."""
    us, vs = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    j = np.arange(len(us))
    P, Q = M[us], M.T[vs]
    P[j, vs] = Q[j, us] = False
    return P, Q


def verify_d_cover(D: Digraph, K: CoverPairSet | Sequence[Pair], d: int = 1) -> bool:
    """Check that every ordered pair of distinct vertices of D is covered
    by at least d pairs of K: the counts are the product Q^T P of K's
    cover_arcs rows, taken in float32 one block of rows at a time, so
    memory stays O(|K| n + block n).  A d that is not an integer >= 0
    raises BadParameter, a label of K outside 0..n-1 LabelOutOfRange."""
    pairs = list(K.pairs if isinstance(K, CoverPairSet) else K)
    d = as_count(d, "d", least=0)
    check_labels(D.n, [v for pair in pairs for v in pair])
    if D.n < 2 or d == 0:
        return True
    P, Q = cover_arcs(D.bool_matrix(), pairs)
    # float32 lets numpy hand the products to BLAS; every entry is a count
    # of at most n/2 < 2**24 pairs, so each partial sum is exact
    P, Q = P.astype(np.float32), Q.astype(np.float32)
    rows = max(1, _BLOCK_BYTES // (4 * D.n))
    for s in range(0, D.n, rows):
        sub = Q[:, s : s + rows].T @ P  # sub[y - s, x]
        np.fill_diagonal(sub[:, s:], d)  # ignore x == y
        if sub.min() < d:
            return False
    return True


def cover_size_formula(n: int, gamma: Real, d: int) -> int:
    """Number of pairs sufficient for a d-cover of an n-vertex digraph
    with min semidegree gamma*n (natural logarithms), before capping."""
    g = float(as_density(gamma, "gamma"))
    n, d = as_count(n, "n"), as_count(d, "d")
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
        cand = (M[u] & free).nonzero()[0]
        if not len(cand):
            cand = free.nonzero()[0]
        if len(cand):  # only the last vertex of an odd count stays single
            v = int(cand[rng.randrange(len(cand))])
            free[v] = False
            yield u, v


def _prefix_needed(w: np.ndarray, count: np.ndarray, d: int) -> int:
    """The least m whose first m pairs of the last group leave no count
    below d: count holds each entry's count after the whole group, none
    below d, and w its covering byte (bit j for pair j), so an entry needs
    the first max(0, d + popcount(w) - count) of w's set bits, which end
    at _RANK.  That is taken as popcount(w) - min(popcount(w), count - d),
    in count's own unsigned type, so no wider copy of a block is made."""
    need = np.bitwise_count(w)
    slack = count - d
    need -= np.minimum(slack, need, out=slack)
    del slack  # freed before the lookup
    return int(_RANK[w, need].max())


def _short_entries(C: np.ndarray, d: int, tmp: np.ndarray) -> np.ndarray:
    """The flat indices of the entries of C below d, found one block of
    len(tmp) rows at a time through tmp (a flat nonzero is several times
    faster than a 2-D one)."""
    found = []
    for s in range(0, len(C), len(tmp)):
        block = C[s : s + len(tmp)]
        t = np.less(block, d, out=tmp[: len(block)].view(bool))
        found.append(t.ravel().nonzero()[0] + s * len(C))
    return np.concatenate(found)


def build_d_cover(D: Digraph, d: int, seed: int, *, avoid: Iterable[int] = ()) -> CoverPairSet:
    """The shortest run of random pairs outside `avoid` that d-covers V(D).

    Infeasibility is proved first, before any pair is drawn: each pair
    outside `avoid` covering (x, y) brings its own in-neighbour of x and
    out-neighbour of y, so fewer than 2d usable vertices, or a vertex
    with fewer than d out- or in-neighbours outside `avoid`, raises
    ConstructionFailed with exact=True.  Otherwise pairs come from
    the arc-preferring pairing in groups of 8, as bytes p and q over
    V(D) whose bit j holds pair j's cover_arcs entries, so that
    popcount(p[x] & q[y]) of the group's pairs cover (x, y).  The counts
    grow in two phases.  While many entries are below d, C holds every
    count, its diagonal preset to d, and each group adds its popcounts
    in row blocks.  Once at most n^2/_HAND_OVER entries are short, only
    those are kept, as (xs, ys, count), and each further group adds
    popcount(p[xs] & q[ys]); entries that reach d are dropped, keeping
    at least _FLOOR listed.  Growth stops after the group that leaves no
    entry short, cut to the shortest prefix that meets every entry's
    need, read from the rank table _RANK by _prefix_needed.
    Running out of pairs raises the plain ConstructionFailed.  A d
    that is not an integer >= 1, or a seed that is not an integer, raises
    BadParameter, a label of `avoid` outside 0..n-1 LabelOutOfRange.
    """
    d, seed = as_count(d, "d"), as_count(seed, "seed", least=None)
    n = D.n
    avoid = set(avoid)
    check_labels(n, avoid)
    if n < 2:
        return CoverPairSet(())
    M = D.bool_matrix()
    usable = sorted(set(range(n)) - avoid)
    if 2 * d > len(usable):  # else d <= n/2 <= MAX_ORDER/2 < 2**15
        why = f"{len(usable)} vertices outside avoid make fewer than {d} pairs"
        raise ConstructionFailed(f"no {d}-cover exists: {why}", exact=True)
    gone = sorted(avoid)  # degrees are below n <= MAX_ORDER < 2**16
    out = M.sum(1, dtype=np.uint16) - M[:, gone].sum(1, dtype=np.uint16)
    in_ = M.sum(0, dtype=np.uint16) - M[gone].sum(0, dtype=np.uint16)
    for way, deg in (("out", out), ("in", in_)):
        if deg.min() < d:
            raise ConstructionFailed(
                f"no {d}-cover exists: vertex {deg.argmin()} has only "
                f"{deg.min()} {way}-neighbours outside avoid", exact=True,
            )
    pairs: list[Pair] = []
    stream = _random_pairs(M, usable, seed)

    def draw() -> tuple[np.ndarray, np.ndarray]:
        batch = list(islice(stream, 8))
        if not batch:
            raise ConstructionFailed(f"all {len(pairs)} pairs are no {d}-cover")
        pairs.extend(batch)
        bits = np.arange(len(batch), dtype=np.uint8)[:, None]  # np.packbits is slower
        return tuple(np.bitwise_or.reduce(R.view(np.uint8) << bits) for R in cover_arcs(M, batch))

    # dense phase; counts over d carry no information, so C is clamped to
    # d before any count could pass its type's maximum
    C = np.zeros((n, n), dtype=np.uint8 if d < 128 else np.uint16)
    np.fill_diagonal(C, d)
    clamp = 8 * ((int(np.iinfo(C.dtype).max) - d) // 8)  # pairs between clamps
    tmp = np.empty((min(n, max(1, _BLOCK_BYTES // n)), n), dtype=np.uint8)
    short = n * (n - 1)
    while short * _HAND_OVER > n * n:
        if pairs and len(pairs) % clamp == 0:
            np.minimum(C, d, out=C)
        p, q = draw()
        short = 0
        for s in range(0, n, len(tmp)):
            block = C[s : s + len(tmp)]
            t = np.bitwise_and(p[s : s + len(block), None], q, out=tmp[: len(block)])
            block += np.bitwise_count(t, out=t)
            short += np.count_nonzero(np.less(block, d, out=t.view(bool)))
    if short:  # deficit phase
        flat = _short_entries(C, d, tmp)
        count = C.ravel()[flat].astype(np.uint16)  # fewer than n/2 < 2**15 pairs add to it
        del C, tmp
        xs, ys = np.divmod(flat, n)
        del flat
        below = count < d
        while left := np.count_nonzero(below):
            if _FLOOR <= left < len(below):
                xs, ys, count = xs[below], ys[below], count[below]
            p, q = draw()
            w = p[xs] & q[ys]
            count += np.bitwise_count(w)
            below = np.less(count, d, out=below[: len(count)])
    # the last group completed the cover; keep its shortest prefix
    first = 8 * ((len(pairs) - 1) // 8)
    if short:
        m = _prefix_needed(w, count, d)
    else:  # block by block; the diagonal, preset to d, needs no pair
        m = 0
        for s in range(0, n, len(tmp)):
            w = np.bitwise_and(p[s : s + len(tmp), None], q, out=tmp[: n - s])
            m = max(m, _prefix_needed(w, C[s : s + len(w)], d))
    del pairs[first + m :]
    return CoverPairSet(tuple(pairs))


def shortest_path_avoiding(
    D: Digraph,
    s: int,
    t: int,
    free: np.ndarray,
    max_order: int,
    rng: random.Random,
) -> tuple[int, ...] | None:
    """A shortest s->t path of order <= max_order whose interior lies in
    `free`, a length-n bool mask that is read and never written, or None
    if there is none; s and t need not be free.  Breadth-first over
    matrix rows, a layer at a time, then walked back through the layers'
    in-neighbours, each pick drawn uniformly by rng.  A label of s or t
    outside 0..n-1 raises LabelOutOfRange; any other mask, or a max_order
    that is not an integer >= 0, BadParameter."""
    check_labels(D.n, (s, t))
    if not isinstance(free, np.ndarray) or free.dtype != bool or free.shape != (D.n,):
        raise BadParameter(f"free must be a bool array of length n = {D.n}")
    max_order = as_count(max_order, "max_order", least=0)
    if s == t or max_order < 2:
        return None
    M = D.bool_matrix()
    open_ = free.copy()
    open_[[s, t]] = False
    layers = [np.array([s])]
    while not M[layers[-1], t].any():
        if len(layers) + 1 == max_order:  # paths via a next layer exceed max_order
            return None
        layer = (M[layers[-1]].any(0) & open_).nonzero()[0]
        if not len(layer):
            return None
        open_[layer] = False
        layers.append(layer)
    path = [t]
    for layer in layers[:0:-1]:  # back to layer 1; layer 0 is s alone
        cand = layer[M[layer, path[-1]]]
        path.append(int(cand[rng.randrange(len(cand))]))
    return (s, *reversed(path))


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
    ConstructionFailed naming the pair's index, BadParameter for a
    ladder_k that is not an integer >= 0 or a seed that is not an
    integer, and LabelOutOfRange for a terminal or a vertex of `avoid`
    outside 0..n-1.
    """
    nu = as_density(nu, "nu", closed=True)
    seed = as_count(seed, "seed", least=None)
    if ladder_k is not None:
        ladder_k = as_count(ladder_k, "ladder_k", least=0)
    flat = [v for t in terminals for v in t]
    avoid = list(avoid)
    check_labels(D.n, [*flat, *avoid])
    if len(set(flat)) != len(flat):
        raise BadParameter("terminal vertices must be pairwise distinct")
    max_size = int(12 / nu**2)
    max_rows = int(8 / nu)
    rng = random.Random(seed)
    free = np.ones(D.n, dtype=bool)  # vertices no ladder or terminal holds, outside avoid
    free[[*flat, *avoid]] = False
    M = D.bool_matrix()
    out: list[Ladder] = []
    for idx, (u, v) in enumerate(terminals):
        want_k = ladder_k
        if want_k is None:
            want_k = 0 if M.item(u, v) else 1
        if want_k == 0:
            if not M.item(u, v):
                raise ConstructionFailed(f"ladder #{idx}: no arc {u}->{v} for a k=0 ladder")
            out.append(single_arc_ladder(u, v))
            continue
        if 2 * (2 * want_k + 1) > max_rows:
            raise ConstructionFailed(
                f"ladder #{idx}: k={want_k} violates the nu={nu} size bounds"
            )
        L = _sample_ladder(D, u, v, want_k, free, max_size, rng)
        if L is None:
            raise ConstructionFailed(f"could not build ladder #{idx}")
        free[list(L.vertices())] = False
        out.append(L)
    return out


def _sample_ladder(
    D: Digraph,
    u: int,
    v: int,
    k: int,
    free: np.ndarray,
    max_vertices: int,
    rng: random.Random,
) -> Ladder | None:
    """Randomly sample rows and connectors for a k >= 1 ladder from u to v.

    Row step i draws v_i from the out-row of v_(i-1) when i is odd and
    from its in-row when i is even, and v_i* the other way round, each
    uniformly among the vertices still free; then a shortest connector
    of order <= 4 joins v_i to v_i* for each odd i, all on a copy of free."""
    M = D.bool_matrix()
    for _ in range(_LADDER_TRIES):
        left = free.copy()
        lower, upper = [u], [v]
        for i, row in product(range(1, 2 * k + 1), (lower, upper)):
            line = M[row[-1]] if (i % 2 == 1) == (row is lower) else M[:, row[-1]]
            cand = np.flatnonzero(line & left)
            if not len(cand):
                break
            row.append(int(cand[rng.randrange(len(cand))]))
            left[row[-1]] = False
        if len(upper) <= 2 * k or not M.item(lower[-1], upper[-1]):
            continue
        connectors: dict[int, tuple[int, ...]] = {}
        for j in range(1, 2 * k, 2):
            room = max_vertices - (4 * k + 2) - sum(len(q) - 2 for q in connectors.values())
            q = shortest_path_avoiding(D, lower[j], upper[j], left, min(room + 2, 4), rng)
            if q is None:
                break
            connectors[j] = q
            left[list(q[1:-1])] = False
        else:
            L = Ladder(tuple(lower), tuple(upper), connectors)
            if len(L.vertices()) <= max_vertices and validate_ladder(D, L):
                return L
    return None
