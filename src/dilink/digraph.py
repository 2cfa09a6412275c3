"""Immutable digraphs with dense integer vertex labels.

Vertices are always 0..n-1.  At most one arc per ordered pair, no loops;
(u, v) and (v, u) may coexist.  Digraphs are values: every operation that
"modifies" one returns a new object, so they can be shared freely.

The only stored form is a read-only n x n numpy bool adjacency matrix,
which suits the dense digraphs (Theta(n) neighbours per vertex) worked on
here.  Every other view (the arc set, neighbour tuples, degrees, bitmasks)
is computed from the matrix each time it is asked for; nothing else is
stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParameter, LabelOutOfRange, LoopArc
from .ratio import as_count

Arc = tuple[int, int]
MAX_ORDER = 1 << 15  # largest n Digraph() accepts: its bool matrix is then 1 GiB


def check_labels(n: int, labels: Iterable[int], what: str = "vertex {}") -> None:
    """Raise BadParameter for the first of `labels` that is not an integer
    (a bool, a float), else LabelOutOfRange for the first outside 0..n-1,
    named in the message by `what` formatted with that label.  Every
    function taking vertex labels checks them here: numpy would read -1
    as row n-1, True as row 1 and 2.0 not at all."""
    for v in labels:
        # plain ints, what hot callers pass, skip the full type check
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
            raise BadParameter(f"{what.format(v)} is not an integer label")
        if not 0 <= v < n:
            raise LabelOutOfRange(f"{what.format(v)} outside 0..{n - 1}")


class Digraph:
    """A loop-free digraph on vertex set {0, ..., n-1}."""

    __slots__ = ("n", "_matrix")

    def __init__(self, n: int, arc_list: Iterable[Arc]):
        """Arcs are integer pairs or an (m, 2) int array; duplicates collapse.
        A vertex count that is not a whole number >= 0 (as_count reads 3.0
        as 3), non-integer labels, and an n above MAX_ORDER raise
        BadParameter; the first bad arc in input order raises LoopArc if a
        loop, else LabelOutOfRange."""
        n = as_count(n, "vertex count", least=0)
        if n > MAX_ORDER:
            raise BadParameter(f"vertex count {n} is too large: the bound is {MAX_ORDER}")
        if not isinstance(arc_list, np.ndarray):
            arc_list = list(arc_list)
        a = np.asarray(arc_list)
        if a.size and a.dtype.kind not in "iu":
            raise BadParameter(f"arc labels must be integers, got dtype {a.dtype}")
        a = a.astype(np.intp, copy=False)
        if a.size and (a.ndim != 2 or a.shape[1] != 2):
            raise ValueError(f"arcs must be pairs (u, v), got shape {a.shape}")
        a = a.reshape(-1, 2)
        us, vs = a[:, 0], a[:, 1]
        bad = (us == vs) | (us < 0) | (us >= n) | (vs < 0) | (vs >= n)
        if bad.any():
            u, v = a[bad.argmax()].tolist()
            if u == v:
                raise LoopArc(f"loop arc ({u}, {u}) is not allowed")
            raise LabelOutOfRange(f"arc ({u}, {v}) outside 0..{n - 1}")
        m = np.zeros((n, n), dtype=bool)
        m[us, vs] = True
        m.flags.writeable = False
        self.n = n
        self._matrix = m

    @classmethod
    def _of_matrix(cls, m: np.ndarray) -> "Digraph":
        """Adopt m, a fresh square bool matrix with a False diagonal, unchecked."""
        D = cls(0, ())
        m.flags.writeable = False
        D.n, D._matrix = len(m), m
        return D

    # -- basic queries ---------------------------------------------------

    @property
    def arcs(self) -> frozenset[Arc]:
        us, vs = np.nonzero(self._matrix)
        return frozenset(zip(us.tolist(), vs.tolist()))

    @property
    def arc_count(self) -> int:
        return int(np.count_nonzero(self._matrix))

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self._matrix.item(u, v)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        check_labels(self.n, (v,))
        return tuple(np.flatnonzero(self._matrix[v]).tolist())

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        check_labels(self.n, (v,))
        return tuple(np.flatnonzero(self._matrix[:, v]).tolist())

    def out_degree(self, v: int) -> int:
        check_labels(self.n, (v,))
        return int(np.count_nonzero(self._matrix[v]))

    def in_degree(self, v: int) -> int:
        check_labels(self.n, (v,))
        return int(np.count_nonzero(self._matrix[:, v]))

    def vertices(self) -> range:
        return range(self.n)

    def reverse(self) -> "Digraph":
        """The digraph with every arc (u, v) replaced by (v, u)."""
        return Digraph._of_matrix(self._matrix.T.copy())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and np.array_equal(self._matrix, other._matrix)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._matrix.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"

    # -- dense views -----------------------------------------------------

    def bool_matrix(self) -> np.ndarray:
        """The read-only n x n bool matrix M with M[u, v] true iff arc u->v."""
        return self._matrix

    def in_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of in-neighbors (bit u set iff u->v)."""
        packed = np.packbits(self._matrix.T, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


@dataclass(frozen=True)
class DegreeProfile:
    """Sorted degree sequences plus the degree minima of a digraph.

    out_sorted / in_sorted are nondecreasing; delta_min_total is the
    minimum over vertices of out-degree + in-degree (a per-vertex sum,
    not derivable from the two sorted sequences).
    """

    out_sorted: tuple[int, ...]
    in_sorted: tuple[int, ...]
    delta_plus: int
    delta_minus: int
    delta_zero: int
    delta_min_total: int


def degree_profile(D: Digraph) -> DegreeProfile:
    if D.n == 0:
        return DegreeProfile((), (), 0, 0, 0, 0)
    M = D.bool_matrix()
    outs, ins = M.sum(axis=1), M.sum(axis=0)
    dplus, dminus = int(outs.min()), int(ins.min())
    return DegreeProfile(tuple(sorted(outs.tolist())), tuple(sorted(ins.tolist())),
                         dplus, dminus, min(dplus, dminus), int((outs + ins).min()))


@dataclass(frozen=True)
class VertexRemoval:
    """Result of deleting a vertex set: the induced digraph plus both
    directions of the order-preserving relabelling."""

    digraph: Digraph
    old_to_new: dict[int, int]
    new_to_old: dict[int, int]


def remove_vertices(D: Digraph, removed: Iterable[int]) -> VertexRemoval:
    """Induced subdigraph on V(D) minus `removed`, relabelled to 0..k-1.

    The relabelling preserves the original label order.
    """
    gone = set(removed)
    check_labels(D.n, gone)
    keep = np.ones(D.n, dtype=bool)
    keep[list(gone)] = False
    kept = np.flatnonzero(keep)
    # two gathers are faster than one np.ix_ gather, but the column gather
    # returns Fortran order, and every later row read is faster on C order
    sub = Digraph._of_matrix(np.ascontiguousarray(D.bool_matrix()[kept][:, kept]))
    labels = kept.tolist()
    return VertexRemoval(sub, {v: i for i, v in enumerate(labels)}, dict(enumerate(labels)))


def validate_path(D: Digraph, seq: Sequence[int]) -> bool:
    """True iff seq is a directed path of D: distinct integer labels in
    range, and every consecutive pair an arc.  A list or tuple of at most
    3 plain ints, such as a 2-vertex rung, is checked one arc at a time;
    anything else is read from the matrix at once."""
    if type(seq) in (list, tuple) and len(seq) <= 3 and all(type(v) is int for v in seq):
        M = D.bool_matrix()
        return (
            0 < len(seq) == len(set(seq))
            and all(0 <= v < D.n for v in seq)
            and all(M.item(u, v) for u, v in zip(seq, seq[1:]))
        )
    a = np.asarray(seq)
    if a.ndim != 1 or a.dtype.kind not in "iu" or not 0 < len(a) == len(set(a.tolist())):
        return False
    if a.min() < 0 or a.max() >= D.n:
        return False
    return bool(D.bool_matrix()[a[:-1], a[1:]].all())


def validate_cycle(D: Digraph, seq: Sequence[int]) -> bool:
    """True iff seq lists the vertices of a directed cycle in order.

    The closing arc seq[-1] -> seq[0] is implied, not repeated; digons
    (two-vertex cycles) are legal.
    """
    return len(seq) >= 2 and validate_path(D, seq) and D.bool_matrix().item(seq[-1], seq[0])


def is_strongly_connected(D: Digraph) -> bool:
    """True iff vertex 0 reaches every vertex in D and in its reverse."""
    if D.n <= 1:
        return True

    def reaches_all(A: np.ndarray) -> bool:
        seen = frontier = np.arange(D.n) == 0
        while frontier.any():
            frontier = A[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        return bool(seen.all())

    M = D.bool_matrix()
    return reaches_all(M) and reaches_all(M.T)
