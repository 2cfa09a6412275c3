"""Pattern digraphs and their subdivisions.

A subdivision of a pattern H inside a host digraph D maps branch vertices
injectively into D and every pattern arc to a directed path between the
corresponding branch images, with all paths internally disjoint and no
internal vertex equal to any branch image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .digraph import Arc, Digraph, check_labels, validate_path
from .errors import BadParameter, TooLargeForOracle
from .ratio import Real, as_density

ORACLE_CAP = 12


@dataclass(frozen=True)
class PatternDigraph:
    """The digraph being subdivided; arcs carry a fixed enumeration order
    (ascending by (tail, head)) used to align length prescriptions."""

    underlying: Digraph

    def __post_init__(self):
        if self.underlying.arc_count < 1:
            raise BadParameter("pattern needs at least one arc")
        M = self.underlying.bool_matrix()
        touched = M.any(0) | M.any(1)
        if not touched.all():
            raise BadParameter(f"pattern vertex {touched.argmin()} is isolated")

    @property
    def arc_order(self) -> tuple[Arc, ...]:
        return tuple(sorted(self.underlying.arcs))

    @property
    def h(self) -> int:
        return self.underlying.arc_count


def pattern_from_arcs(arcs: Sequence[Arc]) -> PatternDigraph:
    if not arcs:
        raise BadParameter("pattern needs at least one arc")
    n = 1 + max(max(a) for a in arcs)
    return PatternDigraph(Digraph(n, arcs))


def single_arc_pattern() -> PatternDigraph:
    return pattern_from_arcs([(0, 1)])


def digon_pattern() -> PatternDigraph:
    return pattern_from_arcs([(0, 1), (1, 0)])


def triangle_pattern() -> PatternDigraph:
    return pattern_from_arcs([(0, 1), (1, 2), (2, 0)])


@dataclass(frozen=True)
class HSubdivision:
    """A concrete subdivision: branch map plus one host path per pattern arc.

    paths is keyed by pattern arc; each path includes both endpoints
    (the branch images of the arc's tail and head).
    """

    pattern: PatternDigraph
    branch_map: Mapping[int, int]
    paths: Mapping[Arc, tuple[int, ...]]

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for p in self.paths.values():
            out.update(p)
        return frozenset(out)


@dataclass(frozen=True)
class LengthPrescription:
    """Requested path lengths (arc counts), aligned with arc_order."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(x) for x in self.lengths))
        if any(l < 1 for l in self.lengths):
            raise BadParameter("every prescribed length must be >= 1")

    def __iter__(self):
        return iter(self.lengths)

    def __len__(self):
        return len(self.lengths)


def min_prescribed_length(nu: Real) -> int:
    """Smallest prescribed path length the construction pipelines accept:
    ceil(24/nu^2 + 4/nu + 2).  Large enough that one ladder plus its two
    connector paths always fits inside a single subdivided path."""
    nu = as_density(nu, "nu", closed=True)
    return math.ceil(24 / nu**2 + 4 / nu + 2)


def check_branch_map(H: PatternDigraph, f: Mapping[int, int], n: int) -> None:
    """Raise BadParameter unless f maps exactly the pattern vertices
    injectively, and LabelOutOfRange for an image outside 0..n-1."""
    if set(f.keys()) != set(H.underlying.vertices()):
        raise BadParameter("branch map must assign exactly the pattern vertices")
    images = list(f.values())
    if len(set(images)) != len(images):
        raise BadParameter("branch map must be injective")
    check_labels(n, images, "branch image {}")


def validate_subdivision(D: Digraph, sub: HSubdivision) -> bool:
    """True iff sub is a subdivision of its pattern inside D."""
    H = sub.pattern.underlying
    f = sub.branch_map
    if set(f.keys()) != set(H.vertices()):
        return False
    images = list(f.values())
    if len(set(images)) != len(images):
        return False
    if any(not (0 <= v < D.n) for v in images):
        return False
    if set(sub.paths.keys()) != set(H.arcs):
        return False
    branch_set = set(images)
    seen_internal: set[int] = set()
    for (a, b), path in sub.paths.items():
        if len(path) < 2:
            return False
        if path[0] != f[a] or path[-1] != f[b]:
            return False
        if not validate_path(D, path):
            return False
        interior = set(path[1:-1])
        if interior & branch_set:
            return False
        if interior & seen_internal:
            return False
        seen_internal |= interior
    return True


def path_lengths(sub: HSubdivision) -> tuple[int, ...]:
    """Arc counts of the subdivided paths, in arc_order."""
    return tuple(len(sub.paths[a]) - 1 for a in sub.pattern.arc_order)


def subdivision_order(sub: HSubdivision) -> int:
    """Number of distinct vertices used by the subdivision."""
    return len(sub.vertices())


def validate_tiling(
    D: Digraph,
    subs: Sequence[HSubdivision],
    orders: Sequence[int],
) -> bool:
    """True iff subs are valid, pairwise vertex-disjoint, cover V(D), and
    realise the given orders, positionally."""
    if len(subs) != len(orders):
        return False
    used: set[int] = set()
    got: list[int] = []
    for sub in subs:
        if not validate_subdivision(D, sub):
            return False
        verts = sub.vertices()
        if verts & used:
            return False
        used |= verts
        got.append(len(verts))
    if used != set(D.vertices()):
        return False
    return got == list(orders)


def brute_force_subdivision(
    D: Digraph,
    H: PatternDigraph,
    f: Mapping[int, int],
    lengths: Sequence[int] | LengthPrescription,
) -> HSubdivision | None:
    """Exhaustive search for a subdivision with the exact given lengths.

    Backtracks over pattern arcs in arc_order, extending candidate paths
    vertex by vertex in ascending label order, pruning on remaining
    length.  Returns None iff no subdivision exists.  Intended as an
    oracle; refuses n > ORACLE_CAP.  LengthPrescription checks the
    lengths and check_branch_map the branch map.
    """
    if D.n > ORACLE_CAP:
        raise TooLargeForOracle(f"n={D.n} exceeds the oracle cap {ORACLE_CAP}")
    lengths = LengthPrescription(lengths).lengths
    arcs = H.arc_order
    if len(lengths) != len(arcs):
        raise BadParameter(f"{len(arcs)} pattern arcs but {len(lengths)} lengths")
    check_branch_map(H, f, D.n)
    branch_set = set(f.values())
    used: set[int] = set()  # interiors committed so far
    chosen: dict[Arc, tuple[int, ...]] = {}

    def extend(ai: int) -> bool:
        if ai == len(arcs):
            return True
        a, b = arcs[ai]
        start, goal = f[a], f[b]
        want = lengths[ai]

        def grow(path: list[int], remaining: int) -> bool:
            tip = path[-1]
            if remaining == 0:
                if tip != goal:
                    return False
                chosen[arcs[ai]] = tuple(path)
                interior = path[1:-1]
                used.update(interior)
                if extend(ai + 1):
                    return True
                used.difference_update(interior)
                del chosen[arcs[ai]]
                return False
            for w in D.out_neighbors(tip):
                if remaining == 1:
                    if w != goal:
                        continue
                elif w in branch_set or w in used or w in path:
                    continue
                path.append(w)
                if grow(path, remaining - 1):
                    return True
                path.pop()
            return False

        return grow([start], want)

    if extend(0):
        return HSubdivision(H, dict(f), dict(chosen))
    return None
