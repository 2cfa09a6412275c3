"""Ladders and rung-swap absorption.

A ladder of parameter k joins a lower row v_0..v_2k and an upper row
v_0*..v_2k* by a zig-zag of arcs plus connector paths Q_i (odd i) from
v_i to v_i*.  Its arc skeleton is

    v_i -> v_(i+1)   and   v_(i+1)* -> v_i*    for even i < 2k,
    v_(j+1) -> v_j   and   v_j* -> v_(j+1)*    for odd j < 2k,
    v_2k -> v_2k*.

The rungs are the k+1 vertex-disjoint paths
    R_i   = v_i, v_(i+1), Q_(i+1) interior, v_(i+1)*, v_i*   (even i < 2k)
    R_2k  = v_2k, v_2k*
and the alternative rungs, defined for even i >= 2, are
    R'_i  = v_i, v_(i-1), Q_(i-1) interior, v_(i-1)*, v_i*,
so a k = 0 ladder (a single arc) has none.  The rungs partition V(L),
and the rungs and alternatives together hold every skeleton arc, so a
ladder is valid exactly when its shape is right, its rungs are pairwise
disjoint paths of D and its alternatives are paths of D.

R_i and R'_i run between the same endpoints, so when all rungs lie on one
host path, replacing R_0 by an external path P and then R_i by R'_i for
i = 2, 4, ..., 2k (in ascending order) rewires the host path so that it
gains exactly the vertices of P while losing none.  absorb_path checks
the pattern arc, then P (a path of D, between the ladder's ends), then
the rungs on the host path, then P's interior against every vertex of
the subdivision, before it rewires anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .digraph import Arc, Digraph, validate_path
from .errors import BadParameter
from .subdivision import HSubdivision


@dataclass(frozen=True)
class Ladder:
    """Rows plus connector paths; connectors are keyed by odd index and
    include their endpoints v_i and v_i*."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    connectors: Mapping[int, tuple[int, ...]]

    @property
    def k(self) -> int:
        return (len(self.lower) - 1) // 2

    def vertices(self) -> frozenset[int]:
        out = set(self.lower) | set(self.upper)
        for q in self.connectors.values():
            out.update(q)
        return frozenset(out)

    @property
    def start(self) -> int:
        return self.lower[0]

    @property
    def end(self) -> int:
        return self.upper[0]


def single_arc_ladder(u: int, v: int) -> Ladder:
    """The k = 0 ladder: a single arc u -> v."""
    return Ladder((u,), (v,), {})


def validate_ladder(D: Digraph, L: Ladder) -> bool:
    """True iff L is a ladder of D: rows of equal odd length, a connector
    of at least two vertices from v_i to v_i* for each odd i, rungs that
    are pairwise disjoint paths of D, and alternatives that are paths of D."""
    lo, up, Q = L.lower, L.upper, L.connectors
    if len(lo) != len(up) or len(lo) % 2 == 0 or set(Q) != set(range(1, len(lo) - 1, 2)):
        return False
    if any(len(Q[i]) < 2 or Q[i][0] != lo[i] or Q[i][-1] != up[i] for i in Q):
        return False
    rungs = rung_paths(L)
    if len({v for r in rungs for v in r}) != sum(map(len, rungs)):
        return False
    return all(validate_path(D, r) for r in rungs + alternative_rung_paths(L))


def rung_paths(L: Ladder) -> tuple[tuple[int, ...], ...]:
    """The k+1 disjoint rungs, in ascending index order."""
    out = []
    for i in range(0, 2 * L.k, 2):
        out.append((L.lower[i],) + tuple(L.connectors[i + 1]) + (L.upper[i],))
    out.append((L.lower[2 * L.k], L.upper[2 * L.k]))
    return tuple(out)


def alternative_rung_paths(L: Ladder) -> tuple[tuple[int, ...], ...]:
    """The k alternative rungs R'_2, R'_4, ..., R'_2k.

    R'_i reuses the connector Q_(i-1): it runs v_i, v_(i-1), Q_(i-1)
    interior, v_(i-1)*, v_i*.  Empty for k = 0.
    """
    out = []
    for i in range(2, 2 * L.k + 1, 2):
        out.append((L.lower[i],) + tuple(L.connectors[i - 1]) + (L.upper[i],))
    return tuple(out)


def _find_segment(path: Sequence[int], seg: Sequence[int]) -> int | None:
    """Index where seg occurs as a contiguous run of path, or None."""
    try:
        i = path.index(seg[0])
    except ValueError:
        return None
    return i if tuple(path[i : i + len(seg)]) == tuple(seg) else None


def ladder_on_path(L: Ladder, path: Sequence[int]) -> bool:
    """True iff every rung of L occurs as a contiguous run of the path."""
    return all(_find_segment(path, r) is not None for r in rung_paths(L))


def absorb_path(
    D: Digraph,
    sub: HSubdivision,
    L: Ladder,
    arc: Arc,
    P: Sequence[int],
) -> HSubdivision:
    """Absorb the path P into the subdivision via the ladder L, whose
    rungs lie on the path of the pattern arc `arc`: R_0 is replaced by
    P and each R_i by R'_i, ascending even i.

    The checks run in this order, each raising BadParameter with its own
    message: `arc` must be a pattern arc, P a valid path of D from the
    ladder's start to its end, every rung a contiguous run of arc's
    path, and P's interior disjoint from the whole subdivision.  The
    result is a subdivision with the same pattern and branch map whose
    vertex set is V(sub) union V(P); only arc's path changes.
    """
    if arc not in sub.paths:
        raise BadParameter(f"pattern arc {arc} not present in subdivision")
    P = tuple(P)
    if not validate_path(D, P):
        raise BadParameter("absorbee is not a valid path of the host digraph")
    if P[0] != L.start or P[-1] != L.end:
        raise BadParameter(
            f"path runs {P[0]}..{P[-1]}, ladder expects {L.start}..{L.end}"
        )
    host = sub.paths[arc]
    rungs = rung_paths(L)
    for r in rungs:
        if _find_segment(host, r) is None:
            raise BadParameter(f"rung {r} is not a contiguous subpath of the host path")
    met = sub.vertices().intersection(P[1:-1])
    if met:
        raise BadParameter(f"absorbee interior reuses subdivision vertices {sorted(met)}")
    replacements = (P,) + alternative_rung_paths(L)
    work = list(host)
    for rung, alt in zip(rungs, replacements):
        at = _find_segment(work, rung)
        if at is None:
            raise BadParameter(f"rung {rung} vanished during rewiring")
        work[at : at + len(rung)] = list(alt)
    if len(set(work)) != len(work):
        raise BadParameter("rewired path repeats a vertex")
    return HSubdivision(sub.pattern, dict(sub.branch_map), {**sub.paths, arc: tuple(work)})
