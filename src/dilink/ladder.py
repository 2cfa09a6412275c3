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
    R'_i  = v_i, v_(i-1), Q_(i-1) interior, v_(i-1)*, v_i*.

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
from .errors import (
    DegenerateLadder,
    EndpointMismatch,
    InvalidPath,
    NotEmbedded,
    PathNotDisjoint,
)
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
    """True iff L is a ladder of D: correct row lengths, all required
    arcs present, connectors valid paths, and all vertices distinct."""
    lo, up = L.lower, L.upper
    if len(lo) != len(up) or len(lo) % 2 == 0 or len(lo) < 1:
        return False
    k = L.k
    expected_keys = set(range(1, 2 * k, 2))
    if set(L.connectors.keys()) != expected_keys:
        return False
    seen: list[int] = list(lo) + list(up)
    for i in expected_keys:
        q = L.connectors[i]
        if len(q) < 2 or q[0] != lo[i] or q[-1] != up[i]:
            return False
        if not validate_path(D, q):
            return False
        seen.extend(q[1:-1])
    if len(set(seen)) != len(seen):
        return False
    for v in seen:
        if not (0 <= v < D.n):
            return False
    for i in range(0, 2 * k, 2):
        if not D.has_arc(lo[i], lo[i + 1]) or not D.has_arc(up[i + 1], up[i]):
            return False
    for j in range(1, 2 * k, 2):
        if not D.has_arc(lo[j + 1], lo[j]) or not D.has_arc(up[j], up[j + 1]):
            return False
    return D.has_arc(lo[2 * k], up[2 * k])


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
    interior, v_(i-1)*, v_i*.  Undefined for k = 0.
    """
    if L.k == 0:
        raise DegenerateLadder("a single-arc ladder has no alternative rungs")
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
    j = i + len(seg)
    if j > len(path):
        return None
    return i if tuple(path[i:j]) == tuple(seg) else None


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

    The checks run in this order: `arc` must be a pattern arc
    (NotEmbedded), P a valid path of D (InvalidPath) from the ladder's
    start to its end (EndpointMismatch), every rung a contiguous run of
    arc's path (NotEmbedded), and P's interior disjoint from the whole
    subdivision (PathNotDisjoint).  The result is a subdivision with the
    same pattern and branch map whose vertex set is V(sub) union V(P);
    only arc's path changes.
    """
    if arc not in sub.paths:
        raise NotEmbedded(f"pattern arc {arc} not present in subdivision")
    P = tuple(P)
    if not validate_path(D, P):
        raise InvalidPath("absorbee is not a valid path of the host digraph")
    if P[0] != L.start or P[-1] != L.end:
        raise EndpointMismatch(
            f"path runs {P[0]}..{P[-1]}, ladder expects {L.start}..{L.end}"
        )
    host = sub.paths[arc]
    rungs = rung_paths(L)
    for r in rungs:
        if _find_segment(host, r) is None:
            raise NotEmbedded(f"rung {r} is not a contiguous subpath of the host path")
    met = sub.vertices().intersection(P[1:-1])
    if met:
        raise PathNotDisjoint(f"absorbee interior reuses subdivision vertices {sorted(met)}")
    replacements = (P,) + (alternative_rung_paths(L) if L.k > 0 else ())
    work = list(host)
    for rung, alt in zip(rungs, replacements):
        at = _find_segment(work, rung)
        if at is None:
            raise NotEmbedded(f"rung {rung} vanished during rewiring")
        work[at : at + len(rung)] = list(alt)
    if len(set(work)) != len(work):
        raise PathNotDisjoint("rewired path repeats a vertex")
    return HSubdivision(sub.pattern, dict(sub.branch_map), {**sub.paths, arc: tuple(work)})
