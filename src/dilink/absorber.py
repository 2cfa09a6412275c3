"""Absorber assembly and external-path absorption.

An absorber is a set K of disjoint cover pairs, one ladder per pair, and
one or several pairwise disjoint host subdivisions of the pattern whose
paths carry every ladder.  A slot (host index, pattern arc) names one
host path; embedding gives each ladder's slot, and slots lists those
that must carry at least one ladder.  Both builders run one assembly and
differ only in their branch maps and slots: a Type-I absorber has one
host on the prescribed branch map with a slot per pattern arc; a
Type-II absorber has k hosts on branch vertices drawn at random, with a
slot on each host's first path.  Each makes one attempt per seed: K is
grown until it d-covers V(D), so its size follows the digraph, and its
ladders are dealt round robin over the slots.  Neither builder knows
the lengths or orders the hosts must reach; the pipelines check that
each slot leaves room to absorb a segment.  A failed step raises its own
ConstructionFailed, and only the pipelines retry.  Once built, an
absorber swallows any d or fewer disjoint outside paths of two or more
vertices, by counting: K d-covers V(D), so each path's ends have d
covering pairs, at most d - 1 taken by the other paths.  Each path takes
the first free pair covering its ends (on the slot it names, if any;
distinct slots hold disjoint pairs), whose ladder absorbs the extended
path without disturbing branch vertices.  cut_absorbable_segments cuts a
cycle where every segment has a covering pair on its slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .cover import (
    CoverPairSet,
    build_d_cover,
    build_disjoint_ladders,
    cover_arcs,
    shortest_path_avoiding,
    verify_d_cover,
)
from .digraph import Arc, Digraph, check_labels, validate_path
from .errors import (
    AbsorberConstructionFailed,
    BadParameter,
    InvalidPath,
    NoCoveringPair,
    NotDisjoint,
    SizesExceedCycle,
    TooManyPaths,
)
from .expansion import ExpansionParams
from .ladder import (
    Ladder,
    absorb_path,
    ladder_on_path,
    rung_paths,
    validate_ladder,
)
from .ratio import Real, as_density, ceil_frac
from .subdivision import (
    HSubdivision,
    PatternDigraph,
    check_branch_map,
    subdivision_order,
    validate_subdivision,
)


@dataclass(frozen=True)
class AbsorberParams:
    xi: Fraction
    d: int


def absorber_params(nu: Real) -> AbsorberParams:
    """The theory-scale parameters: xi = nu^2/32 and d = ceil(64/nu^2).

    At desk scale d is usually overridden; builders accept any d >= 1.
    """
    nu = as_density(nu, "nu", closed=True)
    xi = nu * nu / 32
    return AbsorberParams(xi, ceil_frac(2 / xi))


def absorber_size_bound(n: int, nu: Real, gamma: Real, d: int) -> float:
    """Upper bound on |V(A)| guaranteed for built absorbers:
    1600 nu^-2 gamma^-2 (d ln(d gamma^-2) + ln n) + 3 nu^-2 d.
    Needs n, d >= 1, nu in (0, 1] and gamma in (0, 1)."""
    nu_f = float(as_density(nu, "nu", closed=True))
    g = float(as_density(gamma, "gamma"))
    if n < 1 or d < 1:
        raise BadParameter(f"n and d must be >= 1, got n = {n}, d = {d}")
    return 1600 * nu_f**-2 * g**-2 * (d * math.log(d * g**-2) + math.log(n)) + (
        3 * nu_f**-2 * d
    )


@dataclass(frozen=True)
class Absorber:
    """Cover pairs, one ladder per pair, and pairwise disjoint host
    subdivisions carrying the ladders.

    embedding maps ladder i to the (host index, pattern arc) slot whose
    path holds its rungs; slots lists the host paths that must carry at
    least one ladder.
    """

    pairs: CoverPairSet
    ladders: tuple[Ladder, ...]
    hosts: tuple[HSubdivision, ...]
    embedding: Mapping[int, tuple[int, Arc]]
    d: int
    slots: tuple[tuple[int, Arc], ...]

    def __post_init__(self):
        object.__setattr__(self, "ladders", tuple(self.ladders))
        object.__setattr__(self, "hosts", tuple(self.hosts))
        object.__setattr__(self, "embedding", dict(self.embedding))
        object.__setattr__(self, "slots", tuple(self.slots))
        if len(self.ladders) != len(self.pairs):
            raise BadParameter("one ladder per cover pair required")
        if not self.hosts:
            raise BadParameter("at least one host subdivision required")
        if self.d < 1:
            raise BadParameter("d must be >= 1")

    def vertices(self) -> frozenset[int]:
        return frozenset().union(*(h.vertices() for h in self.hosts))


def _connector_cap(nu: Fraction) -> int:
    """Order cap for threading connectors, floor(2/nu + 1), clamped to
    keep breadth-first routing shallow at desk scale."""
    return max(3, min(int(2 / nu + 1), 8))


def _thread_group(
    D: Digraph,
    start: int,
    ladder_group: Sequence[Ladder],
    end: int,
    blocked: set[int],
    cap: int,
    rng: random.Random,
) -> tuple[int, ...]:
    """One subdivided path: start, then every rung of every ladder in
    order, then end, with short connectors routed between consecutive
    pieces.  Connector interiors are added to blocked as they are used;
    a connector that cannot be routed raises AbsorberConstructionFailed."""
    blocks: list[tuple[int, ...]] = []
    for L in ladder_group:
        blocks.extend(rung_paths(L))
    full = [start]
    prev = start
    for bi, block in enumerate(blocks + [(end,)]):
        conn = shortest_path_avoiding(D, prev, block[0], blocked, cap, rng)
        if conn is None:
            raise AbsorberConstructionFailed(f"threading failed at connector {bi}")
        blocked.update(conn[1:-1])
        full.extend(conn[1:])
        full.extend(block[1:])
        prev = block[-1]
    return tuple(full)


def _build_absorber(
    D: Digraph,
    H: PatternDigraph,
    maps: Sequence[Mapping[int, int]],
    slots: Sequence[tuple[int, Arc]],
    p: ExpansionParams,
    d: int,
    seed: int,
) -> Absorber:
    """The one attempt shared by build_type1_absorber and build_type2_absorber.

    A d-cover of V(D) grown pair by pair outside every branch image
    (arcs preferred, so most ladders are single arcs), disjoint ladders
    over its pairs, the rung-interior cap, and one host per branch map
    maps[i]: every pattern arc is threaded in turn, slots[g] with ladder
    group g (the ladders dealt round robin over the slots) and any other
    arc with none.  The absorber must validate and respect the size
    bound.  A failed step raises its own ConstructionFailed (the cover's
    is exact when no d-cover exists); nothing here retries, and how much
    room each host leaves is for the caller to judge.
    """
    n = D.n
    removal_cap = int(p.nu * n / 4)
    s = (seed * 9_176_941) & 0xFFFFFFFF
    rng = random.Random(s ^ 0x5EED)
    avoid = set().union(*(f.values() for f in maps))
    K = build_d_cover(D, d, s, avoid=avoid)
    ladders = build_disjoint_ladders(D, K.pairs, p.nu, s, avoid=avoid)
    rung_interiors = sum(len(r) - 2 for L in ladders for r in rung_paths(L))
    if rung_interiors > removal_cap:
        raise AbsorberConstructionFailed(
            f"rung interiors ({rung_interiors}) exceed nu*n/4 = {removal_cap}"
        )
    blocked = avoid.union(*(L.vertices() for L in ladders))
    cap = _connector_cap(p.nu)
    groups = {slot: ladders[g::len(slots)] for g, slot in enumerate(slots)}
    hosts = [
        HSubdivision(H, dict(f), {
            a: _thread_group(D, f[a[0]], groups.get((hi, a), ()), f[a[1]], blocked, cap, rng)
            for a in H.arc_order
        })
        for hi, f in enumerate(maps)
    ]
    embedding = {i: slots[i % len(slots)] for i in range(len(ladders))}
    A = Absorber(K, ladders, hosts, embedding, d, slots)
    if not validate_absorber(D, A):
        raise AbsorberConstructionFailed("assembled absorber failed validation")
    if sum(map(subdivision_order, hosts)) > absorber_size_bound(n, p.nu, p.gamma, d):
        raise AbsorberConstructionFailed("absorber exceeded the guaranteed size bound")
    return A


def build_type1_absorber(
    D: Digraph,
    H: PatternDigraph,
    f: Mapping[int, int],
    p: ExpansionParams,
    d: int,
    seed: int,
) -> Absorber:
    """Assemble a Type-I d-absorber: one host subdivision whose branch map
    is exactly f, with a ladder group threaded into every path, so each
    pattern arc is a slot.  Cover pairs and ladders avoid f's images.
    A failed step raises its own ConstructionFailed."""
    check_branch_map(H, f, D.n)
    return _build_absorber(D, H, [f], [(0, a) for a in H.arc_order], p, d, seed)


def build_type2_absorber(
    D: Digraph,
    H: PatternDigraph,
    k: int,
    p: ExpansionParams,
    d: int,
    seed: int,
) -> Absorber:
    """Assemble a Type-II d-absorber: k disjoint host subdivisions on
    branch vertices drawn uniformly from V(D) (seeded by seed) before the
    cover is grown, which then avoids them as Type I avoids f's images.
    Host i carries its ladder group on the path of the first pattern
    arc, the slot (i, first arc); every other pattern arc becomes a short
    path.  Needs 1 <= k <= d and k |V(H)| <= n.  A failed step raises
    its own ConstructionFailed."""
    hv = H.underlying.n
    if not 1 <= k <= d:
        raise BadParameter(f"k = {k} hosts must lie in 1..d = {d}")
    if k * hv > D.n:
        raise BadParameter(f"{k} hosts need {k * hv} branch vertices, more than n = {D.n}")
    images = random.Random(seed).sample(range(D.n), k * hv)
    maps = [dict(zip(range(hv), images[i * hv:(i + 1) * hv])) for i in range(k)]
    return _build_absorber(D, H, maps, [(i, H.arc_order[0]) for i in range(k)], p, d, seed)


def validate_absorber(
    D: Digraph, A: Absorber, problems: list[str] | None = None
) -> bool:
    """Re-check every structural invariant of the absorber against D.

    K's d-cover is verified afresh by verify_d_cover's matrix product,
    independently of the incremental count that grew it."""
    notes: list[str] = [] if problems is None else problems

    def fail(msg: str) -> bool:
        notes.append(msg)
        return False

    ok = True  # Absorber itself holds one ladder per pair
    seen: set[int] = set()
    for i, ((u, v), L) in enumerate(zip(A.pairs, A.ladders)):
        if not validate_ladder(D, L):
            ok = fail(f"ladder {i} invalid")
            continue
        if L.start != u or L.end != v:
            ok = fail(f"ladder {i} does not run {u}->{v}")
        lv = L.vertices()
        if lv & seen:
            ok = fail(f"ladder {i} overlaps an earlier ladder")
        seen |= lv
    if not verify_d_cover(D, A.pairs, None, A.d):
        ok = fail(f"K is not a {A.d}-cover of the whole vertex set")
    in_hosts: set[int] = set()
    for hi, host in enumerate(A.hosts):
        if not validate_subdivision(D, host):
            ok = fail(f"host {hi} subdivision invalid")
        hv = host.vertices()
        if hv & in_hosts:
            ok = fail(f"host {hi} overlaps an earlier host")
        in_hosts |= hv
    carried: set[tuple[int, Arc]] = set()
    for i, L in enumerate(A.ladders):
        spot = A.embedding.get(i)
        if spot is None:
            ok = fail(f"ladder {i} has no host path assigned")
            continue
        hi, arc = spot
        if not 0 <= hi < len(A.hosts) or arc not in A.hosts[hi].paths:
            ok = fail(f"ladder {i} assigned to a nonexistent host path")
            continue
        if not ladder_on_path(L, A.hosts[hi].paths[arc]):
            ok = fail(f"ladder {i} is not embedded in host {hi} arc {arc}")
            continue
        carried.add((hi, arc))
    missing = set(A.slots) - carried
    if missing:
        ok = fail(f"host paths without any ladder: {sorted(missing)}")
    return ok


def _covering(
    D: Digraph, A: Absorber, x: Sequence[int], y: Sequence[int], slot: tuple[int, Arc] | None
) -> np.ndarray:
    """cov[j, t]: A's pair j covers the ends (x[t], y[t]), read from
    cover_arcs, and its ladder sits on `slot` (any slot when None)."""
    P, Q = cover_arcs(D.bool_matrix(), A.pairs.pairs)
    x, y = np.asarray(x, dtype=np.intp), np.asarray(y, dtype=np.intp)
    cov = P[:, x] & Q[:, y] & (x != y)
    if slot is not None:
        cov &= np.array([A.embedding[j] == slot for j in range(len(A.pairs))], dtype=bool)[:, None]
    return cov


def cut_absorbable_segments(
    D: Digraph, A: Absorber, C: Sequence[int], sizes: Sequence[int], seed: int = 0
) -> list[tuple[int, ...]]:
    """Cut consecutive subpaths of the given vertex counts from a cycle C
    outside the absorber, segment i for slot i, at a seed-chosen offset
    where the ends of each segment are covered by a pair whose ladder
    sits on its slot.  Every offset is tested at once; NoCoveringPair(i)
    says that no offset serves segments 0..i together.  A label of C
    outside 0..n-1 raises LabelOutOfRange, a C meeting V(A) NotDisjoint.
    """
    check_labels(D.n, C)
    if A.vertices().intersection(C):
        raise NotDisjoint("the cycle meets the absorber")
    if len(sizes) > len(A.slots):
        raise TooManyPaths(f"{len(sizes)} segments exceed the {len(A.slots)} slots")
    if sum(sizes) > len(C):
        raise SizesExceedCycle(f"segment sizes sum to {sum(sizes)} > {len(C)} cycle vertices")
    C = np.asarray(C, dtype=np.intp)
    works = np.ones(len(C), dtype=bool)  # works[o]: offset o serves the segments so far
    start = 0
    for i, (slot, size) in enumerate(zip(A.slots, sizes)):
        x, y = np.roll(C, -start), np.roll(C, 1 - start - size)  # the ends, by offset
        works &= (size > 1) & _covering(D, A, x, y, slot).any(axis=0)
        if not works.any():
            raise NoCoveringPair(i, f"no cycle offset gives segments 0..{i} covering pairs")
        start += size
    ring = np.roll(C, -random.Random(seed).choice(np.flatnonzero(works).tolist())).tolist()
    return [tuple(ring[e - size:e]) for e, size in zip(np.cumsum(sizes).tolist(), sizes)]


def check_paths(
    D: Digraph, paths: Sequence[Sequence[int]], d: int
) -> list[tuple[int, ...]]:
    """The checks absorb_paths makes before it looks at an absorber: at
    most d paths, each a valid path of D of 2 or more vertices, pairwise
    disjoint.  Returns the paths as tuples."""
    plist = [tuple(p) for p in paths]
    if len(plist) > d:
        raise TooManyPaths(f"{len(plist)} paths exceed d = {d}")
    taken: set[int] = set()
    for i, p in enumerate(plist):
        check_labels(D.n, p, f"path {i} has a label")
        if len(p) < 2:
            raise InvalidPath(f"path {i} has fewer than 2 vertices")
        if not validate_path(D, p):
            raise InvalidPath(f"path {i} is not a valid path of the digraph")
        if taken.intersection(p):
            raise NotDisjoint(f"path {i} meets an earlier path")
        taken.update(p)
    return plist


def absorb_paths(
    D: Digraph,
    A: Absorber,
    paths: Sequence[Sequence[int]],
    slots: Sequence[tuple[int, Arc]] | None = None,
) -> list[HSubdivision]:
    """Swallow up to d pairwise disjoint external paths into the absorber.

    Path i, x...y, takes the lowest-index unused pair (u, v) with arcs
    u->x and y->v whose ladder sits on slots[i] (any slot when slots is
    None); the first path left without one raises NoCoveringPair(i)
    before any host changes.  Then each path, extended to u x...y v, is
    absorbed through its pair's ladder into the host path carrying it.
    First fit is exact: distinct slots hold disjoint pairs, and without
    slots the d-cover leaves each path a free pair.  A repeated slot, or
    one not in A.slots, raises BadParameter.  Returns every host,
    enlarged by the paths it absorbed.
    """
    plist = check_paths(D, paths, A.d)
    if slots is not None and (
        len(slots) != len(plist)
        or any(s not in A.slots for s in slots)
        or len(set(slots)) != len(slots)
    ):
        raise BadParameter("one distinct slot per path required, each an absorber slot")
    av = A.vertices()
    for i, p in enumerate(plist):
        if av.intersection(p):
            raise NotDisjoint(f"path {i} meets the absorber")
    picks: list[int] = []
    for i, p in enumerate(plist):
        cov = _covering(D, A, p[:1], p[-1:], None if slots is None else slots[i])[:, 0]
        cov[picks] = False
        if not cov.any():
            raise NoCoveringPair(i)
        picks.append(int(cov.argmax()))
    subs = list(A.hosts)
    for p, j in zip(plist, picks):
        L = A.ladders[j]
        hi, arc = A.embedding[j]
        subs[hi] = absorb_path(D, subs[hi], L, arc, (L.start,) + p + (L.end,))
    return subs
