"""Absorber assembly and external-path absorption.

An absorber is a set of disjoint ladders, whose ends (start, end) are
the cover pairs K, and one or several pairwise disjoint host
subdivisions of the pattern whose paths carry every ladder.  A slot
(host index, pattern arc) names one host path; slots lists distinct
ones, and ladder j sits on slots[j % len(slots)], the one record of
where it lies.  Both builders run one
assembly and differ only in their branch maps and slots: a Type-I
absorber has one host on the prescribed branch map with a slot per
pattern arc; a Type-II absorber has k hosts on branch vertices drawn at
random, with a slot on each host's first path.  Each makes one attempt
per seed: K is grown until it d-covers V(D), so its size follows the
digraph.  Neither builder knows the lengths or orders the hosts must
reach; the pipelines check that each slot leaves room to absorb a
segment.  Hosts are threaded on one bool mask of free vertices.  A
failed step raises its own ConstructionFailed, and only the pipelines
retry.  Once built, an absorber swallows any d or fewer
disjoint outside paths of two or more vertices, by counting: K d-covers
V(D), so each path's ends have d covering pairs, at most d - 1 taken by
the other paths.  Each path takes the first free pair covering its ends
(on the slot it names, if any; distinct slots hold disjoint pairs),
whose ladder absorbs the extended path without disturbing branch
vertices.  cut_absorbable_segments cuts a cycle where every segment has
a covering pair on its slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
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
from .errors import BadParameter, ConstructionFailed
from .expansion import ExpansionParams
from .ladder import (
    Ladder,
    absorb_path,
    ladder_on_path,
    rung_paths,
    validate_ladder,
)
from .ratio import Real, as_count, as_density
from .subdivision import (
    HSubdivision,
    PatternDigraph,
    check_branch_map,
    subdivision_order,
    validate_subdivision,
)


def absorber_size_bound(n: int, nu: Real, gamma: Real, d: int) -> float:
    """Upper bound on |V(A)| guaranteed for built absorbers:
    1600 nu^-2 gamma^-2 (d ln(d gamma^-2) + ln n) + 3 nu^-2 d.
    Needs n, d >= 1, nu in (0, 1] and gamma in (0, 1)."""
    nu_f = float(as_density(nu, "nu", closed=True))
    g = float(as_density(gamma, "gamma"))
    n, d = as_count(n, "n"), as_count(d, "d")
    return 1600 * nu_f**-2 * g**-2 * (d * math.log(d * g**-2) + math.log(n)) + 3 * nu_f**-2 * d


@dataclass(frozen=True)
class Absorber:
    """Ladders and pairwise disjoint host subdivisions carrying them.

    Ladder j's rungs lie on the path of slots[j % len(slots)], a
    (host index, pattern arc); the slots are nonempty and distinct.
    The cover pairs K are the ladders' ends: pairs lists each ladder's
    (start, end) in order, and ladders sharing an end raise BadParameter,
    as does a d that is not an integer >= 1.
    """

    ladders: tuple[Ladder, ...]
    hosts: tuple[HSubdivision, ...]
    d: int
    slots: tuple[tuple[int, Arc], ...]
    pairs: CoverPairSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ladders", tuple(self.ladders))
        object.__setattr__(self, "hosts", tuple(self.hosts))
        object.__setattr__(self, "slots", tuple(self.slots))
        object.__setattr__(self, "pairs", CoverPairSet([(L.start, L.end) for L in self.ladders]))
        if not self.slots or len(set(self.slots)) != len(self.slots):
            raise BadParameter("at least one slot required, and no slot twice")
        if not self.hosts:
            raise BadParameter("at least one host subdivision required")
        object.__setattr__(self, "d", as_count(self.d, "d"))

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
    free: np.ndarray,
    cap: int,
    rng: random.Random,
) -> tuple[int, ...]:
    """One subdivided path: start, then every rung of every ladder in
    order, then end, with short connectors routed between consecutive
    pieces, each interior drawn from the bool mask free and cleared in
    it; a connector that cannot be routed raises ConstructionFailed."""
    blocks = [r for L in ladder_group for r in rung_paths(L)]
    full = [start]
    for bi, block in enumerate(blocks + [(end,)]):
        conn = shortest_path_avoiding(D, full[-1], block[0], free, cap, rng)
        if conn is None:
            raise ConstructionFailed(f"threading failed at connector {bi}")
        free[list(conn[1:-1])] = False
        full.extend(conn[1:])
        full.extend(block[1:])
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
    avoid = [v for f in maps for v in f.values()]
    K = build_d_cover(D, d, s, avoid=avoid)
    ladders = build_disjoint_ladders(D, K.pairs, p.nu, s, avoid=avoid)
    rung_interiors = sum(len(r) - 2 for L in ladders for r in rung_paths(L))
    if rung_interiors > removal_cap:
        raise ConstructionFailed(
            f"rung interiors ({rung_interiors}) exceed nu*n/4 = {removal_cap}"
        )
    free = np.ones(n, dtype=bool)  # what connectors may route through
    free[[*avoid, *(v for L in ladders for v in L.vertices())]] = False
    cap = _connector_cap(p.nu)
    groups = {slot: ladders[g::len(slots)] for g, slot in enumerate(slots)}
    hosts = [
        HSubdivision(H, dict(f), {
            a: _thread_group(D, f[a[0]], groups.get((hi, a), ()), f[a[1]], free, cap, rng)
            for a in H.arc_order
        })
        for hi, f in enumerate(maps)
    ]
    A = Absorber(ladders, hosts, d, slots)
    problems: list[str] = []
    if not validate_absorber(D, A, problems):
        raise ConstructionFailed("absorber failed validation: " + "; ".join(problems))
    if sum(map(subdivision_order, hosts)) > absorber_size_bound(n, p.nu, p.gamma, d):
        raise ConstructionFailed("absorber exceeded the guaranteed size bound")
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
    seed = as_count(seed, "seed", least=None)
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
    k, d, seed = as_count(k, "k"), as_count(d, "d"), as_count(seed, "seed", least=None)
    if k > d:
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

    ok = True
    seen: set[int] = set()
    for i, L in enumerate(A.ladders):
        if not validate_ladder(D, L):
            ok = fail(f"ladder {i} invalid")
            continue
        lv = L.vertices()
        if lv & seen:
            ok = fail(f"ladder {i} overlaps an earlier ladder")
        seen |= lv
    if not verify_d_cover(D, A.pairs, A.d):
        ok = fail(f"K is not a {A.d}-cover of the whole vertex set")
    in_hosts: set[int] = set()
    for hi, host in enumerate(A.hosts):
        if not validate_subdivision(D, host):
            ok = fail(f"host {hi} subdivision invalid")
        hv = host.vertices()
        if hv & in_hosts:
            ok = fail(f"host {hi} overlaps an earlier host")
        in_hosts |= hv
    for g, (hi, arc) in enumerate(A.slots):
        if not 0 <= hi < len(A.hosts) or arc not in A.hosts[hi].paths:
            ok = fail(f"slot {g} names no host path")
        elif g >= len(A.ladders):
            ok = fail(f"host {hi} arc {arc} carries no ladder")
        elif not all(ladder_on_path(L, A.hosts[hi].paths[arc]) for L in A.ladders[g::len(A.slots)]):
            ok = fail(f"a ladder of slot {g} is not embedded in host {hi} arc {arc}")
    return ok


def cut_absorbable_segments(
    D: Digraph, A: Absorber, C: Sequence[int], sizes: Sequence[int], seed: int = 0
) -> list[tuple[int, ...]]:
    """Cut consecutive subpaths of the given vertex counts from a cycle C
    outside the absorber, segment i for slot i, at a seed-chosen offset
    where the ends of each segment are covered by a pair whose ladder
    sits on its slot.  Every offset is tested at once; ConstructionFailed
    says that no offset serves segments 0..i together.  A size below 1,
    a non-integer size or seed, a C of fewer than 2 vertices, more sizes
    than slots, sizes summing past |C| or a C meeting V(A) raises
    BadParameter, a label of C outside 0..n-1 LabelOutOfRange.
    """
    sizes = [as_count(s, "every segment size") for s in sizes]
    seed = as_count(seed, "seed", least=None)
    check_labels(D.n, C)
    if len(C) < 2:
        raise BadParameter("a cycle needs at least 2 vertices")
    if A.vertices().intersection(C):
        raise BadParameter("the cycle meets the absorber")
    if len(sizes) > len(A.slots):
        raise BadParameter(f"{len(sizes)} segments exceed the {len(A.slots)} slots")
    if sum(sizes) > len(C):
        raise BadParameter(f"segment sizes sum to {sum(sizes)} > {len(C)} cycle vertices")
    P, Q = cover_arcs(D.bool_matrix(), A.pairs.pairs)
    s = len(A.slots)
    C = np.asarray(C, dtype=np.intp)
    works = np.ones(len(C), dtype=bool)  # works[o]: offset o serves the segments so far
    start = 0
    for i, size in enumerate(sizes):  # slot i holds pairs i, i + s, ...
        x, y = np.roll(C, -start), np.roll(C, 1 - start - size)  # the ends, by offset
        works &= (size > 1) & (P[i::s, x] & Q[i::s, y]).any(axis=0)
        if not works.any():
            raise ConstructionFailed(f"no cycle offset gives segments 0..{i} covering pairs")
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
        raise BadParameter(f"{len(plist)} paths exceed d = {d}")
    taken: set[int] = set()
    for i, p in enumerate(plist):
        check_labels(D.n, p, f"path {i} has a label")
        if len(p) < 2:
            raise BadParameter(f"path {i} has fewer than 2 vertices")
        if not validate_path(D, p):
            raise BadParameter(f"path {i} is not a valid path of the digraph")
        if taken.intersection(p):
            raise BadParameter(f"path {i} meets an earlier path")
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
    None); the first path left without one raises ConstructionFailed
    naming i before any host changes.  Then each path, extended to
    u x...y v, is absorbed through its pair's ladder into the host path
    carrying it.  First fit is exact: distinct slots hold disjoint pairs,
    and without slots the d-cover leaves each path a free pair.  A
    repeated slot, or one not in A.slots, raises BadParameter.  Returns
    every host, enlarged by the paths it absorbed.
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
            raise BadParameter(f"path {i} meets the absorber")
    P, Q = cover_arcs(D.bool_matrix(), A.pairs.pairs)
    s = len(A.slots)
    picks: list[int] = []
    for i, p in enumerate(plist):
        cov = P[:, p[0]] & Q[:, p[-1]]  # x != y: p has 2 or more vertices
        if slots is not None:
            cov &= np.arange(len(cov)) % s == A.slots.index(slots[i])
        cov[picks] = False
        if not cov.any():
            raise ConstructionFailed(f"no unused covering pair for path #{i}")
        picks.append(int(cov.argmax()))
    subs = list(A.hosts)
    for p, j in zip(plist, picks):
        L = A.ladders[j]
        hi, arc = A.slots[j % s]
        subs[hi] = absorb_path(D, subs[hi], L, arc, (L.start,) + p + (L.end,))
    return subs
