"""Absorber assembly and external-path absorption.

An absorber is a set K of disjoint cover pairs, one ladder per pair, and
one or several pairwise disjoint host subdivisions of the pattern whose
paths carry every ladder.  Its slots name the host paths that must carry
at least one ladder.  A Type-I absorber has one host, with branch map
prescribed and ladders on every path; a Type-II absorber has one host
per tile, with ladders on each host's first path.  Both are built by one
restart loop that differs only in where branch vertices go and which
paths the ladder groups are threaded into.  Once built, any family of up
to d external paths can be swallowed: each path's endpoints are covered
by some unused pair, and the pair's ladder absorbs the extended path
without disturbing branch vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .cover import (
    CoverPairSet,
    build_d_cover,
    build_disjoint_ladders,
    cover_size_formula,
    covers,
    shortest_path_avoiding,
    verify_d_cover,
)
from .digraph import Arc, Digraph, validate_path
from .errors import (
    AbsorberConstructionFailed,
    BadParameter,
    ConnectionFailed,
    CoverConstructionFailed,
    InvalidPath,
    LabelOutOfRange,
    LadderConstructionFailed,
    NoCoveringPair,
    NotDisjoint,
    TooManyPaths,
)
from .expansion import ExpansionParams
from .ladder import (
    EmbeddedLadder,
    Ladder,
    absorb_path,
    ladder_on_path,
    rung_paths,
    validate_ladder,
)
from .ratio import Real, as_fraction, ceil_frac
from .subdivision import (
    HSubdivision,
    LengthPrescription,
    PatternDigraph,
    subdivision_order,
    validate_subdivision,
)

# planning constants for the desk-scale builders: a k=0 ladder occupies
# two vertices and we reserve one more for the connector that follows it
_PAIR_PLAN_COST = 3


def _check_branch_map(H: PatternDigraph, f: Mapping[int, int], n: int) -> None:
    if set(f.keys()) != set(H.underlying.vertices()):
        raise BadParameter("branch map must assign exactly the pattern vertices")
    vals = list(f.values())
    if len(set(vals)) != len(vals):
        raise BadParameter("branch map must be injective")
    for v in vals:
        if not 0 <= v < n:
            raise LabelOutOfRange(f"branch image {v} out of range for n={n}")


@dataclass(frozen=True)
class AbsorberParams:
    xi: Fraction
    d: int


def absorber_params(nu: Real) -> AbsorberParams:
    """The theory-scale parameters: xi = nu^2/32 and d = ceil(64/nu^2).

    At desk scale d is usually overridden; builders accept any d >= 1.
    """
    nu = as_fraction(nu)
    if not 0 < nu <= 1:
        raise BadParameter(f"nu must lie in (0, 1], got {nu}")
    xi = nu * nu / 32
    return AbsorberParams(xi, ceil_frac(2 / xi))


def absorber_size_bound(n: int, nu: Real, gamma: Real, d: int) -> float:
    """Upper bound on |V(A)| guaranteed for built absorbers:
    1600 nu^-2 gamma^-2 (d ln(d gamma^-2) + ln n) + 3 nu^-2 d."""
    nu_f = float(as_fraction(nu))
    g = float(as_fraction(gamma))
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


def _plan_cover_size(
    n: int, gamma: Real, d: int, interior_budgets: Sequence[int], groups: int
) -> int:
    """Pair count: the formula value capped by floor(n/2) and by what the
    group budgets can host at 3 planned vertices per pair."""
    formula_cap = min(cover_size_formula(n, gamma, d), n // 2)
    budget_cap = sum(max(0, b) // _PAIR_PLAN_COST for b in interior_budgets)
    m = min(formula_cap, budget_cap)
    if m < max(groups, d + 2):
        raise AbsorberConstructionFailed(
            f"budget admits only {m} cover pairs; need at least "
            f"max(groups={groups}, d+2={d + 2})"
        )
    return m


def _partition_ladders(
    ladders: Sequence[Ladder], budgets: Sequence[int]
) -> list[list[int]] | None:
    """Greedy bin-fill of ladder indices into one group per budget, largest
    ladder first into the roomiest group; every group must end nonempty."""
    costs = [len(L.vertices()) + 1 for L in ladders]
    order = sorted(range(len(ladders)), key=lambda i: (-costs[i], i))
    remaining = list(budgets)
    groups: list[list[int]] = [[] for _ in budgets]
    for idx in order:
        gi = max(range(len(budgets)), key=lambda g: remaining[g])
        if remaining[gi] < costs[idx]:
            return None
        groups[gi].append(idx)
        remaining[gi] -= costs[idx]
    if any(not g for g in groups):
        return None
    for g in groups:
        g.sort()
    return groups


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
    pieces.  Connector interiors are added to blocked as they are used."""
    blocks: list[tuple[int, ...]] = []
    for L in ladder_group:
        blocks.extend(rung_paths(L))
    full = [start]
    prev = start
    for bi, block in enumerate(blocks + [(end,)]):
        conn = shortest_path_avoiding(D, prev, block[0], blocked, cap, rng)
        if conn is None:
            raise ConnectionFailed(bi)
        blocked.update(conn[1:-1])
        full.extend(conn[1:])
        full.extend(block[1:])
        prev = block[-1]
    return tuple(full)


def _build_absorber(
    D: Digraph,
    p: ExpansionParams,
    d: int,
    seed: int,
    max_restarts: int,
    avoid: set[int],
    plan_budgets: Sequence[int],
    budgets: Sequence[int],
    slots: Sequence[tuple[int, Arc]],
    thread: Callable[[list[list[Ladder]], set[int], int, random.Random], list],
) -> Absorber:
    """The restart loop shared by build_type1_absorber and build_type2_absorber.

    Per restart: a verified d-cover avoiding `avoid` (arcs preferred so
    most ladders are single arcs), disjoint ladders over its pairs, the
    rung-interior cap, and a partition of the ladders into one group per
    budget; `thread` then builds the hosts with group i on slots[i], or
    raises AbsorberConstructionFailed to restart.  The assembled absorber
    must validate and respect the size bound.
    """
    if d < 1:
        raise BadParameter("d must be >= 1")
    n = D.n
    m = _plan_cover_size(n, p.gamma, d, plan_budgets, len(budgets))
    cap = _connector_cap(p.nu)
    removal_cap = int(p.nu * n / 4)
    size_bound = absorber_size_bound(n, p.nu, p.gamma, d)
    last = "exhausted restarts"
    for restart in range(max_restarts):
        s = (seed * 9_176_941 + restart) & 0xFFFFFFFF
        rng = random.Random(s ^ 0x5EED)
        try:
            K = build_d_cover(
                D, range(n), d, p.gamma, s, size=m, prefer_arcs=True, avoid=avoid
            )
            ladders = build_disjoint_ladders(D, K.pairs, p.nu, s, avoid=avoid)
        except (CoverConstructionFailed, LadderConstructionFailed) as e:
            last = str(e)
            continue
        rung_interiors = sum(len(r) - 2 for L in ladders for r in rung_paths(L))
        if rung_interiors > removal_cap:
            last = f"rung interiors ({rung_interiors}) exceed nu*n/4 = {removal_cap}"
            continue
        groups = _partition_ladders(ladders, budgets)
        if groups is None:
            last = "ladder partition failed the per-path budgets"
            continue
        blocked = set(avoid)
        for L in ladders:
            blocked |= L.vertices()
        try:
            hosts = thread([[ladders[i] for i in g] for g in groups], blocked, cap, rng)
        except ConnectionFailed as e:
            last = f"threading failed at connector {e.index}"
            continue
        except AbsorberConstructionFailed as e:
            last = str(e)
            continue
        embedding = {i: slots[gi] for gi, g in enumerate(groups) for i in g}
        A = Absorber(K, ladders, hosts, embedding, d, slots)
        if not validate_absorber(D, A):
            last = "assembled absorber failed validation"
        elif sum(map(subdivision_order, hosts)) > size_bound:
            last = "absorber exceeded the guaranteed size bound"
        else:
            return A
    raise AbsorberConstructionFailed(last)


def build_type1_absorber(
    D: Digraph,
    H: PatternDigraph,
    f: Mapping[int, int],
    N: LengthPrescription | Sequence[int],
    p: ExpansionParams,
    d: int,
    seed: int,
    max_restarts: int = 10,
) -> Absorber:
    """Assemble a Type-I d-absorber: one host subdivision whose branch map
    is exactly f, with a ladder group threaded into every path.

    Cover pairs and ladders avoid f's images.  The host's path for arc i
    ends with at most N_i - 1 vertices so a future absorption can top it
    up to length exactly N_i.
    """
    N = N if isinstance(N, LengthPrescription) else LengthPrescription(tuple(N))
    if len(N) != H.h:
        raise BadParameter(f"{H.h} lengths required, got {len(N)}")
    _check_branch_map(H, f, D.n)
    arcs = H.arc_order

    def thread(groups, blocked, cap, rng):
        paths = {
            a: _thread_group(D, f[a[0]], g, f[a[1]], blocked, cap, rng)
            for a, g in zip(arcs, groups)
        }
        for i, (a, l) in enumerate(zip(arcs, N)):
            if len(paths[a]) > l - 1:
                raise AbsorberConstructionFailed(
                    f"path {i} used {len(paths[a])} vertices, over the budget {l - 1}"
                )
        return [HSubdivision(H, dict(f), paths)]

    return _build_absorber(
        D, p, d, seed, max_restarts, set(f.values()), [l - 4 for l in N],
        [l - 3 for l in N], [(0, a) for a in arcs], thread,
    )


def build_type2_absorber(
    D: Digraph,
    H: PatternDigraph,
    orders: Sequence[int],
    p: ExpansionParams,
    d: int,
    seed: int,
    max_restarts: int = 10,
) -> Absorber:
    """Assemble a Type-II d-absorber: one host subdivision per order, on
    randomly placed branch vertices.

    Host i carries its ladder group threaded into the path of the first
    pattern arc; every other pattern arc becomes a short path.  Host i
    ends with at most orders[i] - 2 vertices, leaving room to absorb a
    path that tops it up to order exactly orders[i].
    """
    k = len(orders)
    if k < 1:
        raise BadParameter("at least one host order required")
    if k > d:
        raise BadParameter(f"k = {k} hosts exceed d = {d}")
    arcs = H.arc_order
    hv = H.underlying.n
    base = hv + 2 * (H.h - 1) + 2  # branch vertices, short arcs, entry/exit slack
    budgets = [o - 2 - base for o in orders]

    def thread(groups, blocked, cap, rng):
        hosts = []
        for hi, group in enumerate(groups):
            free = [v for v in range(D.n) if v not in blocked]
            if len(free) < hv:
                raise AbsorberConstructionFailed("no room left for branch vertices")
            f = dict(zip(range(hv), rng.sample(free, hv)))
            blocked |= set(f.values())
            paths = {
                a: _thread_group(
                    D, f[a[0]], group if a == arcs[0] else (), f[a[1]], blocked, cap, rng
                )
                for a in arcs
            }
            hosts.append(HSubdivision(H, f, paths))
            if subdivision_order(hosts[-1]) > orders[hi] - 2:
                raise AbsorberConstructionFailed(
                    f"host {hi} used {subdivision_order(hosts[-1])} vertices, "
                    f"over the budget {orders[hi] - 2}"
                )
        return hosts

    return _build_absorber(
        D, p, d, seed, max_restarts, set(), budgets, budgets,
        [(hi, arcs[0]) for hi in range(k)], thread,
    )


def validate_absorber(
    D: Digraph, A: Absorber, problems: list[str] | None = None
) -> bool:
    """Re-check every structural invariant of the absorber against D."""
    notes: list[str] = [] if problems is None else problems

    def fail(msg: str) -> bool:
        notes.append(msg)
        return False

    ok = True
    if len(A.ladders) != len(A.pairs):
        ok = fail("ladder/pair count mismatch")
    seen: set[int] = set()
    for i, L in enumerate(A.ladders):
        if not validate_ladder(D, L):
            ok = fail(f"ladder {i} invalid")
            continue
        if i < len(A.pairs.pairs):
            u, v = A.pairs.pairs[i]
            if L.start != u or L.end != v:
                ok = fail(f"ladder {i} does not run {u}->{v}")
        lv = L.vertices()
        if lv & seen:
            ok = fail(f"ladder {i} overlaps an earlier ladder")
        seen |= lv
    if not verify_d_cover(D, A.pairs, range(D.n), A.d):
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


def _match_paths_to_pairs(
    candidates: list[list[int]],
) -> list[int] | int:
    """Maximum bipartite matching (paths to pair indices) by augmenting
    paths; returns the assignment or the first unmatched path index."""
    match_of_pair: dict[int, int] = {}
    assignment: list[int | None] = [None] * len(candidates)

    def augment(i: int, visited: set[int]) -> bool:
        for j in candidates[i]:
            if j in visited:
                continue
            visited.add(j)
            if j not in match_of_pair or augment(match_of_pair[j], visited):
                match_of_pair[j] = i
                assignment[i] = j
                return True
        return False

    for i in range(len(candidates)):
        if not augment(i, set()):
            return i
    return [j for j in assignment if j is not None]


def absorb_paths(
    D: Digraph,
    A: Absorber,
    paths: Sequence[Sequence[int]],
    targets: Sequence[Arc] | Sequence[int] | None = None,
) -> list[HSubdivision]:
    """Swallow up to d pairwise disjoint external paths into the absorber.

    Each path x...y is matched to an unused cover pair (u, v) with arcs
    u->x and y->v, extended to u x...y v, and absorbed through the
    pair's ladder.  A target names where path i must land: a pattern
    arc of a one-host absorber, a host index of a several-host one.
    Without targets a one-host absorber may use any pair and a
    several-host one puts path i into host i.  Returns every host,
    enlarged by the paths it absorbed.
    """
    plist = [tuple(p) for p in paths]
    if len(plist) > A.d:
        raise TooManyPaths(f"{len(plist)} paths exceed d = {A.d}")
    av = A.vertices()
    taken: set[int] = set()
    for i, p in enumerate(plist):
        if not validate_path(D, p):
            raise InvalidPath(f"path {i} is not a valid path of the digraph")
        pv = set(p)
        if pv & av:
            raise NotDisjoint(f"path {i} meets the absorber")
        if pv & taken:
            raise NotDisjoint(f"path {i} meets an earlier path")
        taken |= pv
    part = 1 if len(A.hosts) == 1 else 0  # the slot field a target names
    if targets is None:
        if not part and len(plist) > len(A.hosts):
            raise TooManyPaths(f"{len(plist)} paths exceed the {len(A.hosts)} hosts")
        targets = range(len(plist)) if not part else [None] * len(plist)
    keys = [slot[part] for slot in A.slots]
    if len(targets) != len(plist) or any(
        t is not None and t not in keys for t in targets
    ):
        raise BadParameter(
            "one target per path required, naming a host path that carries ladders"
        )
    candidates: list[list[int]] = []
    for i, p in enumerate(plist):
        cand = [
            j
            for j, pair in enumerate(A.pairs.pairs)
            if covers(D, pair, (p[0], p[-1]))
            and (targets[i] is None or A.embedding[j][part] == targets[i])
        ]
        if not cand:
            raise NoCoveringPair(i)
        candidates.append(cand)
    result = _match_paths_to_pairs(candidates)
    if isinstance(result, int):
        raise NoCoveringPair(result)
    assert len(set(result)) == len(result), "a cover pair was reused"
    subs = list(A.hosts)
    for p, j in zip(plist, result):
        L = A.ladders[j]
        hi, arc = A.embedding[j]
        subs[hi] = absorb_path(
            D, subs[hi], EmbeddedLadder(L, arc), (L.start,) + p + (L.end,)
        )
    return subs
