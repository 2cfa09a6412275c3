"""Shared test machinery: synthetic instances and independent oracles.

The oracles re-derive each property straight from its definition using
nothing but the public Digraph accessors, so they check library results
against independently written logic rather than against the code under
test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from dilink import (
    Digraph,
    HSubdivision,
    Ladder,
    pattern_from_arcs,
)
from dilink.cover import _random_pairs
from dilink.errors import BadParameter, LabelOutOfRange, LoopArc

# filled by the acceptance tests, echoed by conftest's terminal-summary hook
ACCEPTANCE_LINES: list[str] = []

PATTERN_SHAPES = {
    "arc": ((0, 1),),
    "digon": ((0, 1), (1, 0)),
    "triangle": ((0, 1), (1, 2), (2, 0)),
}


# --------------------------------------------------------------------------
# synthetic embedded-ladder instances
# --------------------------------------------------------------------------


class _Alloc:
    """Hands out fresh vertex ids."""

    def __init__(self):
        self.count = 0

    def take(self, k: int = 1) -> list[int]:
        out = list(range(self.count, self.count + k))
        self.count += k
        return out


def _ladder_rungs(lower, upper, connectors):
    """Rungs recomputed from first principles (not via the library)."""
    k = (len(lower) - 1) // 2
    rungs = []
    for i in range(0, 2 * k, 2):
        rungs.append((lower[i],) + tuple(connectors[i + 1]) + (upper[i],))
    rungs.append((lower[2 * k], upper[2 * k]))
    return rungs


def make_ladder_instance(rng: random.Random, k: int, shape: str | None = None):
    """A random digraph holding a pattern subdivision with a ladder
    embedded in one of its paths, plus an internally disjoint absorbee.

    Returns (D, sub, L, arc, P) where L is the ladder, arc the pattern
    arc whose path carries it, and P runs from the ladder's start to its
    end.
    """
    if shape is None:
        shape = rng.choice(sorted(PATTERN_SHAPES))
    pattern_arcs = PATTERN_SHAPES[shape]
    alloc = _Alloc()
    arcs: set[tuple[int, int]] = set()

    def chain(seq):
        arcs.update(zip(seq, seq[1:]))

    # ladder rows and connectors
    lower = alloc.take(2 * k + 1)
    upper = alloc.take(2 * k + 1)
    connectors: dict[int, tuple[int, ...]] = {}
    for i in range(1, 2 * k, 2):
        interior = alloc.take(rng.randrange(3))
        connectors[i] = (lower[i], *interior, upper[i])
        chain(connectors[i])
    for i in range(0, 2 * k, 2):
        arcs.add((lower[i], lower[i + 1]))
        arcs.add((upper[i + 1], upper[i]))
    for j in range(1, 2 * k, 2):
        arcs.add((lower[j + 1], lower[j]))
        arcs.add((upper[j], upper[j + 1]))
    arcs.add((lower[2 * k], upper[2 * k]))

    # branch vertices and the host path carrying the rungs in order
    n_branch = 1 + max(v for a in pattern_arcs for v in a)
    branch = alloc.take(n_branch)
    host_arc = pattern_arcs[rng.randrange(len(pattern_arcs))]
    host: list[int] = [branch[host_arc[0]]]
    for rung in _ladder_rungs(lower, upper, connectors):
        host.extend(alloc.take(rng.randrange(3)))
        host.extend(rung)
    host.extend(alloc.take(rng.randrange(3)))
    host.append(branch[host_arc[1]])
    chain(host)

    # remaining pattern arcs become short fresh paths
    paths = {tuple(host_arc): tuple(host)}
    for a in pattern_arcs:
        if tuple(a) == tuple(host_arc):
            continue
        p = (branch[a[0]], *alloc.take(rng.randrange(1, 4)), branch[a[1]])
        chain(p)
        paths[tuple(a)] = p

    # absorbee: ladder start -> fresh interior -> ladder end
    P = (lower[0], *alloc.take(rng.randrange(5)), upper[0])
    chain(P)

    # noise arcs, then a random relabelling so positions carry no signal
    n = alloc.count
    for _ in range(rng.randrange(2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)

    def rl(seq):
        return tuple(perm[x] for x in seq)

    D = Digraph(n, [(perm[u], perm[v]) for u, v in arcs])
    L = Ladder(rl(lower), rl(upper), {i: rl(q) for i, q in connectors.items()})
    sub = HSubdivision(
        pattern_from_arcs(pattern_arcs),
        {i: perm[b] for i, b in enumerate(branch)},
        {a: rl(p) for a, p in paths.items()},
    )
    return D, sub, L, tuple(host_arc), rl(P)


# --------------------------------------------------------------------------
# definition checkers
# --------------------------------------------------------------------------


def oracle_robust_outexpander(D: Digraph, nu, tau):
    """First violating set of the robust out-expansion definition, or None.

    Enumerates every S with tau*n < |S| < (1-tau)*n in (size, lex) order;
    a vertex belongs to the robust out-neighbourhood of S when it has at
    least nu*n in-neighbours inside S.  All comparisons are exact.
    """
    nu, tau = Fraction(nu), Fraction(tau)
    n = D.n
    M = D.bool_matrix()
    ins = [set(np.flatnonzero(M[:, x]).tolist()) for x in range(n)]
    for size in range(n + 1):
        if not tau * n < size < (1 - tau) * n:
            continue
        for S in combinations(range(n), size):
            sset = set(S)
            rn = sum(1 for x in range(n) if len(ins[x] & sset) >= nu * n)
            if rn < size + nu * n:
                return frozenset(S)
    return None


def oracle_min_violating_set(D: Digraph, nu, tau):
    """The (size, lex)-minimum set violating robust out-expansion, or None.

    Every subset S is a bitmask; vertex x has popcount(S & in-mask of x)
    in-neighbours inside S, taken for all masks at once.  Comparisons are
    cross-multiplied, so exact.  Fast enough for n <= 20, where
    oracle_robust_outexpander is not.
    """
    nu, tau = Fraction(nu), Fraction(tau)
    n = D.n
    masks = np.arange(1 << n, dtype=np.int64)
    size = np.bitwise_count(masks).astype(np.int64)
    reach = np.zeros(1 << n, dtype=np.int64)  # |RN+(S)| for every S
    for x in range(n):
        in_mask = sum(1 << u for u in np.flatnonzero(D.bool_matrix()[:, x]).tolist())
        hits = np.bitwise_count(masks & in_mask).astype(np.int64)  # a uint8 product wraps
        reach += hits * nu.denominator >= nu.numerator * n
    in_range = (tau.numerator * n < size * tau.denominator) & (
        size * tau.denominator < (tau.denominator - tau.numerator) * n
    )
    bad = in_range & (reach * nu.denominator < size * nu.denominator + nu.numerator * n)
    if not bad.any():
        return None
    s = size[bad].min()
    first = min(
        tuple(v for v in range(n) if m >> v & 1) for m in masks[bad & (size == s)].tolist()
    )
    return frozenset(first)


def oracle_falsify_sampled(D: Digraph, p, trials: int, seed: int):
    """The sampled falsifier as one scalar loop: per stream of at most 256
    trials, the same numpy Generator calls in the same order give each
    trial's size and start, the ordering and the uniform rows'
    permutations; then each proposal is built as a list, grown one vertex
    at a time when greedy, and tested with a row sum before the next.
    The library draws a stream as one membership matrix, grows its greedy
    proposals together and must return the same ExpansionReport."""
    from dilink.expansion import (
        ExpansionReport,
        Verdict,
        _quantified_sizes,
    )

    if trials < 1:
        raise BadParameter(f"trials must be >= 1, got {trials}")
    n = D.n
    sizes = _quantified_sizes(n, p.tau)
    if not sizes:
        return ExpansionReport(Verdict.NO_COUNTEREXAMPLE_FOUND, sampled_trials=trials)
    t = math.ceil(p.nu * n)
    M = D.bool_matrix()
    stream = 0
    done = 0
    while done < trials:
        rng = np.random.default_rng((seed * 1_000_003 + stream) & 0xFFFFFFFF)
        stream += 1
        budget = min(256, trials - done)
        size = rng.choice(sizes, budget).tolist()
        start = rng.integers(n, size=budget).tolist()
        pos = rng.permutation(n).tolist()  # pos[v]: v's place in the ordering
        perms = rng.permuted(np.tile(np.arange(n), ((budget + 2) // 3, 1)), axis=1).tolist()
        order = sorted(range(n), key=pos.__getitem__)  # order[i]: the vertex at place i
        for j in range(budget):
            s, a = size[j], start[j]
            kind = j % 3
            if kind == 0:  # uniform subset: the first s entries of its permutation
                S = perms[j // 3][:s]
            elif kind == 1:  # s consecutive places of the ordering from place a
                S = [order[(a + k) % n] for k in range(s)]
            else:  # greedy growth: repeatedly add the most-dominated vertex
                S = [a]
                counts = M[a].astype(np.int64)  # kept up to date as S grows
                outside = np.ones(n, dtype=bool)
                outside[a] = False
                while len(S) < s:
                    # argmax takes the lowest label among the best scores
                    best = int(np.argmax(np.where(outside, counts, -1)))
                    S.append(best)
                    counts += M[best]
                    outside[best] = False
            if (M[S].sum(axis=0) >= t).sum() < len(S) + t:
                return ExpansionReport(
                    Verdict.REFUTED, counterexample=frozenset(S), sampled_trials=done + j + 1
                )
        done += budget
    return ExpansionReport(Verdict.NO_COUNTEREXAMPLE_FOUND, sampled_trials=trials)


def oracle_d_cover(D: Digraph, pairs, U, d: int) -> bool:
    """Definition check: every ordered pair of distinct vertices of U is
    covered by at least d of the given pairs (all four vertices distinct,
    arcs u->x and y->v present)."""
    U = sorted(set(U))
    for x in U:
        for y in U:
            if x == y:
                continue
            hits = sum(
                1
                for u, v in pairs
                if len({u, v, x, y}) == 4 and D.has_arc(u, x) and D.has_arc(y, v)
            )
            if hits < d:
                return False
    return True


def oracle_grow_d_cover(D: Digraph, d: int, seed: int, avoid=()):
    """The d-cover grower as one dense count: the shortest prefix of the
    pair stream `_random_pairs(M, usable, seed)` that d-covers V(D), or
    None when the whole stream does not.  C[x, y] counts the pairs so far
    covering (x, y), its diagonal preset to d, and each pair (u, v) adds
    the outer product of u's out-row without v and v's in-column
    without u."""
    if D.n < 2:
        return ()
    M = D.bool_matrix()
    usable = sorted(set(range(D.n)) - set(avoid))
    C = np.zeros((D.n, D.n), dtype=np.int64)
    np.fill_diagonal(C, d)
    pairs = []
    for u, v in _random_pairs(M, usable, seed):
        if C.min() >= d:
            break
        pairs.append((u, v))
        out, into = M[u].copy(), M[:, v].copy()
        out[v] = into[u] = False
        C += np.outer(out, into)
    return tuple(pairs) if C.min() >= d else None


def threshold_digraph(n: int, seed: int, cut: float = 0.85, noise: float = 0.02) -> Digraph:
    """Arc u -> v iff rank(u) + rank(v) >= cut * n for a random ranking,
    plus each other arc independently with probability noise: a digraph
    of the degree-sequence regime, whose low-rank vertices have
    semidegree near (1 - cut) * n."""
    rng = np.random.default_rng(seed)
    rank = rng.permutation(n)
    M = (rank[:, None] + rank[None, :] >= cut * n) | (rng.random((n, n)) < noise)
    np.fill_diagonal(M, False)
    return Digraph(n, np.argwhere(M))


def two_clusters(n: int, p_in: float, p_out: float, seed: int) -> Digraph:
    """Two random clusters with arc probability p_in inside, p_out across."""
    rng = np.random.default_rng(seed)
    side = rng.random(n) < 0.5
    M = rng.random((n, n)) < np.where(side[:, None] == side, p_in, p_out)
    np.fill_diagonal(M, False)
    return Digraph(n, np.argwhere(M))


def oracle_ladder(D: Digraph, L: Ladder) -> bool:
    """Definition check from the arc skeleton: rows v_0..v_2k and
    v_0*..v_2k* of equal odd length; the zig-zag arcs v_i -> v_(i+1) and
    v_(i+1)* -> v_i* for even i < 2k, v_(j+1) -> v_j and v_j* -> v_(j+1)*
    for odd j < 2k; the final arc v_2k -> v_2k*; for each odd i < 2k
    exactly one connector, a path of D with at least one arc from v_i to
    v_i*; and no vertex twice among the rows and the connectors'
    interiors, each of them in 0..n-1."""
    lo, up = list(L.lower), list(L.upper)
    if len(lo) != len(up) or len(lo) % 2 == 0:
        return False
    if sorted(L.connectors) != list(range(1, len(lo) - 1, 2)):
        return False
    used = lo + up
    for i, q in L.connectors.items():
        if len(q) < 2 or q[0] != lo[i] or q[-1] != up[i]:
            return False
        used += q[1:-1]
    return (
        len(set(used)) == len(used)
        and all(0 <= v < D.n for v in used)
        and all(D.has_arc(a, b) for a, b in ladder_skeleton(L))
    )


def ladder_skeleton(L: Ladder) -> list[tuple[int, int]]:
    """The arcs a ladder of this shape needs: zig-zag, final arc and
    connector arcs, read from the rows and connectors directly."""
    lo, up = L.lower, L.upper
    k = len(lo) // 2
    arcs = [(lo[2 * k], up[2 * k])]
    for i in range(2 * k):
        a, b = (i, i + 1) if i % 2 == 0 else (i + 1, i)
        arcs += [(lo[a], lo[b]), (up[b], up[a])]
    for q in L.connectors.values():
        arcs += zip(q, q[1:])
    return arcs


def oracle_subdivision(D: Digraph, sub: HSubdivision) -> bool:
    """Definition check: the branch map sends the pattern's vertices to
    distinct vertices of D, each pattern arc ab has a path of D from
    f(a) to f(b) with at least one arc, and no vertex lies on two of
    these paths or on a path and a branch vertex, except as the path's
    own ends."""
    H = sub.pattern.underlying
    f = dict(sub.branch_map)
    if sorted(f) != list(range(H.n)) or sorted(sub.paths) != sorted(H.arcs):
        return False
    used: set[int] = set()
    for v in f.values():
        if not 0 <= v < D.n or v in used:
            return False
        used.add(v)
    for (a, b), path in sub.paths.items():
        if len(path) < 2 or path[0] != f[a] or path[-1] != f[b]:
            return False
        if not all(D.has_arc(u, v) for u, v in zip(path, path[1:])):
            return False
        for v in path[1:-1]:
            if not 0 <= v < D.n or v in used:
                return False
            used.add(v)
    return True


def oracle_tiling(D: Digraph, subs, orders) -> bool:
    """Definition check: one subdivision per order, each valid by
    oracle_subdivision, the i-th on exactly orders[i] vertices, and
    every vertex of D in exactly one of them."""
    if len(subs) != len(orders):
        return False
    seen: list[int] = []
    for sub, order in zip(subs, orders):
        if not oracle_subdivision(D, sub):
            return False
        vs = {v for path in sub.paths.values() for v in path}
        if len(vs) != order:
            return False
        seen.extend(vs)
    return sorted(seen) == list(range(D.n))


def oracle_connect(D: Digraph, terminals, forbidden, max_order: int):
    """Complete search for internally disjoint connecting paths.

    Returns one family of paths (order <= max_order each, interiors
    avoiding `forbidden`, each other, and every terminal) or None.
    """
    banned = set(forbidden) | {v for t in terminals for v in t}

    def tails(path: list[int], t: int, used: set[int]):
        tip = path[-1]
        if len(path) + 1 <= max_order and D.has_arc(tip, t):
            yield tuple(path) + (t,)
        if len(path) + 2 > max_order:
            return
        for w in D.out_neighbors(tip):
            if w == t or w in banned or w in used or w in path:
                continue
            yield from tails(path + [w], t, used)

    chosen: list[tuple[int, ...]] = []

    def place(i: int, used: set[int]) -> bool:
        if i == len(terminals):
            return True
        s, t = terminals[i]
        for path in tails([s], t, used):
            chosen.append(path)
            if place(i + 1, used | set(path[1:-1])):
                return True
            chosen.pop()
        return False

    return list(chosen) if place(0, set()) else None


def free_mask(n: int, taken=()) -> np.ndarray:
    """The length-n bool mask shortest_path_avoiding reads: every vertex
    usable but the labels of `taken`."""
    free = np.ones(n, dtype=bool)
    free[list(taken)] = False
    return free


def oracle_shortest_order(D: Digraph, s: int, t: int, blocked) -> int | None:
    """Order of a shortest s->t path whose interior avoids `blocked`, or
    None: a breadth-first search over D.arcs from s that enters no
    blocked vertex before t (s and t themselves may be blocked)."""
    step: dict[int, list[int]] = {}
    for u, v in D.arcs:
        step.setdefault(u, []).append(v)
    order = {s: 1}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for w in step.get(u, []):
                if w == t:
                    return order[u] + 1
                if w not in order and w not in blocked:
                    order[w] = order[u] + 1
                    nxt.append(w)
        frontier = nxt
    return None


def oracle_strongly_connected(D: Digraph) -> bool:
    """Whether every vertex reaches every other: a breadth-first search
    over D.arcs from each vertex in turn."""
    step: dict[int, list[int]] = {}
    for u, v in D.arcs:
        step.setdefault(u, []).append(v)
    for s in range(D.n):
        seen, queue = {s}, [s]
        for x in queue:
            for y in step.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) < D.n:
            return False
    return True


def oracle_has_hamilton_cycle(D: Digraph) -> bool:
    """Whether some ordering of the vertices, starting at 0, is a directed
    cycle (closing arc included); every ordering is tried."""
    if D.n < 2:
        return False
    for rest in permutations(range(1, D.n)):
        seq = (0, *rest)
        if all(D.has_arc(seq[i], seq[(i + 1) % D.n]) for i in range(D.n)):
            return True
    return False


def _reference_int(token: str, line: str) -> int:
    """Digit by digit, so no length limit applies."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not digits or any(c not in "0123456789" for c in digits):
        raise BadParameter(f"non-integer value in {line!r}")
    value = 0
    for c in digits:
        value = 10 * value + "0123456789".index(c)
    return -value if token[0] == "-" else value


def reference_parse_digraph(text: str) -> Digraph:
    """The edge-list format read one line at a time, from its definition:
    a header "n m", then m lines "u v", '#' comments and blank lines
    skipped, each token an optional sign and ASCII digits.  Lines are
    checked in order (shape, then integers, then int64 range), then the
    arc count, then each arc in input order for a loop or a label
    outside 0..n-1."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise BadParameter("empty digraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise BadParameter(f"header must be 'n m', got {lines[0]!r}")
    n, m = (_reference_int(t, lines[0]) for t in head)
    arcs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise BadParameter(f"arc line must be 'u v', got {line!r}")
        u, v = (_reference_int(t, line) for t in parts)
        if not all(-(2**63) <= x < 2**63 for x in (u, v)):
            raise LabelOutOfRange(f"label beyond int64 in {line!r}")
        arcs.append((u, v))
    if len(arcs) != m:
        raise BadParameter(f"header promises {m} arcs, file has {len(arcs)}")
    for u, v in arcs:
        if u == v:
            raise LoopArc(f"loop arc ({u}, {u})")
        if not (0 <= u < n and 0 <= v < n):
            raise LabelOutOfRange(f"arc ({u}, {v}) outside 0..{n - 1}")
    return Digraph(n, arcs)


def random_arc_set(rng: random.Random, n: int, density: float):
    """An arbitrary arc set on n labels, each ordered pair independently."""
    return [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]


def reference_degree_conditions(D: Digraph, gamma) -> dict[str, tuple]:
    """(satisfied, failing_index, failing_clause) of nash_williams,
    asymptotic_nash_williams and posa_type, each rule transcribed one i at
    a time, in order, on sorted degree sequences counted from D.arcs."""
    n = D.n
    out_deg, in_deg = [0] * n, [0] * n
    for u, v in D.arcs:
        out_deg[u] += 1
        in_deg[v] += 1
    dp = [None] + sorted(out_deg)  # dp[i] is d_i^+, 1-based
    dm = [None] + sorted(in_deg)
    g = -(-Fraction(gamma) * n // 1)  # ceil(gamma * n)

    def nash_williams():
        for i in range(1, n):
            if not 2 * i < n:
                break
            if not (dp[i] >= i + 1 or dm[n - i] >= n - i):
                return False, i, "out"
            if not (dm[i] >= i + 1 or dp[n - i] >= n - i):
                return False, i, "in"
        return True, None, None

    def asymptotic_nash_williams():
        for i in range(1, n):
            if not 2 * i < n:
                break
            j = n - i - g
            if not (dp[i] >= i + g or (j >= 1 and dm[j] >= n - i)):
                return False, i, "out"
            if not (dm[i] >= i + g or (j >= 1 and dp[j] >= n - i)):
                return False, i, "in"
        return True, None, None

    def posa_type():
        for i in range(1, n):
            if not 2 * i < n - 1:
                break
            if not dp[i] >= i + g:
                return False, i, "out"
            if not dm[i] >= i + g:
                return False, i, "in"
        if n % 2 == 1:
            mid = (n + 1) // 2
            need = -(-(Fraction(1, 2) + Fraction(gamma)) * n // 1)
            if not dp[mid] >= need:
                return False, mid, "odd-out"
            if not dm[mid] >= need:
                return False, mid, "odd-in"
        return True, None, None

    return {
        "nash_williams": nash_williams(),
        "asymptotic_nash_williams": asymptotic_nash_williams(),
        "posa_type": posa_type(),
    }


def reference_oriented_semidegree(D: Digraph, epsilon) -> tuple[bool, bool]:
    """(semidegree_ok, degree_sum_ok) of oriented_semidegree, transcribed
    one vertex at a time on degrees counted with has_arc: every d+(v) and
    d-(v) at least (3/8 + eps) n, and delta+ + delta- + min over v of
    d+(v) + d-(v) at least (3/2 + eps) n."""
    n, eps = D.n, Fraction(epsilon)
    outs = [sum(D.has_arc(v, w) for w in range(n)) for v in range(n)]
    ins = [sum(D.has_arc(w, v) for w in range(n)) for v in range(n)]
    semi = all(min(o, i) >= (Fraction(3, 8) + eps) * n for o, i in zip(outs, ins))
    total = min(outs) + min(ins) + min(o + i for o, i in zip(outs, ins))
    return semi, total >= (Fraction(3, 2) + eps) * n
