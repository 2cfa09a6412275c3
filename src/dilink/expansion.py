"""Robust out-/in-expansion: neighbourhoods, certification, falsification.

The robust nu-out-neighbourhood of S is the set of vertices with at least
ceil(nu*n) in-neighbors inside S.  D is a robust (nu, tau)-out-expander if
|RN+(S)| >= |S| + nu*n for every S with tau*n < |S| < (1-tau)*n (strict,
exact rational comparisons).  Certification decides every subset at once,
up to a size cap, from a subset-sum table of matrix rows; the falsifier
samples structured candidate sets.  Both, and the neighbourhood functions,
count in-neighbours inside S one way: as the sum of the rows of S in the
bool adjacency matrix.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .digraph import Digraph, check_labels, degree_profile, remove_vertices
from .errors import BadParameter, TooLargeForExact
from .ratio import Real, as_count, as_density, as_fraction, ceil_frac

DEFAULT_EXACT_CAP = 20
_TABLE_BITS = 14  # low vertices of the subset-sum table; one block is 2^14 x n counts


@dataclass(frozen=True)
class ExpansionParams:
    """Expansion parameters, held exactly.

    Requires 0 < nu <= tau <= 1 and gamma in (0, 1).  tau = 1 is admitted
    as the degenerate boundary (the quantified size range is then empty).
    """

    nu: Fraction
    tau: Fraction
    gamma: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "nu", as_density(self.nu, "nu", closed=True))
        object.__setattr__(self, "tau", as_fraction(self.tau))
        object.__setattr__(self, "gamma", as_density(self.gamma, "gamma"))
        if not self.nu <= self.tau <= 1:
            raise BadParameter(f"need 0 < nu <= tau <= 1, got nu={self.nu}, tau={self.tau}")


class Verdict(enum.Enum):
    CERTIFIED_EXACT = "certified-exact"
    NO_COUNTEREXAMPLE_FOUND = "no-counterexample-found"
    REFUTED = "refuted"


@dataclass(frozen=True)
class ExpansionReport:
    verdict: Verdict
    counterexample: frozenset[int] | None = None
    sampled_trials: int = 0

    def __post_init__(self):
        if (self.verdict is Verdict.REFUTED) != (self.counterexample is not None):
            raise BadParameter("counterexample present iff verdict is refuted")


def _in_count_threshold(nu: Fraction, n: int) -> int:
    return ceil_frac(nu * n)


def robust_out_neighbourhood(D: Digraph, S: Iterable[int], nu: Real) -> frozenset[int]:
    """Vertices with at least ceil(nu*n) in-neighbors inside S.  A label of
    S outside 0..n-1 raises LabelOutOfRange."""
    nu = as_density(nu, "nu", closed=True)
    rows = sorted(set(S))
    check_labels(D.n, rows)
    counts = D.bool_matrix()[rows].sum(axis=0)
    return frozenset(np.flatnonzero(counts >= _in_count_threshold(nu, D.n)).tolist())


def robust_in_neighbourhood(D: Digraph, S: Iterable[int], nu: Real) -> frozenset[int]:
    """Vertices with at least ceil(nu*n) out-neighbors inside S: the
    out-neighbourhood of S in the reversed digraph."""
    return robust_out_neighbourhood(D.reverse(), S, nu)


def _quantified_sizes(n: int, tau: Fraction) -> range:
    """Sizes s with tau*n < s < (1-tau)*n."""
    return range(int(tau * n) + 1, ceil_frac((1 - tau) * n))


def certify_outexpander_exact(
    D: Digraph, p: ExpansionParams, max_exact_n: int = DEFAULT_EXACT_CAP
) -> ExpansionReport:
    """Decide the robust (nu, tau)-out-expansion property by computing the
    in-neighbour counts of every subset from a subset-sum table.

    The table holds the row sums of all 2^b subsets of vertices 0..b-1
    (b = min(n, 14)), and a second one the row sums of the 2^(n-b) subsets
    of the other vertices, each built by doublings.  Each such subset, a
    block, decides every vertex whose in-count inside it reaches
    ceil(nu*n), and compares only the other vertices' rows of the first
    table, 2^b columns at a time; a block whose decided vertices alone
    meet every need is skipped.  The worst case, when ceil(nu*n) is large
    or D is sparse, is still about 2^n * n byte comparisons, in 2^b * n
    bytes of memory.  Refutation reports a minimum-size
    counterexample: the first, in lexicographic order of the sorted vertex
    tuple, among the smallest violating sets.  Raises TooLargeForExact
    above the subset cap.
    """
    n = D.n
    if n > max_exact_n:
        raise TooLargeForExact(f"n={n} exceeds the exact enumeration cap {max_exact_n}")
    sizes = _quantified_sizes(n, p.tau)
    if not sizes:
        return ExpansionReport(Verdict.CERTIFIED_EXACT)
    t = _in_count_threshold(p.nu, n)
    need = np.zeros(n + 1, dtype=np.int64)  # least |RN+(S)| by |S|; 0 outside the range
    need[sizes] = np.array(sizes) + t
    dt = np.min_scalar_type(n)  # holds every in-count, so no sum can wrap
    M = D.bool_matrix().astype(dt)  # M[u, x] == 1 iff arc u->x
    b = min(n, _TABLE_BITS)
    # Bit j of a column stands for vertex b-1-j and bit i of a block for
    # vertex n-1-i, so the key (column << (n-b)) | block weighs vertex v as
    # 2^(n-1-v): among sets of one size, the largest key is the
    # lexicographically first sorted tuple.
    low = np.zeros((n, 1 << b), dtype=dt)  # low[x, column]: in-neighbours of x
    pop = np.zeros(1 << b, dtype=np.int64)  # pop[column]: the set's size
    for j in range(b):
        low[:, 1 << j : 2 << j] = low[:, : 1 << j] + M[b - 1 - j][:, None]
        pop[1 << j : 2 << j] = pop[: 1 << j] + 1
    high = np.zeros((1 << (n - b), n), dtype=dt)  # high[block, x]: in-neighbours of x
    for i in range(n - b):
        high[1 << i : 2 << i] = high[: 1 << i] + M[n - 1 - i]
    # x is in RN+ when its low count reaches short[block, x], t less its count
    # in the block; x is decided, in RN+ for every column, when that is 0
    short = t - np.minimum(high, t)
    # need_by[r, column]: need of the column's set plus r vertices of a block
    need_by = need[pop + np.arange(n - b + 1)[:, None]].astype(np.min_scalar_type(2 * n))
    need_top = need_by.max(axis=1).tolist()  # the largest need with r vertices of a block
    best = (n + 1, 0)  # (size, -key) of the best violating set; size n + 1 while none
    for block in range(1 << (n - b)):
        open_ = np.flatnonzero(short[block])
        r = block.bit_count()
        if n - open_.size >= need_top[r]:
            # the decided rows alone meet every need.  A block with no open row
            # is always skipped: a size s in the range has s < (1-tau)n, and
            # t = ceil(nu*n) <= ceil(tau*n) as nu <= tau, so s + t <= n - 1 if
            # tau*n is whole and s + t < (1-tau)n + tau*n + 1 = n + 1 if not
            continue
        rows = slice(None) if open_.size == n else open_  # no gather of every row
        # numpy sums the comparison faster as uint8 than as bool
        hits = (low[rows] >= short[block, rows, None]).view(np.uint8)
        reach = hits.sum(axis=0, dtype=dt) + (n - len(hits))  # a decided row is in RN+
        bad = np.flatnonzero(reach < need_by[r])
        if bad.size:
            size = pop[bad] + r
            s = int(size.min())
            best = min(best, (s, -((int(bad[size == s][-1]) << (n - b)) | block)))
    if best[0] > n:
        return ExpansionReport(Verdict.CERTIFIED_EXACT)
    return ExpansionReport(
        Verdict.REFUTED,
        counterexample=frozenset(v for v in range(n) if -best[1] >> (n - 1 - v) & 1),
    )


def certify_inexpander_exact(
    D: Digraph, p: ExpansionParams, max_exact_n: int = DEFAULT_EXACT_CAP
) -> ExpansionReport:
    """Exact decision of the robust (nu, tau)-in-expansion property,
    computed as out-expansion of the reversed digraph."""
    return certify_outexpander_exact(D.reverse(), p, max_exact_n)


def _grow_greedily(
    M: np.ndarray, starts: list[int], targets: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(members, in-counts) of greedily grown sets, one row per (start,
    target) in the given order.  Each set starts as {start} and adds the
    outside vertex with the most in-neighbours inside it (the lowest label
    among ties) until it has target vertices.  All sets grow together, one
    numpy step per set size, on rows sorted by target, largest first, so
    that the rows still growing are a prefix.  An outside vertex scores
    its count, a member its count minus n + 1, below every outside
    vertex."""
    n = M.shape[0]
    goal = np.array(targets, dtype=np.int64)
    by_target = np.argsort(-goal, kind="stable")
    goal, first = goal[by_target], np.array(starts, dtype=np.int64)[by_target]
    rows = np.arange(len(goal))
    score = M[first].astype(np.int32)
    score[rows, first] -= n + 1
    for size in range(1, int(goal.max(initial=1))):
        a = int(np.count_nonzero(goal > size))  # rows still growing
        best = score[:a].argmax(axis=1)  # argmax takes the lowest label among ties
        score[:a] += M[best]
        score[rows[:a], best] -= n + 1
    out = np.empty_like(score)
    out[by_target] = score
    inside = out < 0
    return inside, np.where(inside, out + n + 1, out)


def falsify_outexpander_sampled(
    D: Digraph, p: ExpansionParams, trials: int, seed: int
) -> ExpansionReport:
    """Search for a violating subset with seeded random proposals.

    Proposals mix uniform subsets across the quantified sizes, contiguous
    segments of random vertex orderings, and greedily grown candidate
    sets.  Trials are partitioned into fixed-size streams with derived
    seeds, so the outcome depends only on (seed, trials).  Each stream
    draws every proposal's random values first, grows all its greedy
    proposals together, one numpy step per set size, then tests the
    proposals in trial order; the draws and the answers are those of
    growing each set one vertex at a time.  A returned counterexample is
    counted again from its rows and always re-verifies against the
    definition.
    """
    trials = as_count(trials, "trials")
    n = D.n
    sizes = _quantified_sizes(n, p.tau)
    if not sizes:
        return ExpansionReport(Verdict.NO_COUNTEREXAMPLE_FOUND, sampled_trials=trials)
    t = _in_count_threshold(p.nu, n)
    nu_ceil = ceil_frac(p.nu * n)
    M = D.bool_matrix()

    def violated(S) -> bool:  # counted from the rows of S
        return (M[S].sum(axis=0, dtype=np.int32) >= t).sum() < len(S) + nu_ceil

    stream = 0
    done = 0
    while done < trials:
        rng = random.Random((seed * 1_000_003 + stream) & 0xFFFFFFFF)
        stream += 1
        order = list(range(n))
        rng.shuffle(order)
        budget = min(256, trials - done)
        drawn = []  # the vertices of trial j, or None for a greedy proposal
        starts, targets = [], []  # greedy proposal j // 3 serves trial j
        for j in range(budget):
            kind = j % 3
            if kind == 0:  # uniform subset at a uniform in-range size
                s = rng.choice(sizes)
                drawn.append(rng.sample(range(n), s))
            elif kind == 1:  # contiguous segment of the shuffled ordering
                s = rng.choice(sizes)
                start = rng.randrange(n)
                drawn.append([order[(start + k) % n] for k in range(s)])
            else:  # greedy growth: repeatedly add the most-dominated vertex
                starts.append(rng.randrange(n))
                targets.append(rng.choice(sizes))
                drawn.append(None)
        members, counts = _grow_greedily(M, starts, targets)
        greedy_bad = (counts >= t).sum(axis=1) < np.array(targets, dtype=np.int64) + nu_ceil
        for j, S in enumerate(drawn):
            if S is None:  # counted by the scores: count it again from its rows
                if not greedy_bad[j // 3]:
                    continue
                S = np.flatnonzero(members[j // 3]).tolist()
                if not violated(S):
                    raise AssertionError(f"greedy set {S} does not re-verify")
            elif not violated(S):
                continue
            return ExpansionReport(
                Verdict.REFUTED, counterexample=frozenset(S), sampled_trials=done + j + 1
            )
        done += budget
    return ExpansionReport(Verdict.NO_COUNTEREXAMPLE_FOUND, sampled_trials=trials)


def derive_params_from_degrees(n: int, gamma: Real) -> ExpansionParams:
    """Expansion parameters implied by a degree margin gamma:
    tau = gamma/16 and nu = tau**2."""
    g = as_density(gamma, "gamma")
    tau = g / 16
    return ExpansionParams(nu=tau * tau, tau=tau, gamma=g)


def shrink_params_for_deletion(p: ExpansionParams) -> ExpansionParams:
    """Parameters that survive deleting up to nu*n/4 vertices from a
    robust (nu, tau)-out-expander: (nu/2, 2*tau)."""
    return ExpansionParams(nu=p.nu / 2, tau=min(2 * p.tau, Fraction(1)), gamma=p.gamma)


def deletion_tolerance(D: Digraph, p: ExpansionParams) -> int:
    """Largest vertex-set size whose removal preserves expansion at the
    shrunken parameters: floor(nu*n/4)."""
    return int(p.nu * D.n / 4)


def inexpansion_params(p: ExpansionParams) -> ExpansionParams:
    """In-expansion parameters (nu**2, 2*tau) implied by out-expansion
    together with min semidegree >= gamma*n, provided 2*tau < gamma,
    nu**2/2 < tau*gamma and nu < 1/2."""
    if not (
        2 * p.tau < p.gamma
        and p.nu * p.nu / 2 < p.tau * p.gamma
        and p.nu < Fraction(1, 2)
    ):
        raise BadParameter(
            "need 2*tau < gamma, nu^2/2 < tau*gamma and nu < 1/2 "
            f"(got nu={p.nu}, tau={p.tau}, gamma={p.gamma})"
        )
    return ExpansionParams(nu=p.nu * p.nu, tau=min(2 * p.tau, Fraction(1)), gamma=p.gamma)


def certify_survives_deletion(
    D: Digraph,
    p: ExpansionParams,
    removed: Iterable[int],
    max_exact_n: int = DEFAULT_EXACT_CAP,
) -> ExpansionReport:
    """Certify D - removed as a robust (nu/2, 2*tau)-out-expander.

    The removed set must have size at most deletion_tolerance(D, p);
    min semidegree gamma*n is not assumed here.
    """
    removed = set(removed)
    if len(removed) > deletion_tolerance(D, p):
        raise BadParameter(
            f"removed set of size {len(removed)} exceeds tolerance "
            f"{deletion_tolerance(D, p)}"
        )
    sub = remove_vertices(D, removed).digraph
    return certify_outexpander_exact(sub, shrink_params_for_deletion(p), max_exact_n)


def min_semidegree_margin(D: Digraph) -> Fraction:
    """delta0(D) / n as an exact fraction (0 for the empty digraph)."""
    if D.n == 0:
        return Fraction(0)
    return Fraction(degree_profile(D).delta_zero, D.n)
