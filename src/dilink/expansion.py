"""Robust out-/in-expansion: the neighbourhood, certification, falsification.

The robust nu-out-neighbourhood of S is the set of vertices with at least
ceil(nu*n) in-neighbors inside S.  D is a robust (nu, tau)-out-expander if
|RN+(S)| >= |S| + nu*n for every S with tau*n < |S| < (1-tau)*n (strict,
exact rational comparisons).  Certification decides every subset at once,
up to a size cap, from a subset-sum table of matrix rows; the falsifier
samples structured candidate sets, drawing each stream of up to 256
trials as one membership matrix from a numpy Generator seeded by (seed,
stream): a size and a start per trial, one vertex ordering, and one
permutation per uniform trial, so no draw is a Python call per vertex.
The neighbourhood function, and the re-check of every counterexample the
falsifier returns, count in-neighbours inside S as the sum of the rows of
S in the bool adjacency matrix; the falsifier counts every set of a
stream, uniform, segment or greedy, with packed popcounts instead, each
set's membership words ANDed with D's in-neighbour columns packed into
uint64 words.  The
robust in-neighbourhood is the out-neighbourhood in D.reverse().
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .digraph import Digraph, check_labels, remove_vertices
from .errors import BadParameter
from .ratio import Real, as_count, as_density, as_fraction

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


def robust_out_neighbourhood(D: Digraph, S: Iterable[int], nu: Real) -> frozenset[int]:
    """RN+_nu(S): vertices with at least ceil(nu*n) in-neighbors inside S.
    A label of S outside 0..n-1 raises LabelOutOfRange."""
    nu = as_density(nu, "nu", closed=True)
    rows = sorted(set(S))
    check_labels(D.n, rows)
    counts = D.bool_matrix()[rows].sum(axis=0)
    return frozenset(np.flatnonzero(counts >= math.ceil(nu * D.n)).tolist())


def _quantified_sizes(n: int, tau: Fraction) -> range:
    """Sizes s with tau*n < s < (1-tau)*n."""
    return range(int(tau * n) + 1, math.ceil((1 - tau) * n))


def _check_exact_cap(n: int, max_exact_n: int) -> None:
    """Refuse, with BadParameter, an n above the subset cap max_exact_n
    or a cap that is not an integer >= 0."""
    max_exact_n = as_count(max_exact_n, "max_exact_n", least=0)
    if n > max_exact_n:
        raise BadParameter(f"n={n} exceeds the exact enumeration cap {max_exact_n}")


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
    tuple, among the smallest violating sets.  Raises BadParameter
    above the subset cap max_exact_n, or for a cap that is not an integer
    >= 0.
    """
    n = D.n
    _check_exact_cap(n, max_exact_n)
    sizes = _quantified_sizes(n, p.tau)
    if not sizes:
        return ExpansionReport(Verdict.CERTIFIED_EXACT)
    t = math.ceil(p.nu * n)
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
    computed as out-expansion of the reversed digraph; the subset cap is
    checked before D is reversed."""
    _check_exact_cap(D.n, max_exact_n)
    return certify_outexpander_exact(D.reverse(), p, max_exact_n)


def _grow_greedily(M: np.ndarray, starts: list[int], targets: list[int]) -> np.ndarray:
    """The members of greedily grown sets, a bool row per (start, target)
    in the given order.  Each set starts as {start} and adds the outside
    vertex with the most in-neighbours inside it (the lowest label among
    ties) until it has target vertices.  All sets grow together, one
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
    inside = np.empty(score.shape, dtype=bool)
    inside[by_target] = score < 0
    return inside


def _column_words(B: np.ndarray) -> np.ndarray:
    """The columns of the bool matrix B packed into uint64 words: entry
    [w, x] holds B[64w + i, x] as bit i, and 0 past B's last row.  Eight
    shifted row slices make the bytes (np.packbits along axis 0 took 2.5
    to 5 times as long on square matrices of 300 to 2000 rows), and one
    copy of the packed bytes puts each column's eight bytes of a word
    together."""
    r, c = B.shape
    words = -(-r // 64)
    packed = np.zeros((8 * words, c), dtype=np.uint8)
    bits = B.view(np.uint8)
    for i in range(8):
        packed[: len(bits[i::8])] |= bits[i::8] << i
    return packed.reshape(words, 8, c).transpose(0, 2, 1).copy().view("<u8")[..., 0]


def _in_counts(cols: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """counts[j, x]: the in-neighbours of x inside set j, where cols holds
    D's in-neighbour columns and sets the sets' membership columns, both
    packed by _column_words; one popcount of set AND column per word."""
    counts = np.zeros((sets.shape[1], cols.shape[1]), dtype=np.int32)
    for w in range(len(cols)):
        counts += np.bitwise_count(sets[w, :, None] & cols[w])
    return counts


def falsify_outexpander_sampled(
    D: Digraph, p: ExpansionParams, trials: int, seed: int
) -> ExpansionReport:
    """Search for a violating subset with seeded random proposals.

    Trials are partitioned into streams of at most 256 with derived seeds,
    so the outcome depends only on (seed, trials); the draws after the
    sizes depend on the stream's length, so a shorter stream is not the
    start of a longer one.  Each stream is one membership matrix, a row
    per trial, drawn by one numpy Generator in this order: a size per row,
    uniform over the quantified sizes; a start per row, uniform over
    0..n-1; an ordering of the vertices; and a permutation of the vertices
    per uniform row.  Row j is a uniform subset, its permutation's first
    size entries, when j % 3 == 0; a segment, the vertices at size
    consecutive places of the ordering from place start on, wrapping
    around, when j % 3 == 1; and when j % 3 == 2 the set grown greedily
    from {start}, adding the outside vertex with the most in-neighbours
    inside it (the lowest label among ties) until it has size vertices.
    The greedy rows grow together, one numpy step per set size.  Every
    row's in-counts are popcounts of its packed membership words against
    D's packed in-neighbour columns, one call per stream, and one
    comparison tests every row; the first violating trial wins.  A
    returned counterexample is counted again as a sum of its rows of the
    bool matrix and always re-verifies against the definition.
    """
    trials = as_count(trials, "trials")
    seed = as_count(seed, "seed", least=None)
    n = D.n
    sizes = _quantified_sizes(n, p.tau)
    if not sizes:
        return ExpansionReport(Verdict.NO_COUNTEREXAMPLE_FOUND, sampled_trials=trials)
    t = math.ceil(p.nu * n)
    M = D.bool_matrix()
    cols = _column_words(M)  # cols[w, x]: in-neighbours 64w..64w+63 of x

    stream = 0
    done = 0
    while done < trials:
        rng = np.random.default_rng((seed * 1_000_003 + stream) & 0xFFFFFFFF)
        stream += 1
        budget = min(256, trials - done)
        size = rng.choice(sizes, budget)
        start = rng.integers(n, size=budget)
        pos = rng.permutation(n)  # pos[v]: v's place in the stream's ordering
        perms = rng.permuted(np.broadcast_to(np.arange(n), (len(size[0::3]), n)), axis=1)
        inside = np.empty((budget, n), dtype=bool)  # inside[j, v]: v in trial j's set
        np.put_along_axis(inside[0::3], perms, np.arange(n) < size[0::3, None], axis=1)
        inside[1::3] = (pos - start[1::3, None]) % n < size[1::3, None]
        inside[2::3] = _grow_greedily(M, start[2::3], size[2::3])
        counts = _in_counts(cols, _column_words(inside.T))  # [j, x]: x's in-arcs from set j
        bad = (counts >= t).sum(axis=1) < size + t
        if bad.any():
            j = int(bad.argmax())
            S = np.flatnonzero(inside[j])
            # counted again from its rows
            if (M[S].sum(axis=0, dtype=np.int32) >= t).sum() >= len(S) + t:
                raise AssertionError(f"set {S.tolist()} does not re-verify")
            return ExpansionReport(
                Verdict.REFUTED, counterexample=frozenset(S.tolist()), sampled_trials=done + j + 1
            )
        done += budget
    return ExpansionReport(Verdict.NO_COUNTEREXAMPLE_FOUND, sampled_trials=trials)


def derive_params_from_degrees(gamma: Real) -> ExpansionParams:
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
    min semidegree gamma*n is not assumed here.  The subset cap is
    checked on n - |removed| before D - removed is built.
    """
    removed = set(removed)
    if len(removed) > deletion_tolerance(D, p):
        raise BadParameter(
            f"removed set of size {len(removed)} exceeds tolerance "
            f"{deletion_tolerance(D, p)}"
        )
    check_labels(D.n, removed)
    _check_exact_cap(D.n - len(removed), max_exact_n)
    sub = remove_vertices(D, removed)
    return certify_outexpander_exact(sub, shrink_params_for_deletion(p), max_exact_n)
