"""Output checks that do not use dilink.

Every checker works on the benchmark's own boolean adjacency matrix
(M[u, v] true iff arc u->v) and on plain Python data taken from the
program's result: vertex sequences, verdict strings, counts.  Each returns
None when the output is right, or a one-line description of what is wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _path_problem(M: np.ndarray, path) -> str | None:
    n = len(M)
    if len(path) < 2:
        return f"path {list(path)[:4]} has fewer than two vertices"
    if any(not 0 <= v < n for v in path):
        return "path leaves the vertex range"
    if len(set(path)) != len(path):
        return "path repeats a vertex"
    for a, b in zip(path, path[1:]):
        if not M[a, b]:
            return f"arc {a}->{b} is not in the digraph"
    return None


def check_tiling(M: np.ndarray, tiles, orders) -> str | None:
    """tiles: one (branch map, path) per requested order, for the
    single-arc pattern.  Each tile is a directed path of M between its
    branch images; the tiles are disjoint, cover V and have the orders."""
    if len(tiles) != len(orders):
        return f"{len(tiles)} tiles for {len(orders)} orders"
    seen: set[int] = set()
    for i, ((branch, path), want) in enumerate(zip(tiles, orders)):
        bad = _path_problem(M, path)
        if bad:
            return f"tile {i}: {bad}"
        if branch != {0: path[0], 1: path[-1]}:
            return f"tile {i}: branch map {branch} does not match its path ends"
        if len(path) != want:
            return f"tile {i} has order {len(path)}, requested {want}"
        if seen & set(path):
            return f"tile {i} shares a vertex with an earlier tile"
        seen |= set(path)
    if len(seen) != len(M):
        return f"tiles cover {len(seen)} of {len(M)} vertices"
    return None


def check_embedding(M, pattern_arcs, want_branch, branch, paths, lengths) -> str | None:
    """paths: one vertex sequence per pattern arc, in arc order.  The branch
    map is the requested one, each path runs between the branch images of
    its arc with exactly the prescribed length, and interiors are pairwise
    disjoint and avoid every branch image."""
    if dict(branch) != dict(want_branch):
        return f"branch map {dict(branch)} differs from the requested {dict(want_branch)}"
    if len(paths) != len(pattern_arcs) or len(lengths) != len(pattern_arcs):
        return "one path and one length per pattern arc expected"
    images = set(want_branch.values())
    interiors: set[int] = set()
    for (a, b), path, want in zip(pattern_arcs, paths, lengths):
        bad = _path_problem(M, path)
        if bad:
            return f"arc {(a, b)}: {bad}"
        if path[0] != want_branch[a] or path[-1] != want_branch[b]:
            return f"arc {(a, b)}: path does not join its branch images"
        if len(path) - 1 != want:
            return f"arc {(a, b)}: length {len(path) - 1}, prescribed {want}"
        inner = set(path[1:-1])
        if inner & images:
            return f"arc {(a, b)}: interior meets a branch image"
        if inner & interiors:
            return f"arc {(a, b)}: interior meets another path"
        interiors |= inner
    return None


# -- robust out-expansion, from the definition -------------------------------


def quantified_sizes(n: int, tau: Fraction) -> list[int]:
    """Set sizes s with tau*n < s < (1 - tau)*n, compared exactly."""
    return [s for s in range(n + 1) if tau * n < s < (1 - tau) * n]


def _threshold(n: int, nu: Fraction) -> int:
    return math.ceil(nu * n)


def violates(M: np.ndarray, S, nu: Fraction, tau: Fraction) -> bool:
    """True iff S is a quantified set whose robust nu-out-neighbourhood
    (vertices with at least ceil(nu*n) in-neighbours in S) has fewer than
    |S| + ceil(nu*n) vertices."""
    n = len(M)
    S = sorted(set(S))
    if len(S) not in quantified_sizes(n, tau):
        return False
    t = _threshold(n, nu)
    counts = M[S, :].sum(axis=0)
    return int((counts >= t).sum()) < len(S) + t


def violating_masks(M: np.ndarray, nu: Fraction, tau: Fraction) -> np.ndarray:
    """Bitmasks of every violating set, by enumerating all 2^n subsets."""
    n = len(M)
    if n > 24:
        raise ValueError(f"n = {n} is too large to enumerate")
    sizes = quantified_sizes(n, tau)
    masks = np.arange(1 << n, dtype=np.uint32)
    masks = masks[np.isin(np.bitwise_count(masks), sizes)]
    t = _threshold(n, nu)
    in_mask = [sum(1 << u for u in range(n) if M[u, x]) for x in range(n)]
    reach = np.zeros(len(masks), dtype=np.int32)
    for m in in_mask:
        reach += np.bitwise_count(masks & np.uint32(m)) >= t
    return masks[reach < np.bitwise_count(masks).astype(np.int32) + t]


def subsets_enumerated(n: int, tau: Fraction) -> int:
    """Number of quantified subsets an exact certifier has to look at."""
    return sum(math.comb(n, s) for s in quantified_sizes(n, tau))


def check_exact_verdict(
    M: np.ndarray, nu: Fraction, tau: Fraction, verdict: str, counterexample, expander: bool
) -> str | None:
    """verdict is "certified-exact" or "refuted"; expander is the answer of
    violating_masks (no violating set).  A counterexample must violate."""
    if verdict == "certified-exact":
        if not expander:
            return "certified a digraph that has a violating set"
        if counterexample is not None:
            return "certified verdict carries a counterexample"
        return None
    if verdict != "refuted":
        return f"unexpected verdict {verdict!r} from an exact certifier"
    if expander:
        return "refuted a digraph with no violating set"
    if counterexample is None or not violates(M, counterexample, nu, tau):
        return "returned counterexample does not violate the definition"
    return None


def counting_condition(M: np.ndarray, nu: Fraction, tau: Fraction) -> bool:
    """A sufficient condition for robust (nu, tau)-out-expansion.

    Every x has at least |S| - (n - indeg(x)) in-neighbours in S.  If that
    is at least ceil(nu*n) for the smallest quantified S, every vertex lies
    in RN+(S) for every quantified S, and RN+(S) = V is large enough when
    the largest quantified size plus ceil(nu*n) is at most n.
    """
    n = len(M)
    sizes = quantified_sizes(n, tau)
    if not sizes:
        return True
    t = _threshold(n, nu)
    min_in = int(M.sum(axis=0).min())
    return sizes[0] - (n - min_in) >= t and sizes[-1] + t <= n


def check_falsifier(verdict: str, trials_used: int, trials: int, guaranteed: bool) -> str | None:
    """On an input the counting condition proves to be an expander, the
    falsifier finds nothing and spends every trial."""
    if not guaranteed:
        return "input does not satisfy the counting condition"
    if verdict != "no-counterexample-found":
        return f"falsifier said {verdict!r} on a proven expander"
    if trials_used != trials:
        return f"falsifier used {trials_used} of {trials} trials"
    return None
