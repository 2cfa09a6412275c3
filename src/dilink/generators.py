"""Digraph constructors: random models and standard families."""

from __future__ import annotations

import math
from decimal import Decimal
from numbers import Real

import numpy as np

from .digraph import Digraph, as_order
from .errors import BadParameter
from .ratio import as_count


def gen_random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Binomial random digraph: each ordered pair (u, v), u != v, is an
    arc independently with probability p.  Deterministic given the seed;
    an n outside 0..MAX_ORDER raises BadParameter before any allocation,
    as does a p that is a bool, not a real number (a Decimal is one), NaN
    or outside [0, 1].  p is read as its nearest double, so a Fraction or
    a Decimal draws what float(p) draws."""
    n = as_order(n)
    seed = as_count(seed, "seed", least=0)  # numpy takes no negative seed
    if isinstance(p, bool) or not isinstance(p, (Real, Decimal)):
        raise BadParameter(f"arc probability must be a number, got {p!r}")
    try:
        q = float(p)
    except (ValueError, OverflowError):  # a signalling NaN, a Fraction past the doubles
        q = math.nan
    if not 0.0 <= q <= 1.0:
        raise BadParameter(f"arc probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    mat = np.empty((n, n), dtype=bool)
    # 64-row blocks: the doubles of one n x n draw, without an 8n^2-byte temporary
    for lo in range(0, n, 64):
        np.less(rng.random((min(64, n - lo), n)), q, out=mat[lo:lo + 64])
    np.fill_diagonal(mat, False)
    return Digraph._of_matrix(mat)


def _circulant(n: int, offsets) -> Digraph:
    """Arcs i -> i+j (mod n) for every j in offsets, filled one diagonal
    at a time: nothing but the matrix is big."""
    mat = np.zeros((n, n), dtype=bool)
    for j in offsets:
        np.fill_diagonal(mat[:, j:], True)  # i -> i+j for i < n-j
        np.fill_diagonal(mat[n - j:], True)  # n-j+i -> i
    return Digraph._of_matrix(mat)


def complete_digraph(n: int) -> Digraph:
    return _circulant(n := as_order(n), range(1, n))


def directed_cycle(n: int) -> Digraph:
    if (n := as_order(n)) < 2:
        raise BadParameter("a directed cycle needs at least 2 vertices")
    return _circulant(n, [1])


def rotational_tournament(n: int) -> Digraph:
    """Tournament on odd n with i -> i+1, ..., i+(n-1)/2 (mod n)."""
    if (n := as_order(n)) % 2 == 0:
        raise BadParameter("rotational tournament requires odd n")
    return _circulant(n, range(1, (n - 1) // 2 + 1))
